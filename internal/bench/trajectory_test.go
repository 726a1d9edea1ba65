package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"explframe/internal/cache"
	"explframe/internal/cipher/registry"
	"explframe/internal/machine"
)

// sampleEntries fabricates a full registry-covering entry set with valid
// timings, for exercising the trajectory shape checks without timing
// anything.
func sampleEntries() []MachineEntry {
	var entries []MachineEntry
	for _, name := range machine.Names() {
		ms := machine.MustGet(name)
		entries = append(entries, MachineEntry{
			Machine: name, Mapper: ms.MapperName(), MiB: ms.Geometry.TotalBytes() >> 20,
			HammerNsPerActivation: 50, AttackTrialMs: 1000, KeyRecovered: true,
		})
	}
	return entries
}

// sampleCiphers fabricates a registry-covering cipher-core row set with
// valid timings, matching sampleEntries in spirit.
func sampleCiphers() []CipherEntry {
	var rows []CipherEntry
	for _, name := range registry.Names() {
		rows = append(rows, CipherEntry{
			Cipher: name, ScalarNsPerEncryption: 500, BitslicedNsPerEncryption: 50, Lanes: 64,
		})
	}
	return rows
}

// sampleProbes fabricates a technique-covering cache-probe row set with
// valid timings.
func sampleProbes() []ProbeEntry {
	var rows []ProbeEntry
	for _, tech := range cache.Techniques() {
		rows = append(rows, ProbeEntry{Technique: tech, NsPerMeasurement: 2000})
	}
	return rows
}

// The checked-in BENCH_trajectory.json must strictly parse, with its latest
// point covering the registered machine set — the gate behind
// `benchtab -check-trajectory`.
func TestCheckedInTrajectoryParses(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_trajectory.json"))
	if err != nil {
		t.Fatalf("missing bench trajectory (append with `go run ./cmd/benchtab -append-trajectory BENCH_trajectory.json`): %v", err)
	}
	f, err := ParseTrajectoryFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Points) < 1 {
		t.Fatal("trajectory has no points")
	}
}

// AppendPoint starts a fresh file, appends in order, and the result
// round-trips through the strict parser.
func TestAppendPointGrowsFile(t *testing.T) {
	t0 := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	data, err := AppendPoint(nil, "test/amd64, 4 cpus", sampleEntries(), sampleCiphers(), sampleProbes(), t0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ParseTrajectoryFile(data)
	if err != nil {
		t.Fatalf("fresh file does not parse: %v", err)
	}
	if len(f.Points) != 1 {
		t.Fatalf("got %d points, want 1", len(f.Points))
	}
	data, err = AppendPoint(data, "test/amd64, 4 cpus", sampleEntries(), sampleCiphers(), sampleProbes(), t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	f, err = ParseTrajectoryFile(data)
	if err != nil {
		t.Fatalf("extended file does not parse: %v", err)
	}
	if len(f.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(f.Points))
	}
	if f.Points[0].Time != "2026-08-01T12:00:00Z" {
		t.Errorf("history rewritten: first point now at %s", f.Points[0].Time)
	}
}

// Appending is refused when it would reorder or duplicate the tail — the
// file is append-only in time, not just in position.
func TestAppendPointRejectsNonMonotonic(t *testing.T) {
	t0 := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	data, err := AppendPoint(nil, "h", sampleEntries(), sampleCiphers(), sampleProbes(), t0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range []time.Time{t0, t0.Add(-time.Hour)} {
		if _, err := AppendPoint(data, "h", sampleEntries(), sampleCiphers(), sampleProbes(), ts); err == nil {
			t.Errorf("append at %v accepted; want monotonicity error", ts)
		}
	}
}

// The shape checks reject: wrong schema, empty files, out-of-order points,
// bad timestamps, empty entry sets, non-positive timings, and a latest
// point that misses or duplicates registered machines.
func TestParseTrajectoryFileRejects(t *testing.T) {
	t0 := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	good, err := AppendPoint(nil, "h", sampleEntries(), sampleCiphers(), sampleProbes(), t0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, doc, want string
	}{
		{"bad schema", `{"schema":99,"note":"","points":[]}`, "schema 99"},
		{"no points", `{"schema":1,"note":"","points":[]}`, "no points"},
		{"unknown field", `{"schema":1,"bogus":1,"points":[]}`, "bogus"},
		{"bad timestamp", strings.Replace(string(good), "2026-08-01T12:00:00Z", "yesterday-ish", 1), "bad timestamp"},
		{"stale machine", strings.Replace(string(good), `"machine": "default"`, `"machine": "retired"`, 1), "not registered"},
		{"zero timing", strings.Replace(string(good), `"hammer_ns_per_activation": 50`, `"hammer_ns_per_activation": 0`, 1), "non-positive"},
		{"stale cipher", strings.Replace(string(good), `"cipher": "aes-128"`, `"cipher": "rc4"`, 1), "not registered"},
		{"zero cipher timing", strings.Replace(string(good), `"bitsliced_ns_per_encryption": 50`, `"bitsliced_ns_per_encryption": 0`, 1), "non-positive"},
		{"zero lanes", strings.Replace(string(good), `"lanes": 64`, `"lanes": 0`, 1), "non-positive lane count"},
		{"stale technique", strings.Replace(string(good), `"technique": "prime-probe"`, `"technique": "flush-reload"`, 1), "not registered"},
		{"zero probe timing", strings.Replace(string(good), `"ns_per_measurement": 2000`, `"ns_per_measurement": 0`, 1), "non-positive"},
	}
	for _, tc := range cases {
		_, err := ParseTrajectoryFile([]byte(tc.doc))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	// Older points tolerate machines that have since left the registry and
	// may predate the cipher-core and probe rows entirely — append-only
	// history outlives registry changes — while the latest point must cover
	// all the current registries exactly.
	entries := sampleEntries()
	entries[0].Machine = "retired"
	hist := TrajectoryFile{Schema: TrajectorySchema, Note: trajectoryNote,
		Points: []TrajectoryPoint{
			{Time: "2026-07-01T12:00:00Z", Host: "h", Entries: entries},
			{Time: "2026-08-01T12:00:00Z", Host: "h", Entries: sampleEntries(), Ciphers: sampleCiphers(), Probes: sampleProbes()},
		}}
	data, err := json.MarshalIndent(hist, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseTrajectoryFile(data); err != nil {
		t.Errorf("retired machine in a historical point rejected: %v", err)
	}
	// The same retired name in the LATEST point is a failure.
	hist.Points[0], hist.Points[1] = hist.Points[1], hist.Points[0]
	hist.Points[0].Time, hist.Points[1].Time = hist.Points[1].Time, hist.Points[0].Time
	data, err = json.MarshalIndent(hist, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseTrajectoryFile(data); err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Errorf("retired machine in latest point: error %v, want mention of \"not registered\"", err)
	}

	// A latest point with no cipher rows at all is equally a failure — the
	// bitsliced speedup gate has nothing to check without them.  Same for
	// missing probe rows.
	hist = TrajectoryFile{Schema: TrajectorySchema, Note: trajectoryNote,
		Points: []TrajectoryPoint{
			{Time: "2026-07-01T12:00:00Z", Host: "h", Entries: sampleEntries(), Ciphers: sampleCiphers(), Probes: sampleProbes()},
			{Time: "2026-08-01T12:00:00Z", Host: "h", Entries: sampleEntries()},
		}}
	data, err = json.MarshalIndent(hist, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseTrajectoryFile(data); err == nil || !strings.Contains(err.Error(), "has no sample") {
		t.Errorf("latest point without cipher rows: error %v, want mention of \"has no sample\"", err)
	}
	hist.Points[1].Ciphers = sampleCiphers()
	data, err = json.MarshalIndent(hist, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseTrajectoryFile(data); err == nil || !strings.Contains(err.Error(), "has no sample") {
		t.Errorf("latest point without probe rows: error %v, want mention of \"has no sample\"", err)
	}
}
