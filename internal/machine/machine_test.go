package machine

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"explframe/internal/dram"
)

// Every built-in profile must validate, lower onto a buildable kernel
// config, and carry a usable hammer budget (pairs x 2 activations above
// the worst-case cell threshold, inside one refresh window).
func TestBuiltinsValid(t *testing.T) {
	names := Names()
	if len(names) < 4 {
		t.Fatalf("want at least 4 built-in machine profiles, have %v", names)
	}
	for _, name := range names {
		ms := MustGet(name)
		if err := ms.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if ms.Description == "" {
			t.Errorf("%s: no description for the catalogue", name)
		}
		kc := ms.KernelConfig(1)
		if kc.NumCPUs != ms.CPUs || kc.Seed != 1 || !kc.DrainOnIdle {
			t.Errorf("%s: KernelConfig lowered wrong: %+v", name, kc)
		}
		worst := float64(ms.FaultModel.BaseThreshold) * (1 + ms.FaultModel.ThresholdSpread)
		if acts := float64(2 * ms.Attack.HammerPairs); acts <= worst {
			t.Errorf("%s: hammer budget %g activations cannot cross the worst threshold %g", name, acts, worst)
		}
		if uint64(2*ms.Attack.HammerPairs) >= ms.FaultModel.RefreshInterval {
			t.Errorf("%s: one hammer run spans a whole refresh window", name)
		}
	}
}

// The registry contract: case-insensitive lookup, misses report false, and
// MustGet panics on unknowns.
func TestRegistryLookup(t *testing.T) {
	if _, ok := Get("DEFAULT"); !ok {
		t.Fatal("lookup is not case-insensitive")
	}
	if _, ok := Get("no-such-machine"); ok {
		t.Fatal("unknown machine resolved")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet did not panic on an unknown machine")
		}
	}()
	MustGet("no-such-machine")
}

// Register must reject duplicates and invalid specs loudly.
func TestRegisterRejects(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("duplicate", func() { Register(New("default")) })
	mustPanic("unnamed", func() { Register(New("")) })
	mustPanic("invalid", func() { Register(New("broken", WithCPUs(0))) })
}

// Validate must join every violation into one report.
func TestValidateJoinsErrors(t *testing.T) {
	s := New("bad",
		WithGeometry(dram.Geometry{Channels: 1, DIMMs: 1, Ranks: 1, Banks: 3, Rows: 16, RowBytes: 64}),
		WithMapper("warp"),
		WithCPUs(0),
		WithPCP(10, 5),
		WithAttackSizing(0, 0, 0),
	)
	err := s.Validate()
	if err == nil {
		t.Fatal("invalid spec validated")
	}
	for _, want := range []string{"geometry", "mapper", "cpus", "pcp", "hammer_pairs", "attacker_memory", "ciphertexts"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error misses %q:\n%v", want, err)
		}
	}
	fm := dram.DefaultFaultModel()
	fm.FlipReliability = 0
	fm.RefreshInterval = 0
	fm.BaseThreshold = 0
	if err := New("bad-fm", WithFaultModel(fm)).Validate(); err == nil ||
		!strings.Contains(err.Error(), "flip_reliability") ||
		!strings.Contains(err.Error(), "refresh_interval") ||
		!strings.Contains(err.Error(), "base_threshold") {
		t.Errorf("fault-model violations not all reported: %v", err)
	}
	if err := New("bad-trr", WithTRR(0, 0)).Validate(); err == nil ||
		!strings.Contains(err.Error(), "trr") {
		t.Errorf("enabled TRR with zero geometry not rejected: %v", err)
	}
}

// Specs must round-trip losslessly through strict JSON, and unknown fields
// must be rejected.
func TestSpecJSONRoundTrip(t *testing.T) {
	for _, name := range Names() {
		ms := MustGet(name)
		data, err := ms.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeSpec(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if back != ms {
			t.Fatalf("%s: round trip drifted:\n%+v\n%+v", name, back, ms)
		}
	}
	if _, err := DecodeSpec([]byte(`{"name":"x","geomtry":{}}`)); err == nil {
		t.Fatal("typoed field accepted")
	}
}

// Name/Hash identity: hashes key on semantics (not on Name/Description),
// anonymous specs derive a stable handle, and distinct machines disagree.
func TestNameAndHash(t *testing.T) {
	a := MustGet("fast")
	b := a
	b.Name = ""
	b.Description = "renamed"
	if a.Hash() != b.Hash() {
		t.Fatal("hash depends on name/description")
	}
	if got := b.CanonicalName(); !strings.HasPrefix(got, "custom-") {
		t.Fatalf("anonymous spec handle = %q", got)
	}
	if b.CanonicalName() != b.CanonicalName() {
		t.Fatal("derived handle not stable")
	}
	if MustGet("fast").Hash() == MustGet("ddr4").Hash() {
		t.Fatal("distinct machines share a hash")
	}
	c := a
	c.Mapper = dram.MapperXORFold
	if c.Hash() == a.Hash() {
		t.Fatal("mapper kind does not enter the hash")
	}
}

// A machine with ECC/TRR options must carry them through the fault model
// and the JSON string form ("sec-ded", not an int).
func TestDefenceOptions(t *testing.T) {
	s := New("guarded", WithTRR(4, 300), WithECC())
	if !s.FaultModel.TRR.Enabled || s.FaultModel.TRR.TrackerSize != 4 {
		t.Fatalf("TRR option not applied: %+v", s.FaultModel.TRR)
	}
	if s.FaultModel.ECC != dram.ECCSecDed {
		t.Fatal("ECC option not applied")
	}
	data, err := s.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"ecc": "sec-ded"`) {
		t.Fatalf("ECC mode not serialized by name:\n%s", data)
	}
	back, err := DecodeSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatal("defended spec did not round-trip")
	}
}

// LoadSpec must read a spec file and preserve it losslessly.
func TestLoadSpec(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	want := MustGet("ddr4")
	data, err := want.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("LoadSpec drifted:\n%+v\n%+v", got, want)
	}
	if _, err := LoadSpec(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file loaded")
	}
}
