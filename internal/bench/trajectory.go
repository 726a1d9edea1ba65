package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"explframe/internal/cache"
	"explframe/internal/cipher/registry"
	"explframe/internal/machine"
)

// TrajectorySchema is the current BENCH_trajectory.json schema version;
// bump it when the point shape changes so stale files fail parsing loudly.
const TrajectorySchema = 1

// MachineEntry is one machine profile's timing sample in a trajectory point.
type MachineEntry struct {
	// Machine is the registered profile name the sample was taken on.
	Machine string `json:"machine"`
	// Mapper is the profile's address-mapper kind.
	Mapper string `json:"mapper"`
	// MiB is the module capacity.
	MiB uint64 `json:"mib"`
	// HammerNsPerActivation is the measured cost of one HammerLoop
	// activation through the full kernel/DRAM stack.
	HammerNsPerActivation float64 `json:"hammer_ns_per_activation"`
	// AttackTrialMs is the wall time of one seed-1 end-to-end attack trial.
	AttackTrialMs float64 `json:"attack_trial_ms"`
	// KeyRecovered records that trial's outcome, pinning that the timing
	// measured a real attack, not an early bail-out.
	KeyRecovered bool `json:"key_recovered"`
}

// TrajectoryPoint is one timestamped performance sample: every registered
// machine, cipher core and probe technique measured in a single
// `benchtab -append-trajectory` run.
type TrajectoryPoint struct {
	// Time is the sample time, RFC 3339 in UTC.
	Time string `json:"time"`
	// Host describes the sampling machine (GOOS/GOARCH, CPU count — enough
	// to judge comparability, no hostnames).
	Host string `json:"host"`
	// Entries holds one sample per machine profile registered at the time
	// the point was taken.
	Entries []MachineEntry `json:"entries"`
	// Ciphers holds one cipher-core timing sample per cipher registered at
	// the time the point was taken (scalar vs bitsliced ns/encryption).
	// Points predating the bitsliced cores omit the field; the latest point
	// must carry it and cover the cipher registry exactly.
	Ciphers []CipherEntry `json:"ciphers,omitempty"`
	// Probes holds one cache-probe timing sample per registered probe
	// technique (ns per measurement window on the default machine).  Points
	// predating the cache layer omit the field; the latest point must carry
	// it and cover cache.Techniques exactly.
	Probes []ProbeEntry `json:"probes,omitempty"`
}

// TrajectoryFile is the append-only performance history: every appended
// point is kept, so regressions show up as a bend in the curve rather than
// silently replacing a baseline.
type TrajectoryFile struct {
	// Schema is TrajectorySchema at emission time.
	Schema int `json:"schema"`
	// Note records how to extend the file.
	Note string `json:"note"`
	// Points is the append-only history, oldest first.
	Points []TrajectoryPoint `json:"points"`
}

// trajectoryNote is written into fresh trajectory files.
const trajectoryNote = "append-only; extend with: go run ./cmd/benchtab -append-trajectory BENCH_trajectory.json"

// ParseTrajectoryFile strictly decodes and shape-checks a trajectory
// document: known schema, at least one point, strictly increasing RFC 3339
// timestamps, and non-empty entries with positive timings throughout.  The
// LATEST point must cover exactly the currently registered machine set AND
// the currently registered cipher set (its cipher-core timing rows) AND the
// registered probe-technique set (its cache-probe rows) — that is the
// regression gate `benchtab -check-trajectory` runs in CI.  Older points
// are historical: they may name machines that have since been renamed or
// removed, or predate the cipher or probe rows entirely (append-only files
// outlive the registry), so only their internal shape is checked.
func ParseTrajectoryFile(data []byte) (TrajectoryFile, error) {
	f, err := parseTrajectoryHistory(data)
	if err != nil {
		return TrajectoryFile{}, err
	}
	if err := checkCoversRegistries(f.Points[len(f.Points)-1]); err != nil {
		return TrajectoryFile{}, fmt.Errorf("bench: trajectory file invalid: latest point: %w", err)
	}
	return f, nil
}

// parseTrajectoryHistory decodes and shape-checks everything except the
// latest-point registry coverage — the parse AppendPoint needs, since the
// point it is about to add becomes the latest.
func parseTrajectoryHistory(data []byte) (TrajectoryFile, error) {
	var f TrajectoryFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return TrajectoryFile{}, fmt.Errorf("bench: decode trajectory file: %w", err)
	}
	var errs []error
	if f.Schema != TrajectorySchema {
		errs = append(errs, fmt.Errorf("schema %d, want %d", f.Schema, TrajectorySchema))
	}
	if len(f.Points) == 0 {
		errs = append(errs, errors.New("no points"))
	}
	var prev time.Time
	for i, p := range f.Points {
		ts, err := time.Parse(time.RFC3339, p.Time)
		if err != nil {
			errs = append(errs, fmt.Errorf("point %d: bad timestamp %q: %v", i, p.Time, err))
		} else {
			if i > 0 && !ts.After(prev) {
				errs = append(errs, fmt.Errorf("point %d: timestamp %q not after point %d (%q) — the file is append-only",
					i, p.Time, i-1, f.Points[i-1].Time))
			}
			prev = ts
		}
		if len(p.Entries) == 0 {
			errs = append(errs, fmt.Errorf("point %d: no entries", i))
		}
		for j, e := range p.Entries {
			if e.Machine == "" {
				errs = append(errs, fmt.Errorf("point %d entry %d: empty machine name", i, j))
			}
			if e.HammerNsPerActivation <= 0 || e.AttackTrialMs <= 0 {
				errs = append(errs, fmt.Errorf("point %d entry %d (%s): non-positive timings (%g ns/act, %g ms)",
					i, j, e.Machine, e.HammerNsPerActivation, e.AttackTrialMs))
			}
		}
		for j, e := range p.Ciphers {
			if e.Cipher == "" {
				errs = append(errs, fmt.Errorf("point %d cipher row %d: empty cipher name", i, j))
			}
			if e.ScalarNsPerEncryption <= 0 || e.BitslicedNsPerEncryption <= 0 {
				errs = append(errs, fmt.Errorf("point %d cipher row %d (%s): non-positive timings (%g scalar ns, %g bitsliced ns)",
					i, j, e.Cipher, e.ScalarNsPerEncryption, e.BitslicedNsPerEncryption))
			}
			if e.Lanes <= 0 {
				errs = append(errs, fmt.Errorf("point %d cipher row %d (%s): non-positive lane count %d", i, j, e.Cipher, e.Lanes))
			}
		}
		for j, e := range p.Probes {
			if e.Technique == "" {
				errs = append(errs, fmt.Errorf("point %d probe row %d: empty technique name", i, j))
			}
			if e.NsPerMeasurement <= 0 {
				errs = append(errs, fmt.Errorf("point %d probe row %d (%s): non-positive timing (%g ns/measurement)",
					i, j, e.Technique, e.NsPerMeasurement))
			}
		}
	}
	if err := errors.Join(errs...); err != nil {
		return TrajectoryFile{}, fmt.Errorf("bench: trajectory file invalid: %w", err)
	}
	return f, nil
}

// checkCoversRegistries verifies a point samples exactly the registered
// machine set, cipher set and probe-technique set.
func checkCoversRegistries(p TrajectoryPoint) error {
	return errors.Join(
		checkCovers("machine", p.Entries, func(e MachineEntry) string { return e.Machine },
			func(name string) bool { _, ok := machine.Get(name); return ok }, machine.Names()),
		checkCovers("cipher", p.Ciphers, func(e CipherEntry) string { return e.Cipher },
			func(name string) bool { _, ok := registry.Get(name); return ok }, registry.Names()),
		checkCovers("probe technique", p.Probes, func(e ProbeEntry) string { return e.Technique },
			cache.KnownTechnique, cache.Techniques()),
	)
}

// checkCovers verifies that the rows' names are exactly the registered
// set — no stale names, no missing ones, no duplicates.  what names the
// registry in error messages, known looks a name up in it.
func checkCovers[E any](what string, rows []E, name func(E) string, known func(string) bool, registered []string) error {
	var errs []error
	sampled := make(map[string]bool, len(rows))
	for _, row := range rows {
		n := name(row)
		if sampled[n] {
			errs = append(errs, fmt.Errorf("%s %q sampled twice", what, n))
		}
		sampled[n] = true
		if !known(n) {
			errs = append(errs, fmt.Errorf("%s %q is not registered", what, n))
		}
	}
	for _, n := range registered {
		if !sampled[n] {
			errs = append(errs, fmt.Errorf("registered %s %q has no sample", what, n))
		}
	}
	return errors.Join(errs...)
}

// AppendPoint extends the trajectory in data (or starts a fresh file when
// data is empty) with one point carrying the given machine entries,
// cipher-core timing rows and cache-probe timing rows, stamped now.  The
// existing history is never rewritten: points only grow at the tail, and a
// timestamp at or before the last point is rejected rather than reordered.
func AppendPoint(data []byte, host string, entries []MachineEntry, ciphers []CipherEntry, probes []ProbeEntry, now time.Time) ([]byte, error) {
	f := TrajectoryFile{Schema: TrajectorySchema, Note: trajectoryNote}
	if len(data) > 0 {
		parsed, err := parseTrajectoryHistory(data)
		if err != nil {
			return nil, err
		}
		f = parsed
	}
	if len(entries) == 0 {
		return nil, errors.New("bench: refusing to append a point with no entries")
	}
	p := TrajectoryPoint{Time: now.UTC().Format(time.RFC3339), Host: host, Entries: entries, Ciphers: ciphers, Probes: probes}
	if err := checkCoversRegistries(p); err != nil {
		return nil, fmt.Errorf("bench: new trajectory point: %w", err)
	}
	if n := len(f.Points); n > 0 {
		last, err := time.Parse(time.RFC3339, f.Points[n-1].Time)
		if err == nil && !now.UTC().After(last) {
			return nil, fmt.Errorf("bench: new point at %s is not after the last point (%s)",
				p.Time, f.Points[n-1].Time)
		}
	}
	f.Points = append(f.Points, p)
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
