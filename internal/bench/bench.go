// Package bench owns the repository's performance record: the workloads
// that time the hammer loop, one end-to-end attack trial per machine
// profile, the scalar and bitsliced cipher cores and the cache-probe
// loops; the append-only BENCH_trajectory.json history those timings are
// recorded in; and the gate CI holds the history and the live code to —
// registry-exact latest point, bitsliced speedup floors and zero
// steady-state allocations in the hammer and probe loops.
//
// cmd/benchtab exposes the two entry points as -append-trajectory and
// -check-trajectory.
package bench

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"explframe/internal/cache"
	"explframe/internal/machine"
)

// AppendTrajectory re-times every registered machine profile, cipher core
// and probe technique, logging each row to w, and appends the run as one
// timestamped point to the trajectory file at path, creating the file if
// it does not exist.  Nothing is written unless every measurement succeeds.
func AppendTrajectory(path string, w io.Writer) error {
	prev, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	entries, err := measureMachines(w)
	if err != nil {
		return err
	}
	ciphers, err := measureCipherCores()
	if err != nil {
		return err
	}
	for _, e := range ciphers {
		fmt.Fprintf(w, "%-14s %7.1f ns/encryption scalar, %6.1f bitsliced (%d lanes, %.1fx)\n",
			e.Cipher, e.ScalarNsPerEncryption, e.BitslicedNsPerEncryption, e.Lanes,
			e.ScalarNsPerEncryption/e.BitslicedNsPerEncryption)
	}
	probes, err := measureProbeLoops()
	if err != nil {
		return err
	}
	for _, e := range probes {
		fmt.Fprintf(w, "%-14s %7.1f ns/probe measurement\n", e.Technique, e.NsPerMeasurement)
	}
	host := fmt.Sprintf("%s/%s, %d cpus", runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
	out, err := AppendPoint(prev, host, entries, ciphers, probes, time.Now())
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "appended a point to %s\n", path)
	return nil
}

// CheckTrajectory is the CI regression gate, logging one line per check to
// w: the trajectory at path must strictly parse (append-only timestamps,
// registry-exact latest point including its cipher-core and cache-probe
// rows), the latest point's recorded cipher rows must show the bitsliced
// cores pulling their weight (at least 4x over scalar on AES-128, never
// slower elsewhere), the same must hold when the cores are re-measured
// live on this host, and both hot paths — the hammer loop on every
// registered machine and the probe loop of every registered technique —
// must still be allocation-free in steady state, the property the
// trajectory's timings are meaningless without.  Under the race detector
// only the recorded rows are gated.
func CheckTrajectory(path string, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	f, err := ParseTrajectoryFile(data)
	if err != nil {
		return err
	}
	latest := f.Points[len(f.Points)-1]
	fmt.Fprintf(w, "%s: schema %d, %d points (latest %s), ok\n", path, f.Schema, len(f.Points), latest.Time)
	errs := []error{checkCipherRows(w, latest.Ciphers, "recorded")}
	if RaceEnabled {
		fmt.Fprintln(w, "race detector active: skipping the live cipher and zero-alloc gates (instrumentation skews both)")
		return errors.Join(errs...)
	}
	live, err := measureCipherCores()
	if err != nil {
		return err
	}
	errs = append(errs, checkCipherRows(w, live, "live"))
	for _, name := range machine.Names() {
		allocs, err := HammerLoopSteadyStateAllocs(machine.MustGet(name))
		if err != nil {
			return fmt.Errorf("%s: alloc gate: %w", name, err)
		}
		errs = append(errs, checkZeroAllocs(w, name, "hammer", allocs))
	}
	for _, tech := range cache.Techniques() {
		allocs, err := probeLoopSteadyStateAllocs(tech)
		if err != nil {
			return fmt.Errorf("%s: probe alloc gate: %w", tech, err)
		}
		errs = append(errs, checkZeroAllocs(w, tech, "probe", allocs))
	}
	return errors.Join(errs...)
}

// checkZeroAllocs logs one steady-state allocation count to w and fails it
// unless it is exactly zero.
func checkZeroAllocs(w io.Writer, name, loop string, allocs float64) error {
	status := "ok"
	var err error
	if allocs != 0 {
		status = "FAIL"
		err = fmt.Errorf("%s: steady-state %s loop allocates %.2f times per run; want 0", name, loop, allocs)
	}
	fmt.Fprintf(w, "%-14s steady-state %s allocs/run: %.2f %s\n", name, loop, allocs, status)
	return err
}
