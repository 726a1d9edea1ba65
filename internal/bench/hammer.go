package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"explframe/internal/dram"
	"explframe/internal/kernel"
	"explframe/internal/machine"
	"explframe/internal/scenario"
	"explframe/internal/vm"
)

// HammerBenchPages and HammerBenchStride fix the shared hammer-timing
// workload: a 64-page touched buffer with two aggressor addresses 32
// pages apart.
const (
	// HammerBenchPages is the buffer size of the timing workload.
	HammerBenchPages = 64
	// HammerBenchStride is the page distance between the two hammered
	// addresses.
	HammerBenchStride = 32
)

// NewHammerBench assembles the measurement harness behind the trajectory's
// per-machine hammer rows, the steady-state zero-alloc gate and
// BenchmarkHammerLoopPerMachine: one process on the seed-1 machine with the
// fixed touched buffer, returning the two aggressor addresses to drive through
// HammerLoop.  Sharing the setup keeps the trajectory and the in-tree
// benchmark measuring the same workload.
func NewHammerBench(ms machine.Spec) (*kernel.Process, []vm.VirtAddr, error) {
	m, err := kernel.NewMachine(ms.KernelConfig(1))
	if err != nil {
		return nil, nil, err
	}
	proc, base, err := m.SpawnResident("bench", 0, HammerBenchPages*vm.PageSize)
	if err != nil {
		return nil, nil, err
	}
	vas := []vm.VirtAddr{base, base + vm.VirtAddr(HammerBenchStride*vm.PageSize)}
	return proc, vas, nil
}

// hammerTimingActivations sizes the HammerLoop timing sample: large enough
// to amortise setup, small enough that timing five profiles stays seconds.
const hammerTimingActivations = 400_000

// measureMachines re-times every registered machine profile — the raw
// HammerLoop activation cost through the full kernel/DRAM stack, and one
// seed-1 end-to-end attack trial — logging one line per machine to w.
func measureMachines(w io.Writer) ([]MachineEntry, error) {
	var entries []MachineEntry
	for _, name := range machine.Names() {
		ms := machine.MustGet(name)
		entry := MachineEntry{Machine: name, Mapper: ms.MapperName(), MiB: ms.Geometry.TotalBytes() >> 20}

		nsPerAct, err := timeHammerLoop(ms)
		if err != nil {
			return nil, fmt.Errorf("%s: hammer timing: %w", name, err)
		}
		entry.HammerNsPerActivation = nsPerAct

		spec := scenario.New(scenario.WithProfile(scenario.Profile(name)))
		start := time.Now()
		res, err := scenario.Run(context.Background(), spec)
		if err != nil {
			return nil, fmt.Errorf("%s: attack trial: %w", name, err)
		}
		entry.AttackTrialMs = float64(time.Since(start).Microseconds()) / 1000
		entry.KeyRecovered = res.AttackStats().Key.Successes > 0

		fmt.Fprintf(w, "%-14s %6.1f ns/act, attack trial %8.1f ms (key recovered: %v)\n",
			name, entry.HammerNsPerActivation, entry.AttackTrialMs, entry.KeyRecovered)
		entries = append(entries, entry)
	}
	return entries, nil
}

// timeHammerLoop measures one activation's cost on the machine: two
// attacker pages hammered in the translation-cached loop, the same
// primitive every templating and re-hammer phase spends its time in.
func timeHammerLoop(ms machine.Spec) (float64, error) {
	proc, vas, err := NewHammerBench(ms)
	if err != nil {
		return 0, err
	}
	// An aggressor set larger than the activation budget would truncate
	// rounds to zero — HammerLoop would issue nothing and the division
	// below would be 0/0.  Clamp to one round and divide by the
	// activations actually issued, not the nominal budget.
	rounds := hammerTimingActivations / len(vas)
	if rounds < 1 {
		rounds = 1
	}
	start := time.Now()
	if err := proc.HammerLoop(vas, rounds); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Nanoseconds()) / float64(rounds*len(vas)), nil
}

// The steady-state allocation gates run without the testing package, so
// the same measurement serves both as a repo test and inside
// `benchtab -check-trajectory` in CI.
//
// "Steady state" matters: the first hammer bursts legitimately allocate —
// the translated-address scratch buffer, the device's dirty list growing to
// its working size, weak cells materialising backing chunks as they flip.
// The zero-alloc contract is about everything after that: once a process
// has hammered through a couple of refresh windows, further HammerLoop
// calls must not allocate at all, or multi-million-activation templating
// sweeps drown in garbage-collector work.

// steadyStateRuns is how many measured calls an allocation count is
// averaged over.
const steadyStateRuns = 10

// steadyStateAllocs returns the average number of heap allocations per
// call of run over steadyStateRuns calls.  It serialises with the runtime
// the way testing.AllocsPerRun does, so a background sysmon or GC
// goroutine cannot attribute stray mallocs to the measured window.
func steadyStateAllocs(run func() error) (float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < steadyStateRuns; i++ {
		if err := run(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / steadyStateRuns, nil
}

// steadyStateMeasureActivations is the per-run activation count of the
// hammer measurement phase — big enough to catch a per-round allocation,
// small enough to stay inside one refresh window after warm-up.
const steadyStateMeasureActivations = 4096

// hammerWarmupActivations sizes the warm-up burst for a fault model: two
// full refresh windows (the dirty list and TRR tracker reach their working
// sizes, and every window-periodic path has executed), plus enough
// activations that even the highest-threshold weak cell reachable through
// the weakest coupling has crossed its threshold and resolved (flipped or
// held), plus slack for the reliability re-roll of held cells.
func hammerWarmupActivations(fm dram.FaultModel) uint64 {
	maxThr := float64(fm.BaseThreshold) * (1 + fm.ThresholdSpread)
	w := fm.NeighbourWeight
	if w <= 0 || w > 1 {
		w = 1
	}
	return 2*fm.RefreshInterval + uint64(maxThr/w) + 100_000
}

// HammerLoopSteadyStateAllocs builds the shared hammer-bench workload on
// the machine, warms it past every one-time allocation, and returns the
// average number of heap allocations per steady-state HammerLoop call.
// The zero-alloc contract `benchtab -check-trajectory` enforces is that
// this is exactly zero for every registered machine.
//
// The measurement is meaningless under the race detector, which inserts
// its own allocations; callers gate on RaceEnabled.
func HammerLoopSteadyStateAllocs(ms machine.Spec) (float64, error) {
	proc, vas, err := NewHammerBench(ms)
	if err != nil {
		return 0, err
	}
	warm := hammerWarmupActivations(ms.FaultModel)
	if err := proc.HammerLoop(vas, int(warm)/len(vas)); err != nil {
		return 0, fmt.Errorf("warm-up hammer: %w", err)
	}
	rounds := steadyStateMeasureActivations / len(vas)
	return steadyStateAllocs(func() error {
		if err := proc.HammerLoop(vas, rounds); err != nil {
			return fmt.Errorf("measured hammer: %w", err)
		}
		return nil
	})
}
