package bench

import (
	"fmt"
	"time"

	"explframe/internal/cache"
	"explframe/internal/cipher/registry"
	"explframe/internal/dram"
	"explframe/internal/machine"
	"explframe/internal/stats"
)

// ProbeEntry is one cache-probe timing row of a trajectory point: the cost
// of one probe measurement window (prime/evict, victim encryption,
// probe/reload) on the default machine.  Like the hammer and cipher rows
// the absolute figure is host-dependent; what `benchtab -check-trajectory`
// gates on is the zero-alloc steady-state contract next to it.
type ProbeEntry struct {
	// Technique is the probe technique's registered name (cache.Techniques).
	Technique string `json:"technique"`
	// NsPerMeasurement is the cost of one Attack.Step call.
	NsPerMeasurement float64 `json:"ns_per_measurement"`
}

// NewProbeBench builds the deterministic probe workload that the
// trajectory's probe rows, the probe zero-alloc gate and BenchmarkPrimeProbe
// all share, so trajectory, gate and benchmark cannot drift: the default
// machine's mapper under its default slice hash, a seed-1 AES-128 victim,
// and the technique's default probe configuration.
func NewProbeBench(technique string) (*cache.Attack, error) {
	ms := machine.MustGet("default")
	mapper, err := dram.NewNamedMapper(ms.MapperName(), ms.Geometry)
	if err != nil {
		return nil, err
	}
	view, err := cache.NewView(mapper, cache.DefaultGeometry(ms.CPUs), cache.DefaultSliceHash(ms.MapperName()))
	if err != nil {
		return nil, err
	}
	cfg := cache.ProbeConfig{Technique: technique, Budget: 1, Noise: 0.05}
	return cache.NewAttack(view, registry.MustGet("aes-128"), cfg, stats.NewRNG(1))
}

// probeWarmupSteps sizes the warm-up burst: enough measurement windows that
// the LLC sets, the page-cache bitset and every accumulator have reached
// their steady working state.
const probeWarmupSteps = 64

// probeTimingSteps sizes one timing sample — each Step is a full probe
// window (hundreds of simulated memory accesses), so a few thousand keep
// timing all techniques under a second.
const probeTimingSteps = 2048

// newWarmProbeBench builds a technique's probe workload and runs it past
// its one-time allocations (eviction sets, accumulators).
func newWarmProbeBench(technique string) (*cache.Attack, error) {
	atk, err := NewProbeBench(technique)
	if err != nil {
		return nil, fmt.Errorf("bench: probe %q bench setup: %w", technique, err)
	}
	for i := 0; i < probeWarmupSteps; i++ {
		atk.Step()
	}
	return atk, nil
}

// measureProbeLoops times one probe measurement window for every registered
// technique, in cache.Techniques order.
func measureProbeLoops() ([]ProbeEntry, error) {
	techs := cache.Techniques()
	out := make([]ProbeEntry, 0, len(techs))
	for _, tech := range techs {
		atk, err := newWarmProbeBench(tech)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for i := 0; i < probeTimingSteps; i++ {
			atk.Step()
		}
		out = append(out, ProbeEntry{
			Technique:        tech,
			NsPerMeasurement: float64(time.Since(start).Nanoseconds()) / probeTimingSteps,
		})
	}
	return out, nil
}

// probeLoopSteadyStateAllocs returns the average number of heap
// allocations per steady-state burst of a technique's Step calls.  The
// contract mirrors HammerLoopSteadyStateAllocs: exactly zero, or a
// measurement-budget sweep drowns in garbage-collector work.
//
// Meaningless under the race detector; callers gate on RaceEnabled.
func probeLoopSteadyStateAllocs(technique string) (float64, error) {
	atk, err := newWarmProbeBench(technique)
	if err != nil {
		return 0, err
	}
	return steadyStateAllocs(func() error {
		for i := 0; i < probeTimingSteps; i++ {
			atk.Step()
		}
		return nil
	})
}
