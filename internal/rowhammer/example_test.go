package rowhammer_test

import (
	"fmt"

	"explframe/internal/dram"
	"explframe/internal/kernel"
	"explframe/internal/rowhammer"
	"explframe/internal/vm"
)

// ExampleEngine shows the attack's reconnaissance phase (the narrated tour
// is examples/rowhammer-templating): template a buffer for repeatable bit
// flips with double-sided hammering, then re-hammer the first site to
// confirm it reproduces.
func ExampleEngine() {
	cfg := kernel.DefaultConfig()
	cfg.Seed = 7
	cfg.Geometry = dram.Geometry{Banks: 4, Rows: 1024, RowBytes: 8192}
	cfg.FaultModel = dram.FaultModel{
		WeakCellDensity: 1e-4, // a weak module, the attack's favourable case
		BaseThreshold:   4000,
		ThresholdSpread: 1.0,
		NeighbourWeight: 0.25,
		RefreshInterval: 1 << 21,
		FlipReliability: 1.0, // always reproduce, keeping the example output stable
	}
	m, err := kernel.NewMachine(cfg)
	if err != nil {
		panic(err)
	}
	attacker, err := m.Spawn("attacker", 0)
	if err != nil {
		panic(err)
	}

	const bufLen = 4 << 20
	base, err := attacker.Mmap(bufLen)
	if err != nil {
		panic(err)
	}
	if err := attacker.Touch(base, bufLen); err != nil {
		panic(err)
	}

	engine := rowhammer.New(rowhammer.Config{
		Mode:            rowhammer.DoubleSided,
		PairHammerCount: 9000,
		MaxFlips:        3, // stop early; one good page is enough
	}, m, attacker)
	flips, err := engine.Template(base, bufLen)
	if err != nil {
		panic(err)
	}
	fmt.Printf("templated %d flip sites\n", len(flips))

	pattern := rowhammer.PatternOnes
	if flips[0].From == 0 {
		pattern = rowhammer.PatternZeros
	}
	m.DRAM().Refresh() // a fresh refresh window, as real time spacing would give
	again, err := engine.Reproduce(flips[0], pattern)
	if err != nil {
		panic(err)
	}
	fmt.Printf("site 0 reproduces: %v\n", again)
	_ = vm.PageSize
	// Output:
	// templated 4 flip sites
	// site 0 reproduces: true
}
