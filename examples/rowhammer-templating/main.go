// Rowhammer templating: the attack's reconnaissance phase.  The attacker
// maps a buffer, finds which of its own bits can be flipped by hammering,
// verifies reproducibility, and shows the aggressor rows it would reuse
// after planting the page under a victim.
package main

import (
	"fmt"
	"log"

	"explframe/internal/dram"
	"explframe/internal/kernel"
	"explframe/internal/rowhammer"
)

func main() {
	cfg := kernel.DefaultConfig()
	cfg.Seed = 7
	cfg.FaultModel = dram.FaultModel{
		WeakCellDensity: 1e-4, // a weak module, the attack's favourable case
		BaseThreshold:   4000,
		ThresholdSpread: 1.0,
		NeighbourWeight: 0.25,
		RefreshInterval: 1 << 21,
		FlipReliability: 0.98,
	}
	m, err := kernel.NewMachine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	const bufLen = 8 << 20
	attacker, base, err := m.SpawnResident("attacker", 0, bufLen)
	if err != nil {
		log.Fatal(err)
	}

	engine := rowhammer.New(rowhammer.Config{
		Mode:            rowhammer.DoubleSided,
		PairHammerCount: 9000,
		MaxFlips:        10, // stop after ten sites; one good page is enough
	}, m, attacker)

	fmt.Printf("templating %d MiB with double-sided hammering...\n", bufLen>>20)
	flips, err := engine.Template(base, bufLen)
	if err != nil {
		log.Fatal(err)
	}
	st := engine.Stats()
	fmt.Printf("scanned %d rows with %d activations, found %d flip sites\n\n",
		st.RowsScanned, st.Activations, len(flips))

	for i, f := range flips {
		pattern := rowhammer.PatternOnes
		direction := "1->0"
		if f.From == 0 {
			pattern = rowhammer.PatternZeros
			direction = "0->1"
		}
		m.DRAM().Refresh()
		again, err := engine.Reproduce(f, pattern)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("site %d: page %#x offset %d bit %d (%s), aggressor rows %d±1 in bank %d, reproduces: %v\n",
			i, uint64(f.PageVA), f.ByteInPage, f.Bit, direction, f.Agg.VictimRow, f.Agg.Bank, again)
	}
	if len(flips) == 0 {
		fmt.Println("no flips found — try a higher density or budget")
	}
}
