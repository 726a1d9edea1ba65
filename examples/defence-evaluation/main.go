// Defence evaluation: run the same end-to-end attack against an
// undefended module, a TRR-protected module (with and without the
// many-sided bypass), and ECC memory — the quantitative version of the
// paper's closing defence discussion.
package main

import (
	"fmt"
	"log"

	"explframe/internal/core"
	"explframe/internal/dram"
	"explframe/internal/rowhammer"
)

func main() {
	type scenario struct {
		name string
		mod  func(*core.Config)
	}
	scenarios := []scenario{
		{"no defence", func(c *core.Config) {}},
		{"TRR (tracker 4, threshold 300)", func(c *core.Config) {
			c.Machine.FaultModel.TRR = dram.TRRConfig{Enabled: true, TrackerSize: 4, Threshold: 300}
		}},
		{"TRR + many-sided bypass (8 decoys)", func(c *core.Config) {
			c.Machine.FaultModel.TRR = dram.TRRConfig{Enabled: true, TrackerSize: 4, Threshold: 300}
			c.Hammer.Mode = rowhammer.ManySided
			c.Hammer.Decoys = 8
		}},
		{"ECC SEC-DED", func(c *core.Config) {
			c.Machine.FaultModel.ECC = dram.ECCSecDed
		}},
	}

	for _, sc := range scenarios {
		cfg := core.DefaultConfig()
		cfg.Seed = 3
		// Small module so each run takes seconds.
		cfg.Machine.Geometry = dram.Geometry{Banks: 4, Rows: 1024, RowBytes: 8192}
		cfg.Machine.FaultModel.WeakCellDensity = 2e-4
		cfg.Machine.FaultModel.BaseThreshold = 1500
		cfg.Machine.FaultModel.ThresholdSpread = 0.5
		cfg.Hammer.PairHammerCount = 3200
		cfg.AttackerMemory = 8 << 20
		sc.mod(&cfg)

		attack, err := core.NewAttack(cfg)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := attack.Run()
		if err != nil {
			log.Fatal(err)
		}
		outcome := "KEY RECOVERED"
		if !rep.Success() {
			outcome = fmt.Sprintf("stopped at %s (%s)", rep.Phase, rep.FailReason)
		}
		fmt.Printf("%-38s -> %s\n", sc.name, outcome)
	}
}
