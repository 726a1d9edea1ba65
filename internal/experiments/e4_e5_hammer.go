package experiments

import (
	"fmt"

	"explframe/internal/dram"
	"explframe/internal/harness"
	"explframe/internal/kernel"
	"explframe/internal/report"
	"explframe/internal/rowhammer"
	"explframe/internal/stats"
	"explframe/internal/vm"
)

// hammerAttacker boots a machine with a dense weak-cell population and a
// scaled-down activation threshold for hammer characterisation, with one
// attacker process owning a touched region of the given size.
func hammerAttacker(seed, region uint64) (*kernel.Machine, *kernel.Process, vm.VirtAddr, error) {
	cfg := kernel.DefaultConfig()
	cfg.Geometry = dram.Geometry{Channels: 1, DIMMs: 1, Ranks: 1, Banks: 4, Rows: 1024, RowBytes: 8192}
	cfg.FaultModel = dram.FaultModel{
		WeakCellDensity: 8e-5,
		BaseThreshold:   4000,
		ThresholdSpread: 1.5,
		NeighbourWeight: 0.25,
		RefreshInterval: 1 << 21,
		FlipReliability: 0.98,
	}
	cfg.Seed = seed
	m, err := kernel.NewMachine(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	proc, base, err := m.SpawnResident("attacker", 0, region)
	if err != nil {
		return nil, nil, 0, err
	}
	return m, proc, base, nil
}

// E4HammerOnset measures templated flips as a function of the hammer budget
// for single- and double-sided strategies (Kim et al.'s onset curves, the
// basis of the paper's Section VI threat).
func E4HammerOnset(seed uint64, opts ...harness.Option) (*Table, error) {
	t := &Table{
		ID:    "E4",
		Title: "bit flips vs hammer count, single- vs double-sided",
		Claim: "Sec. I/VI: repeated row activation induces flips in adjacent rows; nothing flips below the onset threshold",
		Columns: []report.Column{
			{Name: "pairs_per_row", Unit: "activations"}, {Name: "flips_double", Unit: "flips"},
			{Name: "flips_single", Unit: "flips"}, {Name: "rows_scanned", Unit: "rows"},
		},
	}
	const region = 6 << 20
	budgets := []int{1000, 2000, 3000, 4500, 6000, 9000, 13000}
	// Every (budget, mode) cell characterises the same device — the machine
	// seed is fixed so the curves share one weak-cell layout — which makes
	// the cells independent of each other and safe to run on the harness.
	type cell struct {
		dFlips, sFlips int
		rows           uint64
	}
	cells, err := harness.RunTrials(seed, len(budgets), func(bi int, _ *stats.RNG) (cell, error) {
		var c cell
		for i, mode := range []rowhammer.Mode{rowhammer.DoubleSided, rowhammer.SingleSided} {
			m, proc, base, err := hammerAttacker(seed, region)
			if err != nil {
				return c, err
			}
			eng := rowhammer.New(rowhammer.Config{Mode: mode, PairHammerCount: budgets[bi]}, m, proc)
			flips, err := eng.Template(base, region)
			if err != nil {
				return c, err
			}
			if i == 0 {
				c.dFlips = len(flips)
				c.rows = eng.Stats().RowsScanned
			} else {
				c.sFlips = len(flips)
			}
		}
		return c, nil
	}, opts...)
	if err != nil {
		return nil, err
	}
	for bi, c := range cells {
		t.AddRow(report.Int(budgets[bi]), report.Int(c.dFlips), report.Int(c.sFlips), report.Uint(c.rows))
	}
	t.Notes = append(t.Notes,
		"6 MiB region, weak-cell density 8e-5, base threshold 4000 activations/window",
		"no flips below the onset; double-sided dominates single-sided at equal budgets (2x disturbance per pair)")
	t.Expect(report.Qualitative(
		"onset curve: flips appear only past an activation threshold, double-sided first",
		"Kim et al. onset shape, no absolute counts comparable across modules", "Sec. I/VI"))
	return t, nil
}

// E5Reproducibility re-hammers templated flip sites and reports how often
// the same bit flips again (Section VI: "high probability of getting bit
// flips in the same location").
func E5Reproducibility(seed uint64, _ ...harness.Option) (*Table, error) {
	t := &Table{
		ID:    "E5",
		Title: "per-site flip reproducibility over repeated hammer runs",
		Claim: "Sec. VI: \"there is a high probability of getting bit flips in the same location when conducting Rowhammer on the same virtual address space\"",
		Columns: []report.Column{
			{Name: "site"}, {Name: "page_offset", Unit: "bytes"}, {Name: "bit"},
			{Name: "polarity"}, {Name: "reproduced/runs"},
		},
	}
	const region = 4 << 20
	m, proc, base, err := hammerAttacker(seed, region)
	if err != nil {
		return nil, err
	}
	eng := rowhammer.New(rowhammer.Config{Mode: rowhammer.DoubleSided, PairHammerCount: 10000, MaxFlips: 6}, m, proc)
	flips, err := eng.Template(base, region)
	if err != nil {
		return nil, err
	}
	if len(flips) == 0 {
		return nil, fmt.Errorf("E5: no flips templated")
	}
	const runs = 10
	total, hit := 0, 0
	for si, f := range flips {
		if si >= 6 {
			break
		}
		pattern := rowhammer.PatternOnes
		if f.From == 0 {
			pattern = rowhammer.PatternZeros
		}
		ok := 0
		for r := 0; r < runs; r++ {
			m.DRAM().Refresh() // separate windows, as real time spacing would
			re, err := eng.Reproduce(f, pattern)
			if err != nil {
				return nil, err
			}
			if re {
				ok++
			}
		}
		polarity := "1->0"
		if f.From == 0 {
			polarity = "0->1"
		}
		t.AddRow(
			report.Int(si), report.Int(f.ByteInPage), report.Int(int(f.Bit)), report.Str(polarity),
			report.Frac(ok, runs),
		)
		total += runs
		hit += ok
	}
	t.AddRow(report.Str("ALL"), report.Dash(), report.Dash(), report.Dash(),
		report.Strf("%d/%d (%.2f)", hit, total, float64(hit)/float64(total)))
	t.Notes = append(t.Notes,
		"each site re-armed (pattern rewrite) and re-hammered with the original aggressors",
		"reproducibility tracks the model's FlipReliability=0.98 per window")
	t.Expect(report.Expectation{
		Metric: "overall per-site reproduction rate",
		Row:    -1, Col: -1, Direct: float64(hit) / float64(total),
		Paper: 0.98, Tol: 0.02,
		PaperText: "\"high probability\" (model FlipReliability 0.98)", Source: "Sec. VI",
	})
	return t, nil
}
