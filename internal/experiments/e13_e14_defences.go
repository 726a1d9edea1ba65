package experiments

import (
	"context"
	"fmt"

	"explframe/internal/harness"
	"explframe/internal/report"
	"explframe/internal/scenario"
	"explframe/internal/stats"
)

// E13Defences evaluates the attack against the hardware mitigations the
// Rowhammer literature proposes: TRR (with and without the many-sided
// bypass) and SEC-DED ECC.  This is the defence discussion the paper's
// conclusion points at, made quantitative — each row one declarative
// scenario on the fast profile.
func E13Defences(seed uint64, opts ...harness.Option) (*Table, error) {
	t := &Table{
		ID:    "E13",
		Title: "defences: TRR, many-sided bypass, ECC",
		Claim: "extension: which deployed mitigations actually stop the ExplFrame pipeline, and at what cost",
		Columns: []report.Column{
			{Name: "defence"}, {Name: "hammer_mode"},
			{Name: "fault_in_table", Unit: "fraction"}, {Name: "notes"},
		},
	}
	const trials = 8

	rows := []struct {
		name, mode, note string
		opts             []scenario.Option
	}{
		{"none", "double-sided", "the paper's DDR3 setting", nil},
		{"TRR(track=4,thr=300)", "double-sided", "neighbour refresh outruns disturbance",
			[]scenario.Option{scenario.WithTRR(4, 300)}},
		{"TRR(track=4,thr=300)", "many-sided", "8 decoys thrash the tracker (TRRespass)",
			[]scenario.Option{scenario.WithTRR(4, 300), scenario.WithManySided(8)}},
		{"ECC SEC-DED", "double-sided", "single-bit table faults corrected on read",
			[]scenario.Option{scenario.WithECC()}},
	}
	camp := scenario.Campaign{Name: "E13"}
	for si, row := range rows {
		spec := scenario.New(scenario.WithProfile(scenario.ProfileFast),
			scenario.WithSeed(stats.DeriveSeed(seed, label(13, uint64(si)))),
			scenario.WithTrials(trials), scenario.WithLabel(row.name)).With(row.opts...)
		camp.Specs = append(camp.Specs, spec)
	}
	results, err := camp.Run(context.Background(), scenario.WithTrialOptions(opts...))
	if err != nil {
		return nil, err
	}
	for ri, res := range results {
		st := res.AttackStats()
		t.AddRow(report.Str(rows[ri].name), report.Str(rows[ri].mode), f2(st.Fault.Rate()), report.Str(rows[ri].note))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d end-to-end trials per row; success = fault observed in the victim's table", trials),
		"TRR stops double-sided but not many-sided; ECC corrects the single-bit faults this attack plants")
	t.Expect(report.Expectation{
		Metric: "TRR stops double-sided hammering outright",
		Row:    1, Col: 2,
		Paper: 0.0, Tol: 0.0,
		PaperText: "neighbour refresh outruns disturbance", Source: "TRR literature",
	})
	t.Expect(report.Expectation{
		Metric: "SEC-DED ECC corrects the planted single-bit faults",
		Row:    3, Col: 2,
		Paper: 0.0, Tol: 0.1,
		PaperText: "single-bit faults corrected on read", Source: "ECC literature",
	})
	return t, nil
}

// E14PCPPolicy is the allocator ablation: the steering primitive relies on
// the page frame cache being LIFO.  Switching it to FIFO (and keeping
// everything else identical) shows how much of the attack is that one
// policy choice.
func E14PCPPolicy(seed uint64, opts ...harness.Option) (*Table, error) {
	t := &Table{
		ID:    "E14",
		Title: "ablation: page frame cache service policy (LIFO vs FIFO)",
		Claim: "extension: Section V's steering exists because the cache returns the most recently freed frame first",
		Columns: []report.Column{
			{Name: "policy"}, {Name: "victim_pages", Unit: "pages"},
			{Name: "first_page_hit", Unit: "fraction"}, {Name: "planted_reused_anywhere", Unit: "fraction"},
		},
	}
	const trials = 25

	cases := []struct {
		fifo  bool
		pages int
	}{
		{false, 1}, {false, 4}, {false, 16},
		{true, 1}, {true, 4}, {true, 16},
	}
	camp := scenario.Campaign{Name: "E14"}
	for ci, c := range cases {
		o := []scenario.Option{
			scenario.WithKind(scenario.Steering), scenario.WithTrials(trials),
			scenario.WithVictimPages(c.pages),
			scenario.WithSeed(stats.DeriveSeed(seed, label(14, uint64(ci)))),
		}
		if c.fifo {
			o = append(o, scenario.WithPCPFIFO())
		}
		camp.Specs = append(camp.Specs, scenario.New(o...))
	}
	results, err := camp.Run(context.Background(), scenario.WithTrialOptions(opts...))
	if err != nil {
		return nil, err
	}
	for ci, res := range results {
		c := cases[ci]
		policy := "LIFO (Linux)"
		if c.fifo {
			policy = "FIFO (ablated)"
		}
		st := res.SteeringStats()
		t.AddRow(
			report.Str(policy), report.Int(c.pages), f3(st.FirstPage.Rate()), f3(st.PlantedReused.Mean()),
		)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d trials per row", trials),
		"FIFO destroys first-page targeting; the frame can still surface somewhere in large requests, which is not exploitable for a 1-page table")
	t.Expect(report.Expectation{
		Metric: "LIFO cache hands the hottest frame to a 1-page victim",
		Row:    0, Col: 2,
		Paper: 1.0, Tol: 0.05,
		PaperText: "\"probability of almost 1\" under Linux's LIFO pcp", Source: "Sec. V",
	})
	return t, nil
}
