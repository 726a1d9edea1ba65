package experiments

import (
	"context"
	"fmt"

	"explframe/internal/harness"
	"explframe/internal/report"
	"explframe/internal/scenario"
	"explframe/internal/stats"
)

// E6 and E8 are scenario-shaped: each table row is one declarative
// scenario.Spec on the fast profile (the small, vulnerable module that
// keeps end-to-end trials around a second), executed through
// scenario.Campaign so the drivers share the exact pipeline cmd/explframe
// exposes to spec files.

// E6EndToEnd runs the full pipeline across scenarios and reports per-phase
// and end-to-end success rates.
func E6EndToEnd(seed uint64, opts ...harness.Option) (*Table, error) {
	t := &Table{
		ID:    "E6",
		Title: "end-to-end ExplFrame attack (template→plant→steer→re-hammer→PFA)",
		Claim: "Sec. VI: targeted Rowhammer on a single victim page without special privilege, exploited via persistent faults [12]",
		Columns: []report.Column{
			{Name: "scenario"}, {Name: "site_found", Unit: "fraction"},
			{Name: "steering", Unit: "fraction"}, {Name: "fault", Unit: "fraction"},
			{Name: "key_recovered", Unit: "fraction"}, {Name: "avg_ciphertexts", Unit: "ciphertexts"},
		},
	}
	const trials = 10

	base := scenario.New(scenario.WithProfile(scenario.ProfileFast), scenario.WithTrials(trials))
	variants := [][]scenario.Option{
		{scenario.WithLabel("baseline (same CPU, quiet)")},
		{scenario.WithLabel("noise (2 procs, 150 ops)"), scenario.WithNoise(2, 150)},
		{scenario.WithLabel("cross-CPU victim"), scenario.WithCrossCPU()},
		{scenario.WithLabel("sleeping attacker"), scenario.WithSleepingAttacker()},
	}
	camp := scenario.Campaign{Name: "E6"}
	for si, v := range variants {
		spec := base.With(v...).With(scenario.WithSeed(stats.DeriveSeed(seed, label(6, uint64(si)))))
		camp.Specs = append(camp.Specs, spec)
	}
	results, err := camp.Run(context.Background(), scenario.WithTrialOptions(opts...))
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		st := res.AttackStats()
		avg := report.Dash()
		if st.Ciphertexts.N() > 0 {
			avg = report.Float(st.Ciphertexts.Mean(), 0)
		}
		t.AddRow(
			report.Str(res.Spec.Label), f2(st.Site.Rate()), f2(st.Steer.Rate()),
			f2(st.Fault.Rate()), f2(st.Key.Rate()), avg,
		)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d trials per scenario; 8 MiB attacker buffer on a 32 MiB module, AES-128 victim", trials),
		"steering requires a shared CPU and an active attacker, matching Sections V-VI")
	t.Expect(report.Expectation{
		Metric: "baseline end-to-end key recovery (same CPU, quiet)",
		Row:    0, Col: 4,
		Paper: 0.95, Tol: 0.05,
		PaperText: ">95% success steering the attack page", Source: "Sec. VII",
	})
	t.Expect(report.Expectation{
		Metric: "cross-CPU victim defeats the attack",
		Row:    2, Col: 4,
		Paper: 0.0, Tol: 0.0,
		PaperText: "per-CPU page frame cache is not shared", Source: "Sec. V",
	})
	t.Expect(report.Expectation{
		Metric: "ciphertexts for PFA key recovery (baseline scenario)",
		Row:    0, Col: 5,
		Paper: 2000, Tol: 600,
		PaperText: "~2000 faulty ciphertexts for AES", Source: "[12] TCHES 2018",
	})
	return t, nil
}

// E8Baselines compares ExplFrame against the prior-work models: blind
// spraying and pagemap-assisted targeting (Section VI's motivation).
func E8Baselines(seed uint64, opts ...harness.Option) (*Table, error) {
	t := &Table{
		ID:    "E8",
		Title: "attack model comparison: spray vs pagemap vs ExplFrame",
		Claim: "Sec. VI: prior attacks either target a large address space or need pagemap (CAP_SYS_ADMIN); ExplFrame targets a single page unprivileged",
		Columns: []report.Column{
			{Name: "attack"}, {Name: "privilege"},
			{Name: "fault_in_table", Unit: "fraction"}, {Name: "notes"},
		},
	}
	const trials = 12

	// All three rows share one base seed: trial k of every attack model then
	// draws the same per-trial stream, hence the same machine and weak-cell
	// layout — a paired comparison of the attacks, not of the layouts.
	base := scenario.New(scenario.WithProfile(scenario.ProfileFast),
		scenario.WithSeed(stats.DeriveSeed(seed, label(8, 0))), scenario.WithTrials(trials))
	camp := scenario.Campaign{Name: "E8", Specs: []scenario.Spec{
		base.With(scenario.WithBaseline("random-spray")),
		base.With(scenario.WithBaseline("pagemap-targeted")),
		base.With(scenario.WithLabel("ExplFrame")),
	}}
	results, err := camp.Run(context.Background(), scenario.WithTrialOptions(opts...))
	if err != nil {
		return nil, err
	}

	for _, res := range results[:2] {
		st := res.BaselineStats()
		t.AddRow(
			report.Str(res.Spec.BaselineModel), report.Str(res.Baseline[0].RequiredPrivilege), f2(st.Corrupted.Rate()),
			report.Strf("owned neighbour rows in %d/%d trials", st.NeighboursOwned, trials),
		)
	}

	// ExplFrame, success criterion aligned with the baselines (fault
	// reaches the victim table).
	st := results[2].AttackStats()
	t.AddRow(
		report.Str("ExplFrame"), report.Str("none"), f2(st.Fault.Rate()),
		report.Str("templating + page frame cache steering"),
	)
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d trials per attack; success = a fault lands in the victim's S-box table", trials),
		"spray/pagemap depend on the victim frame happening to hold a usable weak cell; ExplFrame chooses the frame")
	t.Expect(report.Expectation{
		Metric: "untargeted spraying rarely faults the one victim page",
		Row:    0, Col: 2,
		Paper: 0.0, Tol: 0.1,
		PaperText: "prior attacks target \"a large address space\"", Source: "Sec. VI",
	})
	t.Expect(report.Expectation{
		Metric: "ExplFrame faults the chosen page without privilege",
		Row:    2, Col: 2,
		Paper: 0.95, Tol: 0.05,
		PaperText: ">95% attack-page success", Source: "Sec. VII",
	})
	return t, nil
}
