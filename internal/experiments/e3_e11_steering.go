package experiments

import (
	"context"
	"fmt"

	"explframe/internal/harness"
	"explframe/internal/report"
	"explframe/internal/scenario"
	"explframe/internal/stats"
)

// E3Steering sweeps the steering success rate over victim request size,
// noise level and CPU placement — the heart of Section V.
func E3Steering(seed uint64, opts ...harness.Option) (*Table, error) {
	t := &Table{
		ID:    "E3",
		Title: "attacker→victim frame steering success rate",
		Claim: "Sec. V: \"the page frame that was unmapped by the adversarial process gets allocated to the victim process\" (same CPU, small request)",
		Columns: []report.Column{
			{Name: "victim_pages", Unit: "pages"}, {Name: "noise_ops", Unit: "ops"},
			{Name: "cpus"}, {Name: "success", Unit: "fraction"}, {Name: "ci95"},
		},
	}
	const trials = 40

	type case_ struct {
		pages    int
		noiseOps int
		cross    bool
	}
	cases := []case_{
		{1, 0, false}, {4, 0, false}, {16, 0, false}, {64, 0, false},
		{4, 50, false}, {4, 150, false}, {4, 400, false},
		{4, 0, true}, {16, 150, true},
	}
	camp := scenario.Campaign{Name: "E3"}
	for ci, c := range cases {
		o := []scenario.Option{
			scenario.WithKind(scenario.Steering), scenario.WithTrials(trials),
			scenario.WithVictimPages(c.pages),
			scenario.WithSeed(stats.DeriveSeed(seed, label(3, uint64(ci)))),
		}
		if c.noiseOps > 0 {
			o = append(o, scenario.WithNoise(2, c.noiseOps))
		}
		if c.cross {
			o = append(o, scenario.WithCrossCPU())
		}
		camp.Specs = append(camp.Specs, scenario.New(o...))
	}
	results, err := camp.Run(context.Background(), scenario.WithTrialOptions(opts...))
	if err != nil {
		return nil, err
	}
	for ci, res := range results {
		c := cases[ci]
		cpus := "same"
		if c.cross {
			cpus = "cross"
		}
		p := res.SteeringStats().FirstPage
		lo, hi := p.WilsonCI(1.96)
		t.AddRow(
			report.Int(c.pages), report.Int(c.noiseOps), report.Str(cpus),
			f3(p.Rate()), report.Strf("[%.3f,%.3f]", lo, hi),
		)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d trials per row; success = victim's first-touched page received the hottest released frame", trials),
		"same-CPU/quiet steering is near deterministic; noise and cross-CPU placement defeat it")
	t.Expect(report.Expectation{
		Metric: "steering success, quiet same-CPU, 1-page victim",
		Row:    0, Col: 3,
		Paper: 0.95, Tol: 0.05,
		PaperText: ">95% success for the attack page", Source: "Sec. VII",
	})
	t.Expect(report.Expectation{
		Metric: "steering success, cross-CPU victim",
		Row:    7, Col: 3,
		Paper: 0.0, Tol: 0.05,
		PaperText: "defeated: per-CPU cache is not shared", Source: "Sec. V",
	})
	return t, nil
}

// E11ActiveWait isolates Section V's requirement that the attacker "must
// remain active rather than going into inactive state (sleeping)" — four
// declarative steering scenarios run as one campaign.
func E11ActiveWait(seed uint64, opts ...harness.Option) (*Table, error) {
	t := &Table{
		ID:    "E11",
		Title: "steering success: active vs sleeping attacker",
		Claim: "Sec. V: \"the adversarial process must remain active ... since in that case the entire process state information including page frame cache will be swapped out\"",
		Columns: []report.Column{
			{Name: "attacker_state"}, {Name: "cpu_company"},
			{Name: "drain_on_idle"}, {Name: "success", Unit: "fraction"},
		},
	}
	const trials = 40

	cases := []struct {
		sleeps  bool
		company bool
		drain   bool
	}{
		{false, false, true},
		{true, false, true},
		{true, true, true},
		{true, false, false},
	}
	camp := scenario.Campaign{Name: "E11"}
	for ci, c := range cases {
		spec := scenario.New(scenario.WithKind(scenario.Steering), scenario.WithTrials(trials),
			scenario.WithSeed(stats.DeriveSeed(seed, label(11, uint64(ci)))))
		if c.sleeps {
			spec = spec.With(scenario.WithSleepingAttacker())
		}
		// A busy peer process keeps the CPU from idling, which is equivalent
		// (from the allocator's point of view) to disabling the idle drain
		// while the attacker itself sleeps.
		if c.company || !c.drain {
			spec = spec.With(scenario.WithNoIdleDrain())
		}
		camp.Specs = append(camp.Specs, spec)
	}
	results, err := camp.Run(context.Background(), scenario.WithTrialOptions(opts...))
	if err != nil {
		return nil, err
	}
	for ci, res := range results {
		c := cases[ci]
		state := "active"
		if c.sleeps {
			state = "sleeping"
		}
		company := "alone"
		if c.company {
			company = "busy peer"
		}
		st := res.SteeringStats()
		t.AddRow(report.Str(state), report.Str(company), report.Strf("%v", c.drain), f3(st.FirstPage.Rate()))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d trials per row", trials),
		"a sleeping attacker only survives if another runnable process keeps the CPU from idling (or drain-on-idle is off)")
	t.Expect(report.Expectation{
		Metric: "steering success with an active attacker",
		Row:    0, Col: 3,
		Paper: 1.0, Tol: 0.05,
		PaperText: "the attack requires an active adversary", Source: "Sec. V",
	})
	t.Expect(report.Expectation{
		Metric: "steering success once the attacker sleeps (cache drained)",
		Row:    1, Col: 3,
		Paper: 0.0, Tol: 0.05,
		PaperText: "\"page frame cache will be swapped out\"", Source: "Sec. V",
	})
	return t, nil
}
