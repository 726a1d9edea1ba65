package experiments

import (
	"context"
	"fmt"

	"explframe/internal/harness"
	"explframe/internal/machine"
	"explframe/internal/report"
	"explframe/internal/scenario"
	"explframe/internal/stats"
)

// E16Machines runs the full AES-128 attack across every registered machine
// profile — the machine axis opened by internal/machine made measurable.
// Each row is one Attack-kind scenario.Spec whose only variation is the
// machine name, executed through scenario.Campaign, so the table proves the
// profiles are selectable end-to-end and that the hardware actually moves
// the attack statistics: activation cost to the first usable flip
// (time-to-first-fault), steering odds and end-to-end key recovery all
// shift with geometry, mapper and mitigation.
func E16Machines(seed uint64, opts ...harness.Option) (*Table, error) {
	t := &Table{
		ID:    "E16",
		Title: "attack vs machine profile (geometry, address mapper, mitigations)",
		Claim: "Sec. II/V: the attack exploits platform-specific DRAM topology and kernel allocator behaviour — machine details decide attack quality",
		Columns: []report.Column{
			{Name: "machine"}, {Name: "mapper"}, {Name: "size", Unit: "MiB"},
			{Name: "site_found", Unit: "fraction"}, {Name: "steering", Unit: "fraction"},
			{Name: "key_recovered", Unit: "fraction"},
			{Name: "acts_to_site", Unit: "kacts"}, {Name: "avg_ciphertexts", Unit: "ciphertexts"},
		},
	}
	const trials = 5

	// The per-machine seed domain keys on the machine *name*, not its index
	// in the sorted registry: registering a new machine must add a row
	// without re-randomizing the existing rows' trial streams (and their
	// numbers in the results book) — the same contract E15 makes for ciphers.
	camp := scenario.Campaign{Name: "E16"}
	for _, name := range machine.Names() {
		camp.Specs = append(camp.Specs, scenario.New(
			scenario.WithProfile(scenario.Profile(name)),
			scenario.WithTrials(trials),
			scenario.WithSeed(stats.DeriveSeed(stats.DeriveSeed(seed, label(16, 0)), stats.FNV64(name)))))
	}
	results, err := camp.Run(context.Background(), scenario.WithTrialOptions(opts...))
	if err != nil {
		return nil, err
	}

	for _, res := range results {
		name := res.Spec.MachineName()
		ms := machine.MustGet(name)
		st := res.AttackStats()
		var toSite stats.Summary
		for _, rep := range res.Attack {
			if rep.SiteFound {
				toSite.Observe(float64(rep.TemplateHammer.Activations) / 1000)
			}
		}
		acts, avg := report.Dash(), report.Dash()
		if toSite.N() > 0 {
			acts = report.Float(toSite.Mean(), 0)
		}
		if st.Ciphertexts.N() > 0 {
			avg = report.Float(st.Ciphertexts.Mean(), 0)
		}
		t.AddRow(
			report.Str(name), report.Str(ms.MapperName()),
			report.Int(int(ms.Geometry.TotalBytes()>>20)),
			f2(st.Site.Rate()), f2(st.Steer.Rate()), f2(st.Key.Rate()),
			acts, avg,
		)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d AES-128 attack trials per machine; rows keyed by machine name, so new profiles append without drifting these numbers", trials),
		"acts_to_site = hammer activations (thousands) until templating found a usable flip — the time-to-first-fault proxy",
		"trr-hardened blocks double-sided hammering outright; larger/less-vulnerable modules pay in templating activations, not steering odds")
	t.Expect(report.Expectation{
		Metric: "TRR-hardened module defeats double-sided hammering",
		Row:    rowOf(t, "trr-hardened"), Col: 5,
		Paper: 0.0, Tol: 0.0,
		PaperText: "TRR ships in post-DDR3 parts; the paper's testbed is pre-TRR DDR3", Source: "Sec. II",
	})
	t.Expect(report.Expectation{
		Metric: "vulnerable module steers the attack page",
		Row:    rowOf(t, "fast"), Col: 4,
		Paper: 0.95, Tol: 0.05,
		PaperText: ">95% success steering the attack page", Source: "Sec. VII",
	})
	return t, nil
}

// rowOf locates the table row whose first cell names the machine; table
// rows follow registry order, which future registrations may reshuffle.
func rowOf(t *Table, name string) int {
	for i, r := range t.Rows {
		if len(r) > 0 && r[0].Text == name {
			return i
		}
	}
	return -1
}
