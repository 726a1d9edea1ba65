package experiments

import (
	"context"
	"fmt"

	"explframe/internal/fault/dfa"
	"explframe/internal/harness"
	"explframe/internal/report"
	"explframe/internal/scenario"
	"explframe/internal/stats"
)

// e17Budgets are the correct/faulty pair budgets each ladder rung is scored
// at: a starved budget that exposes the precision ordering as surviving
// key-space bits, and a generous one that shows every rung still converging
// to the full key.
var e17Budgets = []int{4, 40}

// E17DFALadder walks the precise-to-random fault-model ladder of every
// registered DFA analyzer: for each cipher and each rung, DFA-kind
// scenarios collect correct/faulty pairs under the declarative fault model
// and re-analyse after every pair, reporting how much last-round-key space
// survives a starved pair budget and how many pairs a generous budget needs
// for full recovery.  This is the DFA side of the paper's comparison
// (Section VII): a transient-fault attack that keeps its data complexity
// tiny only while the fault stays precisely placed and precisely timed —
// the control Rowhammer does not offer — whereas the persistent route (E15)
// asks only for one bit flipped anywhere in the S-box table.
func E17DFALadder(seed uint64, opts ...harness.Option) (*Table, error) {
	t := &Table{
		ID:    "E17",
		Title: "DFA fault-model ladder (precision vs surviving key space, per registered analyzer)",
		Claim: "Sec VII: DFA's few-ciphertext advantage exists only under precise fault control; as the model degrades toward random, budgets stretch or key space survives",
		Columns: []report.Column{
			{Name: "cipher"}, {Name: "fault_model"}, {Name: "budget", Unit: "pairs"},
			{Name: "recovered_frac", Unit: "fraction"}, {Name: "master_ok_frac", Unit: "fraction"},
			{Name: "pairs_p50", Unit: "pairs"}, {Name: "keyspace_bits", Unit: "bits"},
		},
	}
	const trials = 6

	// Row order and seed derivation key on (cipher, model, budget) names, not
	// slice indices: adding a rung or a budget must not re-randomize the
	// existing rows' trial streams (the E15 convention).
	type rowKey struct {
		cipher, model string
		budget        int
	}
	var keys []rowKey
	camp := scenario.Campaign{Name: "E17"}
	for _, name := range dfa.Names() {
		a := dfa.MustGet(name)
		for _, m := range a.Ladder() {
			for _, budget := range e17Budgets {
				keys = append(keys, rowKey{name, m.Name(), budget})
				camp.Specs = append(camp.Specs, scenario.New(
					scenario.WithCipher(name), scenario.WithFaultModel(m),
					scenario.WithBudget(budget), scenario.WithTrials(trials),
					scenario.WithSeed(stats.DeriveSeed(stats.DeriveSeed(seed, label(17, 0)),
						stats.FNV64(fmt.Sprintf("%s/%s/b%d", name, m.Name(), budget))))))
			}
		}
	}
	results, err := camp.Run(context.Background(), scenario.WithTrialOptions(opts...))
	if err != nil {
		return nil, err
	}

	for i, res := range results {
		k := keys[i]
		st := res.DFAStats()
		p50 := report.Dash()
		if st.Pairs.N() > 0 {
			p50 = report.Float(st.Pairs.Quantile(0.5), 0)
		}
		ri := len(t.Rows)
		t.AddRow(
			report.Str(k.cipher),
			report.Str(k.model),
			report.Int(k.budget),
			f2(st.Recovered.Rate()),
			f2(st.MasterOK.Rate()),
			p50,
			report.Float(st.KeySpaceBits.Mean(), 1),
		)
		// Every rung of every ladder must reach the full master key once the
		// pair budget is generous — the ladder degrades cost, not soundness.
		if k.budget == 40 {
			t.Expect(report.Expectation{
				Metric: fmt.Sprintf("%s/%s: generous budget recovers the master key", k.cipher, k.model),
				Row:    ri, Col: 4,
				Paper: 1.0, Tol: 0.05,
				PaperText: "systematic DFA recovers the key under every rung", Source: "PAPERS.md (LILLIPUT DFA ladder)",
			})
		}
	}
	// The classical anchor: Piret–Quisquater needs ~8 random-column faults
	// (two per MixColumns column) for AES-128.
	for ri, row := range t.Rows {
		if row[0].Text == "aes-128" && row[1].Text == "precise-byte@any" && row[2].Text == "40" && row[5].Numeric() {
			t.Expect(report.Expectation{
				Metric: "aes-128/precise-byte: median pairs to unique key",
				Row:    ri, Col: 5,
				Paper: 8, Tol: 6,
				PaperText: "~2 faulty ciphertexts per column (8 total)", Source: "Piret-Quisquater CHES 2003",
			})
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d trials per row; each trial re-analyses after every collected pair and stops at a unique key", trials),
		"keyspace_bits is log2 of the surviving last-round-key space when the trial stops (0 = unique)",
		"on aes-128 the starved-budget key space grows down the ladder: a vaguer model admits more fault hypotheses per pair",
		"on lilliput-80 data complexity is not monotone in precision: wider faults constrain more nibbles per pair, so the vague rungs converge in fewer pairs — what degrades down the ladder is fault placement, not data",
		"AES rows keep Piret-Quisquater semantics (no residual-space enumeration); LILLIPUT rows finish spaces of <=16 candidates by enumeration against a known plaintext")
	return t, nil
}
