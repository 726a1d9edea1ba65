package scenario

import (
	"fmt"

	"explframe/internal/report"
	"explframe/internal/stats"
)

// CampaignTable renders one row per scenario with the kind-appropriate
// headline success metric and the figures behind it — the one table
// `explframe sweep` prints, `explframe run` prints for every spec but a
// single attack trial, and the service persists into the report store when
// a campaign completes.  Nil results (failed specs) are skipped.  Because
// every cell is computed from the deterministic per-trial outcomes, the
// rendered table is byte-identical however the campaign was executed —
// one shot, any worker count, or resumed from a checkpoint.
func CampaignTable(name string, results []*Result) *report.Table {
	t := &report.Table{
		ID:    "campaign",
		Title: fmt.Sprintf("campaign %s: headline success per scenario", name),
		Claim: "declarative scenario grid executed through internal/scenario",
		Columns: []report.Column{
			{Name: "scenario"}, {Name: "kind"}, {Name: "trials"},
			{Name: "success", Unit: "fraction"}, {Name: "detail"},
		},
	}
	for _, res := range results {
		if res == nil {
			continue
		}
		spec := res.Spec
		var rate float64
		var detail string
		switch spec.Kind {
		case Attack:
			st := res.AttackStats()
			rate = st.Key.Rate()
			detail = fmt.Sprintf("site %.2f steer %.2f fault %.2f", st.Site.Rate(), st.Steer.Rate(), st.Fault.Rate()) +
				p50(", ciphertexts p50", &st.Ciphertexts)
		case Steering:
			st := res.SteeringStats()
			rate = st.FirstPage.Rate()
			detail = fmt.Sprintf("planted reused mean %.2f", st.PlantedReused.Mean())
		case Baseline:
			st := res.BaselineStats()
			rate = st.Corrupted.Rate()
			detail = fmt.Sprintf("neighbours owned %d/%d", st.NeighboursOwned, st.Corrupted.Trials)
		case PFA:
			st := res.PFAStats()
			rate = st.MasterOK.Rate()
			detail = fmt.Sprintf("last-round recovered %.2f", st.Recovered.Rate()) + p50(", ciphertexts p50", &st.Ciphertexts)
		case DFA:
			st := res.DFAStats()
			rate = st.MasterOK.Rate()
			detail = fmt.Sprintf("unique key %.2f", st.Recovered.Rate()) + p50(", pairs p50", &st.Pairs) +
				fmt.Sprintf(", keyspace mean %.1f bits", st.KeySpaceBits.Mean())
		case CacheProbe:
			st := res.CacheProbeStats()
			rate = st.FullKey.Rate()
			detail = fmt.Sprintf("nibbles mean %.1f, leaked mean %.1f B", st.Nibbles.Mean(), st.BytesLeaked.Mean())
			if st.BitErrorRate.N() > 0 {
				detail += fmt.Sprintf(", bit errors mean %.3f", st.BitErrorRate.Mean())
			}
		}
		t.AddRow(report.Str(spec.Title()), report.Str(string(spec.Kind)),
			report.Int(spec.Trials), report.Float(rate, 3), report.Str(detail))
	}
	return t
}

// p50 renders the median of a per-success cost as a detail fragment, or
// nothing when no trial succeeded.
func p50(label string, s *stats.Summary) string {
	if s.N() == 0 {
		return ""
	}
	return fmt.Sprintf("%s %.0f", label, s.Quantile(0.5))
}
