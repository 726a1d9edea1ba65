package scenario

import (
	"testing"

	"explframe/internal/core"
)

// CampaignTable's detail cell carries each kind's cost figures: the median
// ciphertexts or pairs of the successful trials, DFA's unique-key rate and
// the page-cache channel's bit-error rate.  A figure with no observation
// (no success, a line-granular probe) is left out rather than printed as 0.
func TestCampaignTableDetail(t *testing.T) {
	done := func(cts int) *core.Report {
		return &core.Report{Phase: core.PhaseDone, KeyRecovered: true, SiteFound: true, SteeringHit: true,
			FaultInjected: true, CiphertextsUsed: cts}
	}
	spec := func(kind Kind) Spec { s := New(WithLabel("s")); s.Kind = kind; return s }
	for _, tc := range []struct {
		name string
		res  *Result
		want string
	}{
		{"attack", &Result{Spec: spec(Attack), Attack: []*core.Report{done(900), done(300), {Phase: core.PhaseAnalyse}}},
			"site 0.67 steer 0.67 fault 0.67, ciphertexts p50 300"},
		{"attack without a key", &Result{Spec: spec(Attack), Attack: []*core.Report{{Phase: core.PhaseTemplate}}},
			"site 0.00 steer 0.00 fault 0.00"},
		{"pfa", &Result{Spec: spec(PFA), PFA: []PFATrial{{RecoveredAt: 700, MasterOK: true},
			{RecoveredAt: 500, MasterOK: true}, {RecoveredAt: 900}}},
			"last-round recovered 1.00, ciphertexts p50 700"},
		{"pfa without a recovery", &Result{Spec: spec(PFA), PFA: []PFATrial{{}}},
			"last-round recovered 0.00"},
		{"dfa", &Result{Spec: spec(DFA), DFA: []DFATrial{{RecoveredAt: 24, MasterOK: true}, {KeySpaceBits: 8}}},
			"unique key 0.50, pairs p50 24, keyspace mean 4.0 bits"},
		{"dfa without a recovery", &Result{Spec: spec(DFA), DFA: []DFATrial{{KeySpaceBits: 3}}},
			"unique key 0.00, keyspace mean 3.0 bits"},
		{"page-cache probe", &Result{Spec: spec(CacheProbe), CacheProbe: []CacheProbeTrial{
			{Nibbles: 1, NibbleTotal: 16, BytesLeaked: 10, Measurements: 200, BitErrors: 10},
			{Nibbles: 3, NibbleTotal: 16, BytesLeaked: 20, Measurements: 200, BitErrors: 30}}},
			"nibbles mean 2.0, leaked mean 15.0 B, bit errors mean 0.100"},
		{"line probe", &Result{Spec: spec(CacheProbe), CacheProbe: []CacheProbeTrial{
			{Nibbles: 16, NibbleTotal: 16, BytesLeaked: 8, Measurements: 200, EvictionSets: 4}}},
			"nibbles mean 16.0, leaked mean 8.0 B"},
	} {
		tab := CampaignTable("c", []*Result{tc.res})
		if got := tab.Rows[0][4].Text; got != tc.want {
			t.Errorf("%s: detail %q, want %q", tc.name, got, tc.want)
		}
	}
}
