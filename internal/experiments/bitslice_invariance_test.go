package experiments

import (
	"testing"

	"explframe/internal/cipher/registry"
	"explframe/internal/harness"
)

// The bitsliced batch cores must be a pure performance substitution: forcing
// every registry batch down the scalar fallback has to reproduce
// byte-identical experiment tables.  E10 exercises the PFA route (collector
// observations batched through trace.Victim and the scenario trial loop);
// E17 exercises the DFA route (pairs batched through dfa.CollectPairs with
// transient fault masks).  Together with the per-cipher differential
// fuzzers, this pins the whole consumer chain, not just the cores.
func TestBitsliceScalarInvariance(t *testing.T) {
	runners := map[string]func(uint64, ...harness.Option) (*Table, error){
		"E10": E10PFAPresent,
		"E17": E17DFALadder,
	}
	if testing.Short() {
		delete(runners, "E17")
	}
	for name, run := range runners {
		bitsliced, err := run(7)
		if err != nil {
			t.Fatalf("%s bitsliced: %v", name, err)
		}
		prev := registry.SetScalarOnly(true)
		scalar, err := run(7)
		registry.SetScalarOnly(prev)
		if err != nil {
			t.Fatalf("%s scalar-forced: %v", name, err)
		}
		if text(t, bitsliced) != text(t, scalar) {
			t.Fatalf("%s table differs with bitslicing disabled:\n--- bitsliced ---\n%s--- scalar ---\n%s",
				name, text(t, bitsliced), text(t, scalar))
		}
	}
}
