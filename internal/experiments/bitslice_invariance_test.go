package experiments

import (
	"testing"

	"explframe/internal/cipher/registry"
)

// The bitsliced batch cores must be a pure performance substitution: forcing
// every registry batch down the scalar fallback has to reproduce the
// results book byte for byte.  E10 exercises the PFA route (collector
// observations batched through trace.Victim and the scenario trial loop);
// E17 exercises the DFA route (pairs batched through dfa.CollectPairs with
// transient fault masks).  Together with the per-cipher differential
// fuzzers, this pins the whole consumer chain, not just the cores.
func TestBitsliceScalarInvariance(t *testing.T) {
	runners := runnersFor("E10", "E17")
	if testing.Short() {
		runners = runnersFor("E10")
	}
	prev := registry.SetScalarOnly(true)
	defer registry.SetScalarOnly(prev)
	for _, r := range runners {
		tb, err := r.Run(bookSeed)
		if err != nil {
			t.Fatalf("%s scalar-forced: %v", r.ID, err)
		}
		checkBook(t, tb, "scalar-only")
	}
}
