package experiments

import (
	"fmt"
	"slices"
	"testing"

	"explframe/internal/harness"
)

// runnersFor returns All()'s runners for ids, in All() order.
func runnersFor(ids ...string) []Runner {
	var out []Runner
	for _, r := range All() {
		if slices.Contains(ids, r.ID) {
			out = append(out, r)
		}
	}
	return out
}

// One seed must produce byte-identical tables no matter how many workers
// the harness runs — the determinism contract that makes the regenerated
// fault statistics comparable across machines and the results book
// machine-independent.  Each run is compared with the book, which
// TestGoldenTables holds to GOMAXPROCS workers, so by transitivity every
// worker count is compared with every other.  The experiments cover the
// trial kinds the harness drives: allocator self-reuse (E2), steering
// sweeps (E14), crypto-only PFA trials (E10) and the registry-wide PFA
// campaign (E15), whose faulty encryptions batch through the bitsliced
// cores in 64-lane chunks.  Worker counts are per-call options, so this
// test mutates no process state.
func TestTablesWorkerCountInvariant(t *testing.T) {
	runners := runnersFor("E2", "E10", "E14", "E15")
	if testing.Short() {
		runners = runnersFor("E10")
	}
	for _, r := range runners {
		for _, workers := range []int{1, 4} {
			tb, err := r.Run(bookSeed, harness.WithWorkers(workers))
			if err != nil {
				t.Fatalf("%s at %d workers: %v", r.ID, workers, err)
			}
			checkBook(t, tb, fmt.Sprintf("%d workers", workers))
		}
	}
}

// The heavyweight campaign-backed experiments must also be worker-invariant:
// E6 runs full attack pipelines through the scenario campaign layer, E16
// does the same across every built-in machine profile, E17 drives the DFA
// fault-model ladder over every analyzer (its trials collect a whole pair
// budget in one batched dfa.CollectPairs call), and E18 runs the
// cache-probe technique grid over both machine mappers.  One worker is the
// harness's serial path; the book holds the GOMAXPROCS result.
func TestAttackTableWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full end-to-end sweep")
	}
	for _, r := range runnersFor("E6", "E16", "E17", "E18") {
		tb, err := r.Run(bookSeed, harness.WithWorkers(1))
		if err != nil {
			t.Fatalf("%s at 1 worker: %v", r.ID, err)
		}
		checkBook(t, tb, "1 worker")
	}
}
