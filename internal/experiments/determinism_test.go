package experiments

import (
	"runtime"
	"testing"

	"explframe/internal/harness"
)

// One seed must produce byte-identical rendered tables no matter how many
// workers the harness runs — the determinism contract that makes the
// regenerated fault statistics comparable across machines and runs (and
// that makes the golden tables under testdata/golden machine-independent).
// The experiments chosen here cover the trial kinds the harness drives:
// allocator self-reuse (E2), steering sweeps (E14), crypto-only PFA trials
// (E10) and the registry-wide PFA campaign (E15).  The PFA trials batch
// their faulty encryptions through the bitsliced cores in 64-lane chunks,
// so this also pins the batched trial execution to one canonical stream
// regardless of how trials land on workers.  Worker counts are per-call
// options, so this test mutates no process state and cannot perturb (or be
// perturbed by) tests running in parallel.
func TestTablesWorkerCountInvariant(t *testing.T) {
	runners := map[string]func(uint64, ...harness.Option) (*Table, error){
		"E2":  E2SelfReuse,
		"E10": E10PFAPresent,
		"E14": E14PCPPolicy,
		"E15": E15PFAAllCiphers,
	}
	if testing.Short() {
		runners = map[string]func(uint64, ...harness.Option) (*Table, error){"E10": E10PFAPresent}
	}
	workerCounts := []int{1, 4, runtime.NumCPU()}
	for name, run := range runners {
		var ref string
		for _, workers := range workerCounts {
			tb, err := run(7, harness.WithWorkers(workers))
			if err != nil {
				t.Fatalf("%s at %d workers: %v", name, workers, err)
			}
			out := text(t, tb)
			if ref == "" {
				ref = out
				continue
			}
			if out != ref {
				t.Fatalf("%s table diverges at %d workers:\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
					name, workers, ref, workers, out)
			}
		}
	}
}

// The heavyweight campaign-backed experiments must also be worker-invariant:
// E6 runs full attack pipelines through the scenario campaign layer, E16
// does the same across every registered machine profile, and E17 drives the
// DFA fault-model ladder over every registered analyzer (its trials collect
// a whole pair budget in one batched dfa.CollectPairs call), and E18 runs
// the cache-probe technique grid over both machine mappers.  E16's, E17's
// and E18's trial streams key on the machine/cipher/model/technique *names*
// (via Spec hashes), so the invariance also holds against registry growth:
// a newly registered machine, analyzer, ladder rung or probe technique adds
// rows without re-randomizing the existing rows.
func TestAttackTableWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full end-to-end sweep")
	}
	for _, exp := range []struct {
		id  string
		run func(uint64, ...harness.Option) (*Table, error)
	}{
		{"E6", E6EndToEnd},
		{"E16", E16Machines},
		{"E17", E17DFALadder},
		{"E18", E18CacheProbe},
	} {
		var ref string
		for _, workers := range []int{1, runtime.NumCPU()} {
			tb, err := exp.run(3, harness.WithWorkers(workers))
			if err != nil {
				t.Fatalf("%s at %d workers: %v", exp.id, workers, err)
			}
			if ref == "" {
				ref = text(t, tb)
			} else if text(t, tb) != ref {
				t.Fatalf("%s table diverges at %d workers", exp.id, workers)
			}
		}
	}
}
