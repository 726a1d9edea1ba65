// Package experiments contains one driver per experiment in the
// reconstructed evaluation (E1–E18).  Each driver returns a typed
// report.Table (cells carry kinds and numeric values, columns carry units,
// expectations carry the paper's reported numbers) that cmd/report renders,
// as the results book or with -format, and the root BenchmarkTable times,
// so the paper's tables and figures regenerate from a single code path; the
// table tests pin every table at seed 1 to its entry in the results book
// (docs/results.json).
package experiments

import (
	"explframe/internal/harness"
	"explframe/internal/report"
)

// Table is the typed experiment table; drivers build it with report's cell
// constructors and annotate it with paper expectations.
type Table = report.Table

// Runner is one experiment entry point.  Drivers accept execution options
// (harness.WithWorkers, harness.WithContext) and forward them to every
// trial pool they spin up; the options never influence the statistics, so
// one seed renders one table at any parallelism.
type Runner struct {
	ID   string
	Name string
	Run  func(seed uint64, opts ...harness.Option) (*Table, error)
}

// All returns every experiment in order.
func All() []Runner {
	return []Runner{
		{"E1", "buddy allocator behaviour", E1Buddy},
		{"E2", "page frame cache self-reuse", E2SelfReuse},
		{"E3", "attacker-to-victim steering", E3Steering},
		{"E4", "rowhammer flip onset", E4HammerOnset},
		{"E5", "flip reproducibility", E5Reproducibility},
		{"E6", "end-to-end attack", E6EndToEnd},
		{"E7", "PFA on AES-128", E7PFAAES},
		{"E8", "baseline comparison", E8Baselines},
		{"E9", "DFA vs PFA", E9DFAvsPFA},
		{"E10", "PFA on PRESENT-80", E10PFAPresent},
		{"E11", "active vs sleeping attacker", E11ActiveWait},
		{"E12", "zone fallback under pressure", E12Zones},
		{"E13", "defences: TRR, many-sided, ECC", E13Defences},
		{"E14", "ablation: pcp LIFO vs FIFO", E14PCPPolicy},
		{"E15", "PFA across the cipher registry", E15PFAAllCiphers},
		{"E16", "attack vs machine profile", E16Machines},
		{"E17", "DFA fault-model ladder", E17DFALadder},
		{"E18", "cache-probe techniques", E18CacheProbe},
	}
}

// f2 builds a two-decimal float cell, f3 a three-decimal one.
func f2(v float64) report.Cell { return report.Float(v, 2) }
func f3(v float64) report.Cell { return report.Float(v, 3) }

// label namespaces a stats.DeriveSeed label to one experiment: every
// experiment derives its sub-seeds as DeriveSeed(seed, label(exp, i)), so
// two experiments sharing a root seed can never share per-trial RNG streams
// (E6's baseline scenario must not re-run E13's "no defence" trials).
func label(exp, i uint64) uint64 { return exp<<16 | i }
