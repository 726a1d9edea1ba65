package scenario

import (
	"context"
	"fmt"

	"explframe/internal/cipher/registry"
	"explframe/internal/core"
	"explframe/internal/fault/dfa"
	"explframe/internal/harness"
	"explframe/internal/stats"
)

// TrialOutcome is the serializable result of one trial of any scenario
// kind: exactly one field is non-nil, selected by the spec's Kind.  It is
// the unit of the campaign service's checkpoint journal — a journaled
// outcome substitutes byte-for-byte for recomputing the trial, because
// trial k draws only from its private stats.NewStream(seed, k) stream.
type TrialOutcome struct {
	// Attack holds an Attack-kind trial's phase-by-phase report.
	Attack *core.Report `json:"attack,omitempty"`
	// Steering holds a Steering-kind trial's plant-and-steer result.
	Steering *core.SteeringResult `json:"steering,omitempty"`
	// Baseline holds a Baseline-kind trial's prior-work result.
	Baseline *core.BaselineResult `json:"baseline,omitempty"`
	// PFA holds a PFA-kind trial's key-recovery outcome.
	PFA *PFATrial `json:"pfa,omitempty"`
	// DFA holds a DFA-kind trial's key-recovery outcome.
	DFA *DFATrial `json:"dfa,omitempty"`
	// CacheProbe holds a CacheProbe-kind trial's leakage outcome.
	CacheProbe *CacheProbeTrial `json:"cache_probe,omitempty"`
}

// Matches reports whether the outcome's populated arm agrees with kind —
// the guard a checkpoint consumer runs before substituting a journaled
// outcome for a recomputation.
func (o TrialOutcome) Matches(kind Kind) bool {
	switch kind {
	case Attack:
		return o.Attack != nil
	case Steering:
		return o.Steering != nil
	case Baseline:
		return o.Baseline != nil
	case PFA:
		return o.PFA != nil
	case DFA:
		return o.DFA != nil
	case CacheProbe:
		return o.CacheProbe != nil
	}
	return false
}

// Checkpoint maps spec hash -> trial index -> completed outcome: the
// resume state a campaign journal replays into Campaign.Run so completed
// trials are merged instead of recomputed.
type Checkpoint map[uint64]map[int]TrialOutcome

// Add records one completed trial.
func (cp Checkpoint) Add(specHash uint64, trial int, out TrialOutcome) {
	m := cp[specHash]
	if m == nil {
		m = make(map[int]TrialOutcome)
		cp[specHash] = m
	}
	m[trial] = out
}

// Trials returns the total number of checkpointed trials.
func (cp Checkpoint) Trials() int {
	n := 0
	for _, m := range cp {
		n += len(m)
	}
	return n
}

// trialRunner builds the per-trial function of spec's kind.  Every kind's
// body is the exact per-trial work the historical batch runners performed
// (config re-seeded from the trial stream, then one pipeline run), so the
// outcome of trial k is a pure function of (spec, k) — the property both
// the results book and checkpoint resume depend on.
func (s Spec) trialRunner(ctx context.Context) (func(trial int, rng *stats.RNG) (TrialOutcome, error), error) {
	switch s.Kind {
	case Attack:
		cfg, err := s.AttackConfig()
		if err != nil {
			return nil, err
		}
		return func(_ int, rng *stats.RNG) (TrialOutcome, error) {
			c := cfg
			c.Seed = rng.Uint64()
			atk, err := core.NewAttack(c)
			if err != nil {
				return TrialOutcome{}, err
			}
			rep, err := atk.RunContext(ctx)
			if err != nil {
				return TrialOutcome{}, err
			}
			return TrialOutcome{Attack: rep}, nil
		}, nil
	case Steering:
		cfg := s.SteeringConfig()
		return func(_ int, rng *stats.RNG) (TrialOutcome, error) {
			c := cfg
			c.Seed = rng.Uint64()
			res, err := core.RunSteeringTrial(c)
			if err != nil {
				return TrialOutcome{}, err
			}
			return TrialOutcome{Steering: res}, nil
		}, nil
	case Baseline:
		// A baseline runs on the attack lowering, so it is the paired
		// comparison of the attack spec with the same seed and profile.
		cfg, err := s.AttackConfig()
		if err != nil {
			return nil, err
		}
		kind := core.RandomSpray
		if s.BaselineModel == "pagemap-targeted" {
			kind = core.PagemapTargeted
		}
		return func(_ int, rng *stats.RNG) (TrialOutcome, error) {
			c := cfg
			c.Seed = rng.Uint64()
			res, err := core.RunBaselineTrial(c, kind)
			if err != nil {
				return TrialOutcome{}, err
			}
			return TrialOutcome{Baseline: res}, nil
		}, nil
	case PFA:
		c := registry.MustGet(s.cipherName())
		budget := s.pfaBudget(c)
		return func(_ int, rng *stats.RNG) (TrialOutcome, error) {
			tr, err := runPFATrial(c, budget, rng)
			if err != nil {
				return TrialOutcome{}, err
			}
			return TrialOutcome{PFA: &tr}, nil
		}, nil
	case DFA:
		c := registry.MustGet(s.cipherName())
		a := dfa.MustGet(c.Name())
		m := s.FaultModel()
		budget := s.dfaBudget()
		return func(_ int, rng *stats.RNG) (TrialOutcome, error) {
			tr, err := runDFATrial(c, a, m, budget, rng)
			if err != nil {
				return TrialOutcome{}, err
			}
			return TrialOutcome{DFA: &tr}, nil
		}, nil
	case CacheProbe:
		c := registry.MustGet(s.cipherName())
		ms, err := s.MachineSpec()
		if err != nil {
			return nil, err
		}
		g := s.cacheGeometry()
		cfg := s.probeConfig()
		return func(_ int, rng *stats.RNG) (TrialOutcome, error) {
			tr, err := runCacheProbeTrial(c, ms, g, cfg, rng)
			if err != nil {
				return TrialOutcome{}, err
			}
			return TrialOutcome{CacheProbe: &tr}, nil
		}, nil
	}
	return nil, fmt.Errorf("scenario: no trial runner for kind %q", s.Kind)
}

// foldOutcomes assembles the kind-typed Result from per-trial outcomes in
// trial order.
func foldOutcomes(spec Spec, outs []TrialOutcome) *Result {
	res := &Result{Spec: spec}
	for _, o := range outs {
		switch spec.Kind {
		case Attack:
			res.Attack = append(res.Attack, o.Attack)
		case Steering:
			res.Steering = append(res.Steering, o.Steering)
		case Baseline:
			res.Baseline = append(res.Baseline, o.Baseline)
		case PFA:
			res.PFA = append(res.PFA, *o.PFA)
		case DFA:
			res.DFA = append(res.DFA, *o.DFA)
		case CacheProbe:
			res.CacheProbe = append(res.CacheProbe, *o.CacheProbe)
		}
	}
	return res
}

// RunResumable is Run with checkpoint resume and per-trial progress: trials
// present in completed are merged into the result without recomputing (their
// rng streams are never drawn from, so the remaining trials are unaffected),
// and onTrial is invoked — serialized, in completion order — for every trial
// actually computed this call, with its outcome.  Merged trials never reach
// onTrial, so a journal fed by it records each trial exactly once across any
// number of interrupted runs.  The folded Result is byte-identical to an
// uninterrupted Run at any split, worker count or resume point.
func RunResumable(ctx context.Context, spec Spec, completed map[int]TrialOutcome, onTrial func(trial int, out TrialOutcome), opts ...harness.Option) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", spec.Title(), err)
	}
	for i, out := range completed {
		if i < 0 || i >= spec.Trials {
			return nil, fmt.Errorf("scenario %q: checkpointed trial %d out of range [0,%d)", spec.Title(), i, spec.Trials)
		}
		if !out.Matches(spec.Kind) {
			return nil, fmt.Errorf("scenario %q: checkpointed trial %d does not carry a %s outcome", spec.Title(), i, spec.Kind)
		}
	}
	run, err := spec.trialRunner(ctx)
	if err != nil {
		return nil, err
	}

	outs := make([]TrialOutcome, spec.Trials)
	computed := make([]bool, spec.Trials)
	// Copy before appending: the caller's slice may be shared across
	// parallel campaign specs, and appending into spare capacity would race.
	opts = append(append(make([]harness.Option, 0, len(opts)+2), opts...),
		harness.WithContext(ctx),
		harness.WithTrialDone(func(i int) {
			if computed[i] && onTrial != nil {
				onTrial(i, outs[i])
			}
		}))
	all, err := harness.RunTrials(spec.Seed, spec.Trials, func(i int, rng *stats.RNG) (TrialOutcome, error) {
		if out, ok := completed[i]; ok {
			return out, nil
		}
		out, err := run(i, rng)
		if err != nil {
			return TrialOutcome{}, err
		}
		outs[i] = out
		computed[i] = true
		return out, nil
	}, opts...)
	if err != nil {
		return nil, err
	}
	return foldOutcomes(spec, all), nil
}
