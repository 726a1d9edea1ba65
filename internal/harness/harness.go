// Package harness is the deterministic parallel trial engine behind the
// E1–E18 experiment tables, the Monte Carlo sweeps in internal/core and the
// scenario campaigns in internal/scenario.
//
// Every experiment in this repository is a loop of independent trials whose
// statistics regenerate a table from the paper's evaluation.  RunTrials runs
// that loop on a worker pool while keeping the determinism contract the
// tables depend on: trial k draws its randomness from stats.NewStream(seed,
// k), a derivation keyed purely on the root seed and the trial index — never
// on worker count, scheduling order, or what other trials did.  One seed
// therefore produces byte-identical tables at any parallelism, which is what
// makes fault-injection statistics comparable across runs and machines.
//
// Execution knobs are per-call options (WithWorkers, WithContext), so two
// concurrent callers can never perturb each other's pool size.
//
// Results come back ordered by trial index and per-trial failures are
// aggregated (first error wins for the error value; all are preserved via
// errors.Join), so callers keep simple sequential-looking aggregation code.
package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"explframe/internal/stats"
)

// Workers returns the default worker count: runtime.GOMAXPROCS(0) at call
// time.  Callers needing a specific pool size pass WithWorkers.
func Workers() int {
	return runtime.GOMAXPROCS(0)
}

// Option adjusts one RunTrials call without touching process state.
type Option func(*runOpts)

type runOpts struct {
	workers   int
	ctx       context.Context
	trialDone func(trial int)
}

// WithWorkers sets the pool size for this call only.  n <= 0 keeps the
// GOMAXPROCS default.  The trial results are identical at any worker count;
// only wall time changes.
func WithWorkers(n int) Option {
	return func(o *runOpts) {
		if n > 0 {
			o.workers = n
		}
	}
}

// WithContext makes the call cancellable: once ctx is done, no further
// trials start, already-running trials finish, and the returned error
// includes ctx.Err().  Trials that never ran carry a TrialError wrapping
// ctx.Err(), so partial aggregates cannot be mistaken for complete ones.
func WithContext(ctx context.Context) Option {
	return func(o *runOpts) {
		if ctx != nil {
			o.ctx = ctx
		}
	}
}

// WithTrialDone registers fn, invoked once per trial immediately after the
// trial returns (success or failure) with the results slice already holding
// its outcome.  Calls are serialized — never concurrent — but arrive in
// completion order, not trial order, when the pool is parallel.  This is
// the per-trial progress surface the campaign service checkpoints ride on.
func WithTrialDone(fn func(trial int)) Option {
	return func(o *runOpts) { o.trialDone = fn }
}

// TrialError wraps a failure of one trial with its index.  A trial body
// that panics fails like one that returns an error: its TrialError carries
// the recovered value in Panic and the panicking goroutine's stack in Stack,
// and the other trials run on unharmed.
type TrialError struct {
	Trial int
	Err   error
	Panic any
	Stack []byte
}

// Error implements error.
func (e *TrialError) Error() string { return fmt.Sprintf("trial %d: %v", e.Trial, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *TrialError) Unwrap() error { return e.Err }

// TrialFunc runs one trial.  rng is the trial's private deterministic
// stream; fn must draw all randomness from it (or from seeds derived from
// it) and must not share mutable state with other trials.
type TrialFunc[T any] func(trial int, rng *stats.RNG) (T, error)

// RunTrials executes n independent trials on a worker pool and returns their
// results ordered by trial index.  Trial k's rng is stats.NewStream(seed,
// k), so the result slice is a pure function of (seed, n, fn) — identical at
// any worker count.
//
// If any trial fails, the returned error joins every per-trial failure (as
// *TrialError, in trial order) and the results of failed trials are the
// zero value of T; results of successful trials are still returned.  With
// WithContext, cancellation surfaces as ctx.Err() joined into the error.
func RunTrials[T any](seed uint64, n int, fn TrialFunc[T], opts ...Option) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	o := runOpts{ctx: context.Background()}
	for _, opt := range opts {
		opt(&o)
	}
	workers := o.workers
	if workers <= 0 {
		workers = Workers()
	}
	if workers > n {
		workers = n
	}

	results := make([]T, n)
	errs := make([]error, n)

	var doneMu sync.Mutex
	run := func(i int) {
		if o.ctx.Err() != nil {
			errs[i] = o.ctx.Err()
			return
		}
		func() {
			defer func() {
				if v := recover(); v != nil {
					errs[i] = &trialPanic{value: v, stack: debug.Stack()}
				}
			}()
			results[i], errs[i] = fn(i, stats.NewStream(seed, uint64(i)))
		}()
		if o.trialDone != nil {
			doneMu.Lock()
			o.trialDone(i)
			doneMu.Unlock()
		}
	}

	if workers == 1 {
		// Serial fast path: no goroutine or scheduling overhead, same
		// derivation, so it doubles as the reference for determinism tests.
		for i := 0; i < n; i++ {
			run(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					run(i)
				}
			}()
		}
		wg.Wait()
	}
	if err := o.ctx.Err(); err != nil {
		return results, errors.Join(err, joinTrialErrors(errs))
	}
	return results, joinTrialErrors(errs)
}

// trialPanic is the error a recovered trial panic leaves behind until
// joinTrialErrors lifts it into its TrialError.
type trialPanic struct {
	value any
	stack []byte
}

func (p *trialPanic) Error() string { return fmt.Sprintf("panic: %v", p.value) }

// joinTrialErrors wraps the non-nil entries as TrialErrors in trial order.
func joinTrialErrors(errs []error) error {
	var wrapped []error
	for i, err := range errs {
		if err == nil {
			continue
		}
		te := &TrialError{Trial: i, Err: err}
		if p, ok := err.(*trialPanic); ok {
			te.Panic, te.Stack = p.value, p.stack
		}
		wrapped = append(wrapped, te)
	}
	return errors.Join(wrapped...)
}

// Proportion runs n Bernoulli trials and folds the outcomes into a
// stats.Proportion, the aggregation most experiment tables need.
func Proportion(seed uint64, n int, fn func(trial int, rng *stats.RNG) (bool, error), opts ...Option) (stats.Proportion, error) {
	var p stats.Proportion
	oks, err := RunTrials(seed, n, fn, opts...)
	if err != nil {
		return p, err
	}
	for _, ok := range oks {
		p.Observe(ok)
	}
	return p, nil
}
