package core

import (
	"explframe/internal/harness"
	"explframe/internal/stats"
)

// This file provides the parallel Monte Carlo sweep over steering-only
// trials (full attacks and baselines run as scenario specs).  The sweep
// runs on the harness worker pool with the determinism contract the
// experiment tables rely on: trial k's configuration seed is drawn from
// stats.NewStream(base.Seed, k), so the result slice is a pure function of
// the base configuration and trial count, independent of worker count and
// scheduling.  Execution knobs (worker count, cancellation) ride along as
// harness.Options and never influence the statistics.

// RunSteeringTrials executes n independent steering trials derived from
// base, re-seeding each copy from its trial stream.
func RunSteeringTrials(base SteeringConfig, n int, opts ...harness.Option) ([]*SteeringResult, error) {
	return harness.RunTrials(base.Seed, n, func(_ int, rng *stats.RNG) (*SteeringResult, error) {
		cfg := base
		cfg.Seed = rng.Uint64()
		return RunSteeringTrial(cfg)
	}, opts...)
}
