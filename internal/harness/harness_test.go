package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"explframe/internal/stats"
)

// Results must come back ordered by trial index at any worker count, and
// must be identical across worker counts (the determinism contract).
func TestRunTrialsOrderedAndWorkerInvariant(t *testing.T) {
	const seed, n = 99, 64
	fn := func(trial int, rng *stats.RNG) ([2]uint64, error) {
		return [2]uint64{uint64(trial), rng.Uint64()}, nil
	}
	ref, err := RunTrials(seed, n, fn, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ref {
		if r[0] != uint64(i) {
			t.Fatalf("result %d carries trial id %d", i, r[0])
		}
		if want := stats.NewStream(seed, uint64(i)).Uint64(); r[1] != want {
			t.Fatalf("trial %d rng not NewStream(seed, %d)", i, i)
		}
	}
	for _, workers := range []int{2, 4, 7, runtime.NumCPU() + 3} {
		got, err := RunTrials(seed, n, fn, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d diverged at trial %d: %v != %v", workers, i, got[i], ref[i])
			}
		}
	}
}

// Failed trials must be reported with their index, joined in trial order,
// while successful trials still return their results.
func TestRunTrialsErrorAggregation(t *testing.T) {
	boom := errors.New("boom")
	res, err := RunTrials(1, 10, func(trial int, _ *stats.RNG) (int, error) {
		if trial%3 == 0 {
			return 0, fmt.Errorf("t%d: %w", trial, boom)
		}
		return trial * 10, nil
	}, WithWorkers(4))
	if err == nil {
		t.Fatal("expected aggregated error")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("joined error lost the cause: %v", err)
	}
	var te *TrialError
	if !errors.As(err, &te) || te.Trial != 0 {
		t.Fatalf("first wrapped error should be trial 0, got %+v", te)
	}
	for i, v := range res {
		if i%3 == 0 && v != 0 {
			t.Fatalf("failed trial %d returned %d", i, v)
		}
		if i%3 != 0 && v != i*10 {
			t.Fatalf("trial %d result %d", i, v)
		}
	}
}

// A panicking trial body fails only its own trial: its TrialError names the
// index and carries the panic value and stack, every other trial keeps its
// result, and WithTrialDone still fires once per trial.
func TestRunTrialsRecoversPanic(t *testing.T) {
	const n, bad = 12, 5
	for _, workers := range []int{1, 4} {
		var done [n]atomic.Int64
		res, err := RunTrials(3, n, func(trial int, rng *stats.RNG) (uint64, error) {
			if trial == bad {
				panic("bad trial")
			}
			return rng.Uint64(), nil
		}, WithWorkers(workers), WithTrialDone(func(trial int) { done[trial].Add(1) }))

		var te *TrialError
		if !errors.As(err, &te) {
			t.Fatalf("workers=%d: error %v carries no TrialError", workers, err)
		}
		if te.Trial != bad || te.Panic != "bad trial" || !strings.Contains(err.Error(), "trial 5: panic: bad trial") {
			t.Fatalf("workers=%d: TrialError %+v (%v) does not name the panicking trial", workers, te, err)
		}
		if !strings.Contains(string(te.Stack), "TestRunTrialsRecoversPanic") {
			t.Fatalf("workers=%d: stack does not reach the trial body:\n%s", workers, te.Stack)
		}
		for i, v := range res {
			want := stats.NewStream(3, uint64(i)).Uint64()
			if i == bad {
				want = 0
			}
			if v != want {
				t.Fatalf("workers=%d: trial %d result %d, want %d", workers, i, v, want)
			}
			if c := done[i].Load(); c != 1 {
				t.Fatalf("workers=%d: trial %d reported done %d times", workers, i, c)
			}
		}
	}
}

// Every trial must run exactly once, even with more workers than trials.
func TestRunTrialsEachTrialOnce(t *testing.T) {
	const n = 37
	var counts [n]atomic.Int64
	_, err := RunTrials(5, n, func(trial int, _ *stats.RNG) (struct{}, error) {
		counts[trial].Add(1)
		return struct{}{}, nil
	}, WithWorkers(64))
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("trial %d ran %d times", i, c)
		}
	}
}

// Zero and negative trial counts are no-ops.
func TestRunTrialsEmpty(t *testing.T) {
	res, err := RunTrials(1, 0, func(int, *stats.RNG) (int, error) { return 0, nil })
	if err != nil || res != nil {
		t.Fatalf("n=0: %v %v", res, err)
	}
	res, err = RunTrials(1, -3, func(int, *stats.RNG) (int, error) { return 0, nil })
	if err != nil || res != nil {
		t.Fatalf("n<0: %v %v", res, err)
	}
}

// A cancelled context must stop the dispatch promptly: the returned error
// carries ctx.Err(), unstarted trials carry TrialErrors wrapping it, and
// trials that did run keep their results.
func TestRunTrialsContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n = 50
	ran := 0
	res, err := RunTrials(3, n, func(trial int, _ *stats.RNG) (int, error) {
		ran++
		if trial == 4 {
			cancel()
		}
		return trial + 1, nil
	}, WithWorkers(1), WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not carry context.Canceled: %v", err)
	}
	if ran >= n {
		t.Fatalf("cancellation did not stop the dispatch (%d/%d trials ran)", ran, n)
	}
	for i := 0; i <= 4; i++ {
		if res[i] != i+1 {
			t.Fatalf("completed trial %d lost its result: %d", i, res[i])
		}
	}
	var te *TrialError
	if !errors.As(err, &te) {
		t.Fatal("unstarted trials should surface as TrialErrors")
	}
}

// A context cancelled before the call must return at once, not run anything.
func TestRunTrialsContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := RunTrials(1, 1000, func(int, *stats.RNG) (int, error) {
		time.Sleep(50 * time.Millisecond)
		return 0, nil
	}, WithWorkers(2), WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("pre-cancelled run took %v", elapsed)
	}
}

// WithWorkers must be call-local: two interleaved calls with different
// worker counts produce identical results and never read each other's size.
func TestWithWorkersIsCallLocal(t *testing.T) {
	fn := func(trial int, rng *stats.RNG) (uint64, error) { return rng.Uint64(), nil }
	a, err := RunTrials(11, 32, fn, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrials(11, 32, fn, WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trial %d diverged across call-local worker counts", i)
		}
	}
}

// Workers tracks GOMAXPROCS now that the global override is gone.
func TestWorkersTracksGOMAXPROCS(t *testing.T) {
	if Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers() = %d, want GOMAXPROCS %d", Workers(), runtime.GOMAXPROCS(0))
	}
}

// Proportion must aggregate exactly the per-trial outcomes.
func TestProportion(t *testing.T) {
	p, err := Proportion(7, 40, func(trial int, _ *stats.RNG) (bool, error) {
		return trial%4 == 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Trials != 40 || p.Successes != 10 {
		t.Fatalf("proportion = %d/%d", p.Successes, p.Trials)
	}
}

// The pool is exercised with heavy concurrent traffic so `go test -race`
// covers the result/error slices and the index counter.
func TestRunTrialsRaceStress(t *testing.T) {
	for round := 0; round < 8; round++ {
		res, err := RunTrials(uint64(round), 200,
			func(trial int, rng *stats.RNG) (uint64, error) {
				sum := uint64(0)
				for k := 0; k < 100; k++ {
					sum += rng.Uint64()
				}
				return sum, nil
			}, WithWorkers(runtime.NumCPU()*2+2))
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 200 {
			t.Fatalf("round %d: %d results", round, len(res))
		}
	}
}

// WithTrialDone must fire exactly once per trial with calls serialized
// (never concurrent), after the trial's result slot is written, on success
// and failure alike.
func TestWithTrialDone(t *testing.T) {
	const n = 60
	boom := errors.New("boom")
	var inCallback atomic.Int64
	seen := make(map[int]int)
	res, err := RunTrials(4, n, func(trial int, _ *stats.RNG) (int, error) {
		if trial%5 == 0 {
			return 0, fmt.Errorf("t%d: %w", trial, boom)
		}
		return trial * 2, nil
	}, WithWorkers(8), WithTrialDone(func(trial int) {
		if inCallback.Add(1) != 1 {
			t.Error("trial-done callbacks ran concurrently")
		}
		seen[trial]++ // map write is safe only because calls are serialized
		inCallback.Add(-1)
	}))
	if !errors.Is(err, boom) {
		t.Fatalf("expected aggregated failure, got %v", err)
	}
	if len(seen) != n {
		t.Fatalf("callback covered %d trials, want %d", len(seen), n)
	}
	for trial, count := range seen {
		if count != 1 {
			t.Fatalf("trial %d fired %d callbacks", trial, count)
		}
		if trial%5 != 0 && res[trial] != trial*2 {
			t.Fatalf("trial %d callback fired before its result landed", trial)
		}
	}
}
