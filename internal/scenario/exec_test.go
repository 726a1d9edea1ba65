package scenario

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"explframe/internal/core"
	"explframe/internal/dram"
	"explframe/internal/fault"
	"explframe/internal/harness"
	"explframe/internal/rowhammer"
	"explframe/internal/stats"
)

// fastAttackConfig reproduces, by hand, the ProfileFast machine exactly as
// the pre-registry lowering hardcoded it.  It exists only as the reference
// for TestAttackConfigMatchesHandMutation: if the registered "fast" profile
// ever drifts from these numbers, every end-to-end table in the results
// book drifts with it, and this fixture is what catches the change at unit
// scope.
func fastAttackConfig(seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Machine.Seed = seed
	cfg.Machine.Geometry = dram.Geometry{Banks: 4, Rows: 1024, RowBytes: 8192}
	cfg.Machine.FaultModel = dram.FaultModel{
		WeakCellDensity: 2e-4,
		BaseThreshold:   1500,
		ThresholdSpread: 0.5,
		NeighbourWeight: 0.25,
		RefreshInterval: 1 << 20,
		FlipReliability: 0.98,
	}
	cfg.Hammer = rowhammer.Config{Mode: rowhammer.DoubleSided, PairHammerCount: 3200}
	cfg.AttackerMemory = 8 << 20
	cfg.Ciphertexts = 12000
	return cfg
}

// The spec lowering must equal the hand-mutated config the drivers and the
// legacy CLI used to assemble — that equality is what kept the results
// book byte-identical across the API redesign.
func TestAttackConfigMatchesHandMutation(t *testing.T) {
	spec := New(WithProfile(ProfileFast), WithSeed(77), WithTrials(10),
		WithNoise(2, 150), WithTRR(), WithManySided(8))
	got, err := spec.AttackConfig()
	if err != nil {
		t.Fatal(err)
	}

	want := fastAttackConfig(77)
	want.NoiseProcs = 2
	want.NoiseOps = 150
	want.Machine.FaultModel.TRR = dram.TRRConfig{Enabled: true, TrackerSize: 4, Threshold: 300}
	want.Hammer.Mode = rowhammer.ManySided
	want.Hammer.Decoys = 8
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("lowered config diverged:\n got: %+v\nwant: %+v", got, want)
	}

	// The default profile must lower to core.DefaultConfig + the same
	// mutations cmd/explframe's legacy flags performed.
	spec = New(WithSeed(5), WithCrossCPU(), WithSleepingAttacker(), WithECC(), WithCiphertexts(9000))
	got, err = spec.AttackConfig()
	if err != nil {
		t.Fatal(err)
	}
	want = core.DefaultConfig()
	want.Seed = 5
	want.Machine.Seed = 5
	want.VictimCPU = 1
	want.AttackerSleeps = true
	want.Machine.FaultModel.ECC = dram.ECCSecDed
	want.Ciphertexts = 9000
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("default-profile lowering diverged:\n got: %+v\nwant: %+v", got, want)
	}
}

// Steering lowering mirrors core.DefaultSteeringConfig with the spec's
// knobs applied.
func TestSteeringConfigLowering(t *testing.T) {
	spec := New(WithKind(Steering), WithSeed(9), WithTrials(25),
		WithSleepingAttacker(), WithNoIdleDrain(), WithPCPFIFO(), WithVictimPages(16))
	got := spec.SteeringConfig()
	want := core.DefaultSteeringConfig()
	want.Seed = 9
	want.AttackerSleeps = true
	want.Machine.DrainOnIdle = false
	want.Machine.PCPFIFO = true
	want.VictimRequestPages = 16
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("steering lowering diverged:\n got: %+v\nwant: %+v", got, want)
	}
}

// A baseline runs on its spec's attack lowering: trial k equals
// core.RunBaselineTrial on AttackConfig reseeded from trial k's stream, so
// a baseline is the paired comparison of the attack spec with the same
// seed and profile.  Both processes share the attacker's CPU, so the
// cross-CPU axis leaves every outcome unchanged.
func TestBaselineRunsOnAttackLowering(t *testing.T) {
	for _, kind := range []core.BaselineKind{core.RandomSpray, core.PagemapTargeted} {
		spec := New(WithProfile(ProfileFast), WithSeed(3), WithBaseline(kind.String()), WithTrials(4))
		cfg, err := spec.AttackConfig()
		if err != nil {
			t.Fatal(err)
		}
		var want []*core.BaselineResult
		for k := 0; k < spec.Trials; k++ {
			c := cfg
			c.Seed = stats.NewStream(spec.Seed, uint64(k)).Uint64()
			res, err := core.RunBaselineTrial(c, kind)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, res)
		}
		for _, s := range []Spec{spec, spec.With(WithCrossCPU())} {
			res, err := Run(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Baseline, want) {
				t.Fatalf("%s: outcomes diverge from RunBaselineTrial on the attack lowering", s.Title())
			}
		}
	}
}

// Run on an invalid spec must fail fast without executing anything.
func TestRunRejectsInvalidSpec(t *testing.T) {
	_, err := Run(context.Background(), New(WithCipher("des-56")))
	if err == nil {
		t.Fatal("invalid spec ran")
	}
}

// A cancelled context must surface promptly from Run with ctx.Err(), even
// for a spec whose full execution would take far longer than the test.
func TestRunHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first trial starts
	spec := New(WithProfile(ProfileFast), WithTrials(64))
	start := time.Now()
	_, err := Run(ctx, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled Run took %v", elapsed)
	}
}

// Mid-flight cancellation: cancel after a deadline while trials run; Run
// must return with ctx.Err() without draining the remaining trials.
func TestRunCancelsMidCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real attack trials")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	spec := New(WithProfile(ProfileFast), WithTrials(500))
	start := time.Now()
	_, err := Run(ctx, spec, harness.WithWorkers(2))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v — not prompt", elapsed)
	}
}

// A PFA-kind run must execute without the DRAM substrate and recover keys,
// and its stats must be worker-invariant.
func TestRunPFAKind(t *testing.T) {
	spec := New(WithKind(PFA), WithCipher("present-80"), WithTrials(4), WithSeed(11))
	ref, err := Run(context.Background(), spec, harness.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	st := ref.PFAStats()
	if st.Recovered.Trials != 4 {
		t.Fatalf("trials = %d", st.Recovered.Trials)
	}
	if st.MasterOK.Successes == 0 {
		t.Fatal("no PFA trial recovered the master key")
	}
	par, err := Run(context.Background(), spec, harness.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.PFA, par.PFA) {
		t.Fatal("PFA results depend on worker count")
	}
}

// A DFA-kind run must execute without the DRAM substrate, recover master
// keys through the registered analyzer, and stay worker-invariant.
func TestRunDFAKind(t *testing.T) {
	spec := New(WithFaultModel(fault.New(fault.PreciseByte)), WithTrials(4), WithSeed(7))
	ref, err := Run(context.Background(), spec, harness.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	st := ref.DFAStats()
	if st.Recovered.Trials != 4 {
		t.Fatalf("trials = %d", st.Recovered.Trials)
	}
	if st.MasterOK.Successes != st.Recovered.Successes || st.MasterOK.Successes == 0 {
		t.Fatalf("master completion lags recovery: %+v", st)
	}
	par, err := Run(context.Background(), spec, harness.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.DFA, par.DFA) {
		t.Fatal("DFA results depend on worker count")
	}
}

// The DFA fault model resolves to the analyzer ladder's strongest rung when
// the spec leaves it nil, and the explicit model enters the canonical name.
func TestDFAFaultModelResolution(t *testing.T) {
	if m := New(WithKind(DFA)).FaultModel(); m.Kind != fault.PreciseBit {
		t.Fatalf("nil fault on dfa kind resolved to %s, want the ladder head", m.Name())
	}
	s := New(WithFaultModel(fault.New(fault.Nibble)), WithCipher("lilliput-80"))
	if m := s.FaultModel(); m.Kind != fault.Nibble {
		t.Fatalf("explicit fault model lost: %s", m.Name())
	}
	if name := s.Name(); !strings.Contains(name, "+fault=nibble@any") || !strings.Contains(name, "dfa:lilliput-80") {
		t.Fatalf("canonical name %q misses the fault model or cipher", name)
	}
}

// A Steering-kind run aggregates first-page hits; quiet same-CPU steering
// is near deterministic.
func TestRunSteeringKind(t *testing.T) {
	spec := New(WithKind(Steering), WithTrials(10), WithSeed(2))
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	st := res.SteeringStats()
	if st.FirstPage.Trials != 10 {
		t.Fatalf("trials = %d", st.FirstPage.Trials)
	}
	if st.FirstPage.Rate() < 0.8 {
		t.Fatalf("quiet same-CPU steering rate = %f", st.FirstPage.Rate())
	}
}
