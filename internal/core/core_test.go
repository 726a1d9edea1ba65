package core

import (
	"bytes"
	"testing"

	"explframe/internal/dram"
	"explframe/internal/kernel"
	"explframe/internal/rowhammer"
)

// fastConfig returns an attack configuration tuned for test speed: a small
// module with a dense weak-cell population and low thresholds.
func fastConfig(seed uint64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Machine.Geometry = dram.Geometry{Channels: 1, DIMMs: 1, Ranks: 1, Banks: 4, Rows: 1024, RowBytes: 8192}
	cfg.Machine.FaultModel = dram.FaultModel{
		WeakCellDensity: 2e-4,
		BaseThreshold:   1500,
		ThresholdSpread: 0.5,
		NeighbourWeight: 0.25,
		RefreshInterval: 1 << 20,
		FlipReliability: 1.0,
	}
	cfg.Hammer = rowhammer.Config{Mode: rowhammer.DoubleSided, PairHammerCount: 3000}
	cfg.AttackerMemory = 8 << 20
	cfg.Ciphertexts = 12000
	return cfg
}

// The headline result: the full ExplFrame pipeline recovers the AES key.
func TestEndToEndAESKeyRecovery(t *testing.T) {
	var succeeded bool
	for seed := uint64(1); seed <= 5 && !succeeded; seed++ {
		cfg := fastConfig(seed)
		atk, err := NewAttack(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := atk.Run()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d: phase=%s steering=%v fault=%v n=%d fail=%q",
			seed, rep.Phase, rep.SteeringHit, rep.FaultInjected, rep.CiphertextsUsed, rep.FailReason)
		if rep.Success() {
			succeeded = true
			if !bytes.Equal(rep.RecoveredKey, cfg.VictimKey) {
				t.Fatalf("recovered %x want %x", rep.RecoveredKey, cfg.VictimKey)
			}
			if !rep.SteeringHit || !rep.FaultInjected || !rep.SiteFound {
				t.Fatalf("success without full pipeline: %+v", rep)
			}
			if rep.CiphertextsUsed == 0 || rep.ResidualEntropy != 0 {
				t.Fatalf("analysis bookkeeping wrong: %+v", rep)
			}
		}
	}
	if !succeeded {
		t.Fatal("attack never succeeded in 5 seeds")
	}
}

// The attack must work with the table anywhere in the page: the usable-flip
// predicate tracks VictimTableOffset, so a table at the end of the page
// needs a flip in its 256-byte window there.
func TestEndToEndNonZeroTableOffset(t *testing.T) {
	var succeeded bool
	for seed := uint64(1); seed <= 5 && !succeeded; seed++ {
		cfg := fastConfig(seed)
		cfg.VictimTableOffset = 4096 - 256
		atk, err := NewAttack(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := atk.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.SiteFound {
			if rep.Site.ByteInPage < cfg.VictimTableOffset {
				t.Fatalf("seed %d: chosen site at offset %d outside the table window", seed, rep.Site.ByteInPage)
			}
		}
		if rep.Success() {
			succeeded = true
		}
	}
	if !succeeded {
		t.Fatal("attack with offset table never succeeded in 5 seeds")
	}
}

// Cross-CPU runs must fail at steering: the page frame cache is per CPU.
func TestCrossCPUDefeatsSteering(t *testing.T) {
	hits := 0
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := fastConfig(seed)
		cfg.VictimCPU = 1
		atk, err := NewAttack(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := atk.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.SteeringHit {
			hits++
		}
	}
	if hits > 0 {
		t.Fatalf("cross-CPU steering hit %d/3 times", hits)
	}
}

// A sleeping attacker loses the planted frame (Section V).
func TestSleepingAttackerFails(t *testing.T) {
	hits := 0
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := fastConfig(seed)
		cfg.AttackerSleeps = true
		atk, err := NewAttack(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := atk.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.SteeringHit {
			hits++
		}
	}
	if hits > 0 {
		t.Fatalf("sleeping attacker steered %d/3 times", hits)
	}
}

// A clean device (no weak cells) must stop at templating with a clear
// failure reason.
func TestCleanDeviceStopsAtTemplate(t *testing.T) {
	cfg := fastConfig(1)
	cfg.Machine.FaultModel.WeakCellDensity = 0
	atk, err := NewAttack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := atk.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phase != PhaseTemplate || rep.SiteFound || rep.FailReason == "" {
		t.Fatalf("unexpected report on clean device: %+v", rep)
	}
}

func TestSteeringTrialSameCPU(t *testing.T) {
	hits := 0
	const trials = 20
	for seed := uint64(0); seed < trials; seed++ {
		cfg := DefaultSteeringConfig()
		cfg.Seed = seed
		res, err := RunSteeringTrial(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.FirstPageHit {
			hits++
		}
	}
	// Same CPU, no noise, tiny request: Section V says "with a probability
	// of almost 1".
	if hits < trials*9/10 {
		t.Fatalf("steering hit only %d/%d undisturbed trials", hits, trials)
	}
}

func TestSteeringTrialCrossCPU(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		cfg := DefaultSteeringConfig()
		cfg.Seed = seed
		cfg.VictimCPU = 1
		res, err := RunSteeringTrial(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.FirstPageHit {
			t.Fatalf("seed %d: cross-CPU steering hit", seed)
		}
	}
}

func TestSteeringTrialHeavyNoiseDegrades(t *testing.T) {
	quiet, noisy := 0, 0
	trials := 15
	if testing.Short() {
		trials = 5
	}
	for seed := uint64(0); seed < uint64(trials); seed++ {
		cfg := DefaultSteeringConfig()
		cfg.Seed = seed
		res, err := RunSteeringTrial(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.FirstPageHit {
			quiet++
		}
		cfg.NoiseProcs = 4
		cfg.NoiseOps = 300
		res, err = RunSteeringTrial(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.FirstPageHit {
			noisy++
		}
	}
	if noisy >= quiet {
		t.Fatalf("noise did not degrade steering: quiet %d/%d vs noisy %d/%d", quiet, trials, noisy, trials)
	}
}

func TestSteeringTrialValidation(t *testing.T) {
	cfg := DefaultSteeringConfig()
	cfg.ReleasePages = 0
	if _, err := RunSteeringTrial(cfg); err == nil {
		t.Fatal("ReleasePages=0 accepted")
	}
	cfg = DefaultSteeringConfig()
	cfg.ReleasePages = cfg.AttackerPages + 1
	if _, err := RunSteeringTrial(cfg); err == nil {
		t.Fatal("ReleasePages>AttackerPages accepted")
	}
}

// Section V: "with a probability of almost 1, if the process requests for a
// few pages, the recently deallocated page frames will be reallocated".
func TestSelfReuseSmallRequests(t *testing.T) {
	frac, err := SelfReuseTrial(3, kernel.Config{}, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if frac < 0.99 {
		t.Fatalf("self reuse for small request = %f, want ~1", frac)
	}
}

// Requests far beyond the cache capacity must show partial reuse at most.
func TestSelfReuseLargeRequestsDegrade(t *testing.T) {
	mc := kernel.DefaultConfig()
	small, err := SelfReuseTrial(3, mc, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Free more than pcp-high so the cold end spills to the buddy, then
	// request a large block: some frames come from elsewhere.
	large, err := SelfReuseTrial(3, mc, 400, 400)
	if err != nil {
		t.Fatal(err)
	}
	if large > small {
		t.Fatalf("reuse should not improve with size: small=%f large=%f", small, large)
	}
}

func TestBaselineRandomSprayRarelyCorrupts(t *testing.T) {
	wins := 0
	const trials = 6
	for seed := uint64(0); seed < trials; seed++ {
		res, err := RunBaselineTrial(fastConfig(seed), RandomSpray)
		if err != nil {
			t.Fatal(err)
		}
		if res.TableCorrupted {
			wins++
		}
		if res.RequiredPrivilege != "none" {
			t.Fatal("spray baseline must be unprivileged")
		}
	}
	if wins == trials {
		t.Fatal("random spray succeeded every time; it should be unreliable")
	}
}

func TestBaselinePagemapReportsPrivilege(t *testing.T) {
	res, err := RunBaselineTrial(fastConfig(1), PagemapTargeted)
	if err != nil {
		t.Fatal(err)
	}
	if res.RequiredPrivilege != "CAP_SYS_ADMIN" {
		t.Fatalf("privilege = %q", res.RequiredPrivilege)
	}
}

func TestBaselineKindString(t *testing.T) {
	if RandomSpray.String() != "random-spray" || PagemapTargeted.String() != "pagemap-targeted" {
		t.Fatal("baseline names")
	}
}

// End-to-end PRESENT run: rarer usable flips (16-byte table) make this
// probabilistic, so accept any run reaching the steer phase but demand at
// least one full success across seeds.
func TestEndToEndPresent(t *testing.T) {
	if testing.Short() {
		t.Skip("long PRESENT sweep")
	}
	key := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	var succeeded bool
	for seed := uint64(1); seed <= 8 && !succeeded; seed++ {
		cfg := fastConfig(seed)
		cfg.VictimCipher = "present-80"
		cfg.VictimKey = key
		cfg.Ciphertexts = 3000
		atk, err := NewAttack(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := atk.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Success() {
			succeeded = true
			if !bytes.Equal(rep.RecoveredKey, key) {
				t.Fatalf("recovered %x want %x", rep.RecoveredKey, key)
			}
		}
	}
	if !succeeded {
		t.Fatal("PRESENT attack never succeeded in 8 seeds")
	}
}

// End-to-end run against the registry's third victim: the LILLIPUT-style
// cipher shares PRESENT's 16-byte table, so the same rare-usable-flip
// caveat applies.
func TestEndToEndLilliput(t *testing.T) {
	if testing.Short() {
		t.Skip("long LILLIPUT sweep")
	}
	key := []byte{11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	var succeeded bool
	for seed := uint64(1); seed <= 8 && !succeeded; seed++ {
		cfg := fastConfig(seed)
		cfg.VictimCipher = "lilliput-80"
		cfg.VictimKey = key
		cfg.Ciphertexts = 3000
		atk, err := NewAttack(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := atk.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Success() {
			succeeded = true
			if !bytes.Equal(rep.RecoveredKey, key) {
				t.Fatalf("recovered %x want %x", rep.RecoveredKey, key)
			}
		}
	}
	if !succeeded {
		t.Fatal("LILLIPUT attack never succeeded in 8 seeds")
	}
}

// An unregistered victim cipher must be rejected at construction.
func TestNewAttackRejectsUnknownCipher(t *testing.T) {
	cfg := fastConfig(1)
	cfg.VictimCipher = "rot13"
	if _, err := NewAttack(cfg); err == nil {
		t.Fatal("unknown cipher accepted")
	}
}
