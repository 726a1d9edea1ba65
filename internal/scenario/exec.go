package scenario

import (
	"bytes"
	"context"
	"fmt"

	"explframe/internal/cipher/registry"
	"explframe/internal/core"
	"explframe/internal/dram"
	"explframe/internal/fault"
	"explframe/internal/fault/dfa"
	"explframe/internal/fault/pfa"
	"explframe/internal/harness"
	"explframe/internal/rowhammer"
	"explframe/internal/stats"
)

// hammerMode maps a HammerSpec.Mode string onto the engine's enum.
func hammerMode(mode string) rowhammer.Mode {
	switch mode {
	case "single-sided":
		return rowhammer.SingleSided
	case "many-sided":
		return rowhammer.ManySided
	default:
		return rowhammer.DoubleSided
	}
}

// AttackConfig lowers an Attack-kind spec onto core.Config.  The machine —
// a built-in profile or an inline spec — supplies the hardware and every
// sizing default; the spec's non-zero fields override exactly the knobs
// they name, so a spec built from options equals the hand-mutated config
// the drivers used to assemble.
func (s Spec) AttackConfig() (core.Config, error) {
	c, ok := registry.Get(s.cipherName())
	if !ok {
		return core.Config{}, fmt.Errorf("scenario: unknown cipher %q", s.cipherName())
	}
	ms, err := s.MachineSpec()
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.ConfigForMachine(ms, s.Seed)
	cfg.VictimCipher = c.Name()
	cfg.VictimKey = core.DefaultVictimKey(c)
	cfg.NoiseProcs = s.Noise.Procs
	cfg.NoiseOps = s.Noise.Ops
	cfg.AttackerSleeps = s.Attacker.Sleeps
	if s.Attacker.CrossCPU {
		cfg.VictimCPU = 1
	}
	if s.Attacker.NoIdleDrain {
		cfg.Machine.DrainOnIdle = false
	}
	if s.PCP == PCPFIFO {
		cfg.Machine.PCPFIFO = true
	}
	if s.Victim.RequestPages > 0 {
		cfg.VictimRequestPages = s.Victim.RequestPages
	}
	if s.Ciphertexts > 0 {
		cfg.Ciphertexts = s.Ciphertexts
	}
	if s.Hammer.Mode != "" {
		cfg.Hammer.Mode = hammerMode(s.Hammer.Mode)
	}
	cfg.Hammer.Decoys = s.Hammer.Decoys
	if s.Defences.TRR {
		cfg.Machine.FaultModel.TRR = dram.TRRConfig{
			Enabled: true, TrackerSize: trrTracker, Threshold: trrThreshold,
		}
	}
	if s.Defences.ECC {
		cfg.Machine.FaultModel.ECC = dram.ECCSecDed
	}
	return cfg, nil
}

// SteeringConfig lowers a Steering-kind spec onto core.SteeringConfig (the
// Section V mechanics only; hammer and defence axes do not apply).
func (s Spec) SteeringConfig() core.SteeringConfig {
	cfg := core.DefaultSteeringConfig()
	cfg.Seed = s.Seed
	cfg.NoiseProcs = s.Noise.Procs
	cfg.NoiseOps = s.Noise.Ops
	cfg.AttackerSleeps = s.Attacker.Sleeps
	if s.Attacker.CrossCPU {
		cfg.VictimCPU = 1
	}
	if s.Attacker.NoIdleDrain {
		cfg.Machine.DrainOnIdle = false
	}
	if s.PCP == PCPFIFO {
		cfg.Machine.PCPFIFO = true
	}
	if s.Victim.RequestPages > 0 {
		cfg.VictimRequestPages = s.Victim.RequestPages
	}
	return cfg
}

// PFATrial is one crypto-only persistent-fault trial outcome.
type PFATrial struct {
	// RecoveredAt is the ciphertext count at which the last-round key
	// became unique (-1 if the budget ran out first).
	RecoveredAt int
	// MasterOK reports whether the completed master key matched the
	// victim's.
	MasterOK bool
}

// pfaBudget resolves the PFA ciphertext budget: 25 observations per S-box
// value (the coupon-collector scaling) unless the spec overrides it.
func (s Spec) pfaBudget(c registry.Cipher) int {
	if s.Budget > 0 {
		return s.Budget
	}
	return 25 * (1 << uint(c.EntryBits()))
}

// runPFATrial executes one PFA-kind trial: random key, one random
// single-bit S-box fault, known-fault recovery via the cipher-agnostic
// collector, master-key completion verified against the true key.  The
// completion is told the doubled value too (the flipped entry's new
// output), which lets the 80-bit ciphers narrow their search a round
// deeper without changing its result.  The
// draw order is pinned by E15 in the results book: faulty encryptions run in
// registry.BatchLanes-wide batches (bitsliced for the built-in ciphers)
// with the chunk's plaintexts pre-drawn in the old per-block order, and
// recovery is still checked after every single observation so RecoveredAt
// stays exact.  Plaintexts drawn past the recovery point are discarded
// with the trial's private rng, which no later draw reads.
func runPFATrial(c registry.Cipher, budget int, rng *stats.RNG) (PFATrial, error) {
	out := PFATrial{RecoveredAt: -1}
	key := make([]byte, c.KeyBytes())
	rng.Bytes(key)
	inst, err := c.New(key)
	if err != nil {
		return out, err
	}
	// Clean pair, captured before the fault lands.
	cleanPT := make([]byte, c.BlockSize())
	rng.Bytes(cleanPT)
	cleanCT := make([]byte, c.BlockSize())
	inst.Encrypt(c.SBox(), cleanCT, cleanPT)

	faulty := c.SBox()
	v := rng.Intn(c.TableLen())
	yStar := faulty[v]
	faulty[v] ^= byte(1 << uint(rng.Intn(c.EntryBits())))

	col := pfa.NewCollector(c)
	bs := c.BlockSize()
	buf := make([]byte, 2*registry.BatchLanes*bs)
	pts := make([][]byte, registry.BatchLanes)
	cts := make([][]byte, registry.BatchLanes)
	for i := range pts {
		pts[i] = buf[i*bs : (i+1)*bs]
		cts[i] = buf[(registry.BatchLanes+i)*bs : (registry.BatchLanes+i+1)*bs]
	}
	for n := 0; n < budget; {
		k := registry.BatchLanes
		if rem := budget - n; rem < k {
			k = rem
		}
		for i := 0; i < k; i++ {
			rng.Bytes(pts[i])
		}
		inst.EncryptBatch(faulty, cts[:k], pts[:k])
		for i := 0; i < k; i++ {
			if err := col.Observe(cts[i]); err != nil {
				return out, err
			}
			if _, err := col.RecoverLastRoundKeyKnownFault(yStar); err == nil {
				out.RecoveredAt = n + i + 1
				master, err := col.RecoverMasterMultiFaultWithPair([]byte{yStar}, faulty[v:v+1], cleanPT, cleanCT)
				out.MasterOK = err == nil && bytes.Equal(master, key)
				return out, nil
			}
		}
		n += k
	}
	return out, nil
}

// DFATrial is one crypto-only differential-fault trial outcome.
type DFATrial struct {
	// RecoveredAt is the correct/faulty pair count at which the key space
	// collapsed to the single true key (-1 if the budget ran out first).
	RecoveredAt int
	// MasterOK reports whether the completed master key matched the
	// victim's.
	MasterOK bool
	// KeySpaceBits is the surviving last-round-key space, in bits, when the
	// trial stopped — 0 on recovery, the ladder's figure of merit when the
	// budget ran out.
	KeySpaceBits float64
}

// dfaBudget resolves the DFA pair budget: 16 pairs unless the spec
// overrides it.
func (s Spec) dfaBudget() int {
	if s.Budget > 0 {
		return s.Budget
	}
	return 16
}

// runDFATrial executes one DFA-kind trial: random key, a full budget of
// correct/faulty pairs collected through the batched dfa.CollectPairs
// (same per-pair draw order as the old one-at-a-time loop, so E17 in the
// results book holds), then fed to one analysis session pair by pair until
// the analyzer pins a unique key or the budget runs out.  Pairs collected past
// the recovery point are discarded with the trial's private rng.
// Master-key completion is verified against the true key.
func runDFATrial(c registry.Cipher, a dfa.Analyzer, m fault.Model, budget int, rng *stats.RNG) (DFATrial, error) {
	out := DFATrial{RecoveredAt: -1}
	key := make([]byte, c.KeyBytes())
	rng.Bytes(key)
	inst, err := c.New(key)
	if err != nil {
		return out, err
	}
	table := c.SBox()
	pairs, err := dfa.CollectPairs(c, inst, table, budget, m, rng)
	if err != nil {
		return out, err
	}
	s, err := a.Begin(m)
	if err != nil {
		return out, err
	}
	for n := 1; n <= budget; n++ {
		if err := s.Add(pairs[n-1]); err != nil {
			return out, err
		}
		res, err := s.Result()
		if err != nil {
			return out, err
		}
		out.KeySpaceBits = res.KeySpaceBits
		if res.Unique {
			out.RecoveredAt = n
			out.MasterOK = res.Master != nil && bytes.Equal(res.Master, key)
			break
		}
	}
	return out, nil
}

// Result carries one executed scenario: the spec it ran plus the per-trial
// outcomes of whichever pipeline the kind selected (the other slices stay
// nil).
type Result struct {
	// Spec is the scenario that produced this result.
	Spec Spec
	// Attack holds Attack-kind per-trial reports.
	Attack []*core.Report
	// Steering holds Steering-kind per-trial results.
	Steering []*core.SteeringResult
	// Baseline holds Baseline-kind per-trial results.
	Baseline []*core.BaselineResult
	// PFA holds PFA-kind per-trial outcomes.
	PFA []PFATrial
	// DFA holds DFA-kind per-trial outcomes.
	DFA []DFATrial
	// CacheProbe holds CacheProbe-kind per-trial outcomes.
	CacheProbe []CacheProbeTrial
}

// AttackStats aggregates Attack-kind trials per phase.
type AttackStats struct {
	// Site, Steer, Fault and Key are the per-phase success proportions
	// (usable flip templated, frame steered, fault planted, key recovered).
	Site, Steer, Fault, Key stats.Proportion
	// Ciphertexts summarises the analysis cost of the successful trials.
	Ciphertexts stats.Summary
}

// AttackStats folds the attack reports into per-phase proportions.
func (r *Result) AttackStats() AttackStats {
	var a AttackStats
	for _, rep := range r.Attack {
		a.Site.Observe(rep.SiteFound)
		a.Steer.Observe(rep.SteeringHit)
		a.Fault.Observe(rep.FaultInjected)
		a.Key.Observe(rep.Success())
		if rep.Success() {
			a.Ciphertexts.Observe(float64(rep.CiphertextsUsed))
		}
	}
	return a
}

// SteeringStats aggregates Steering-kind trials.
type SteeringStats struct {
	// FirstPage is the precise-steering success proportion (victim's first
	// touched page received the hottest planted frame).
	FirstPage stats.Proportion
	// PlantedReused summarises how many planted frames surfaced anywhere
	// in the victim's allocation.
	PlantedReused stats.Summary
}

// SteeringStats folds the steering results.
func (r *Result) SteeringStats() SteeringStats {
	var s SteeringStats
	for _, res := range r.Steering {
		s.FirstPage.Observe(res.FirstPageHit)
		s.PlantedReused.Observe(float64(res.PlantedReused))
	}
	return s
}

// BaselineStats aggregates Baseline-kind trials.
type BaselineStats struct {
	// Corrupted is the success proportion (fault reached the victim table).
	Corrupted stats.Proportion
	// NeighboursOwned counts trials where the attacker mapped a row
	// adjacent to the victim row.
	NeighboursOwned int
}

// BaselineStats folds the baseline results.
func (r *Result) BaselineStats() BaselineStats {
	var b BaselineStats
	for _, res := range r.Baseline {
		b.Corrupted.Observe(res.TableCorrupted)
		if res.NeighboursOwned {
			b.NeighboursOwned++
		}
	}
	return b
}

// PFAStats aggregates PFA-kind trials.
type PFAStats struct {
	// Recovered and MasterOK are the last-round-key and master-key success
	// proportions.
	Recovered, MasterOK stats.Proportion
	// Ciphertexts summarises the observations needed by successful trials.
	Ciphertexts stats.Summary
}

// PFAStats folds the PFA trial outcomes.
func (r *Result) PFAStats() PFAStats {
	var p PFAStats
	for _, tr := range r.PFA {
		p.Recovered.Observe(tr.RecoveredAt > 0)
		p.MasterOK.Observe(tr.MasterOK)
		if tr.RecoveredAt > 0 {
			p.Ciphertexts.Observe(float64(tr.RecoveredAt))
		}
	}
	return p
}

// DFAStats aggregates DFA-kind trials.
type DFAStats struct {
	// Recovered and MasterOK are the unique-key and master-key success
	// proportions.
	Recovered, MasterOK stats.Proportion
	// Pairs summarises the correct/faulty pairs needed by successful trials.
	Pairs stats.Summary
	// KeySpaceBits summarises the surviving key space across all trials —
	// zero when every trial recovered, the precision penalty otherwise.
	KeySpaceBits stats.Summary
}

// DFAStats folds the DFA trial outcomes.
func (r *Result) DFAStats() DFAStats {
	var d DFAStats
	for _, tr := range r.DFA {
		d.Recovered.Observe(tr.RecoveredAt > 0)
		d.MasterOK.Observe(tr.MasterOK)
		if tr.RecoveredAt > 0 {
			d.Pairs.Observe(float64(tr.RecoveredAt))
		}
		d.KeySpaceBits.Observe(tr.KeySpaceBits)
	}
	return d
}

// Run validates spec and executes its trials on the harness pool,
// honouring ctx: cancellation stops the trial dispatch and aborts attack
// pipelines between phases, returning promptly with an error carrying
// ctx.Err().  Execution options (harness.WithWorkers) never affect the
// statistics — one (spec, seed) produces one result at any parallelism.
// Run is RunResumable with nothing checkpointed; every kind's per-trial
// body lives in the spec's trialRunner.
func Run(ctx context.Context, spec Spec, opts ...harness.Option) (*Result, error) {
	return RunResumable(ctx, spec, nil, nil, opts...)
}
