package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"

	"explframe/internal/cipher/registry"
	"explframe/internal/fault/pfa"
	"explframe/internal/kernel"
	"explframe/internal/mm"
	"explframe/internal/rowhammer"
	"explframe/internal/stats"
	"explframe/internal/trace"
	"explframe/internal/vm"
)

// Phase names the attack stages for reporting.
type Phase string

// Attack phases in execution order.
const (
	PhaseSetup    Phase = "setup"
	PhaseTemplate Phase = "template"
	PhasePlant    Phase = "plant"
	PhaseSteer    Phase = "steer"
	PhaseRehammer Phase = "rehammer"
	PhaseAnalyse  Phase = "analyse"
	PhaseDone     Phase = "done"
)

// Report captures everything an attack run produced, phase by phase.
type Report struct {
	// Phase is the last phase reached (PhaseDone on full success).
	Phase Phase
	// FailReason is empty on success, otherwise why the run stopped.
	FailReason string

	// Template phase.
	FlipsTemplated int
	SiteFound      bool
	Site           rowhammer.FlipSite

	// Plant/steer phases.
	PlantedPFN     mm.PFN
	VictimTablePFN mm.PFN
	SteeringHit    bool

	// Re-hammer phase.
	FaultInjected bool
	CorruptIndex  int // first corrupted index in the S-box table
	// CorruptIndices lists every corrupted table entry: collateral weak
	// cells in the same row can add faults beyond the templated one, which
	// switches the analysis to the multi-fault recovery.
	CorruptIndices []int

	// Analysis phase.
	CiphertextsUsed int
	ResidualEntropy float64
	KeyRecovered    bool
	RecoveredKey    []byte

	// Engine counters.
	Hammer rowhammer.Stats
	// TemplateHammer is the engine-counter snapshot at the end of the
	// template phase: TemplateHammer.Activations is the activation cost of
	// finding the first usable flip — the time-to-first-fault proxy the
	// machine-profile comparison (E16) reports.
	TemplateHammer rowhammer.Stats
}

// Success reports whether the full pipeline succeeded.
func (r *Report) Success() bool { return r.Phase == PhaseDone && r.KeyRecovered }

// Attack owns one configured run.
type Attack struct {
	cfg    Config
	cipher registry.Cipher
	sbox   []byte // canonical table, cached (SBox() copies on every call)
	m      *kernel.Machine
	rng    *stats.RNG
}

// NewAttack builds the machine for a run.
func NewAttack(cfg Config) (*Attack, error) {
	cipher, ok := registry.Get(cfg.VictimCipher)
	if !ok {
		return nil, fmt.Errorf("core: unknown victim cipher %q (registered: %v)",
			cfg.VictimCipher, registry.Names())
	}
	m, err := bootMachine(cfg.Machine, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.AttackerCPU >= m.NumCPUs() || cfg.VictimCPU >= m.NumCPUs() {
		return nil, fmt.Errorf("core: cpu out of range")
	}
	return &Attack{cfg: cfg, cipher: cipher, sbox: cipher.SBox(), m: m, rng: stats.NewRNG(cfg.Seed ^ 0xa77ac)}, nil
}

// bootMachine is the one place a trial boots its machine: the zero
// kernel.Config takes kernel.DefaultConfig, and seed reseeds it so the
// weak cells follow the trial.
func bootMachine(mc kernel.Config, seed uint64) (*kernel.Machine, error) {
	if mc.NumCPUs == 0 {
		mc = kernel.DefaultConfig()
	}
	mc.Seed = seed
	return kernel.NewMachine(mc)
}

// usableFlip reports whether a templated flip would corrupt the victim's
// table: right page offset, a bit that reaches the cipher's datapath, and a
// polarity that changes the table byte the victim stores there.  The table
// contents are public (it is the cipher's standard S-box), so the attacker
// can evaluate this locally for any registered cipher.
func (a *Attack) usableFlip(f rowhammer.FlipSite) bool {
	off := a.cfg.VictimTableOffset
	if f.ByteInPage < off || f.ByteInPage >= off+a.cipher.TableLen() {
		return false
	}
	if int(f.Bit) >= a.cipher.EntryBits() {
		return false // stored bits above EntryBits never reach the datapath
	}
	entry := a.sbox[f.ByteInPage-off]
	return (entry>>f.Bit)&1 == f.From&1
}

// Run executes the full pipeline and always returns a report; err is
// reserved for simulator malfunctions, not attack failures (those are
// recorded in the report).
func (a *Attack) Run() (*Report, error) {
	return a.RunContext(context.Background())
}

// RunContext is Run with cancellation: ctx is checked between phases and
// inside the ciphertext-collection loop, so a campaign can abandon a run
// promptly.  On cancellation the report records the phase that was about to
// start and the returned error is ctx.Err().
func (a *Attack) RunContext(ctx context.Context) (*Report, error) {
	rep := &Report{Phase: PhaseSetup, CorruptIndex: -1}
	if err := ctx.Err(); err != nil {
		return rep, err
	}

	// --- Setup: attacker process with a large touched mapping.
	attacker, base, err := a.m.SpawnResident("attacker", a.cfg.AttackerCPU, a.cfg.AttackerMemory)
	if err != nil {
		return rep, err
	}
	engine := rowhammer.New(a.cfg.Hammer, a.m, attacker)

	// --- Template: hunt for a flip that would corrupt the victim table.
	rep.Phase = PhaseTemplate
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	site, all, found, err := engine.TemplateUntil(base, a.cfg.AttackerMemory, a.usableFlip)
	rep.FlipsTemplated = len(all)
	rep.Hammer = engine.Stats()
	rep.TemplateHammer = rep.Hammer
	if err != nil {
		return rep, err
	}
	if !found {
		rep.FailReason = "no usable flip in attacker region"
		return rep, nil
	}
	rep.SiteFound = true
	rep.Site = site

	// --- Plant: restore the page contents, then release the frame into
	// the page frame cache.  (The kernel will zero it on reallocation
	// anyway; the rewrite re-arms the weak cell.)
	rep.Phase = PhasePlant
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	pa, ok := attacker.Translate(site.PageVA)
	if !ok {
		return rep, fmt.Errorf("core: templated page not resident")
	}
	rep.PlantedPFN = mm.PFNOf(pa)
	if err := attacker.Munmap(site.PageVA, vm.PageSize); err != nil {
		return rep, err
	}
	if a.cfg.AttackerSleeps {
		attacker.Sleep()
	}

	// --- Interference window.
	if a.cfg.NoiseProcs > 0 && a.cfg.NoiseOps > 0 {
		noise, err := trace.SpawnNoise(a.m, a.cfg.VictimCPU, a.cfg.NoiseProcs, a.rng.Split())
		if err != nil {
			return rep, err
		}
		if err := noise.Churn(a.cfg.NoiseOps); err != nil {
			return rep, err
		}
	}

	// --- Steer: the victim allocates; its table page should receive the
	// planted frame.
	rep.Phase = PhaseSteer
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	victim, err := trace.SpawnVictim(a.m, a.cfg.VictimCPU, a.cfg.VictimCipher,
		a.cfg.VictimKey, a.cfg.VictimRequestPages, a.cfg.VictimTableOffset)
	if err != nil {
		return rep, err
	}
	vpa, ok := victim.Proc.Translate(victim.TablePage())
	if !ok {
		return rep, fmt.Errorf("core: victim table not resident")
	}
	rep.VictimTablePFN = mm.PFNOf(vpa)
	rep.SteeringHit = rep.VictimTablePFN == rep.PlantedPFN
	if a.cfg.AttackerSleeps {
		attacker.Wake() // resume for the re-hammer phase
	}

	// Known clean pair for key-schedule disambiguation and verification,
	// captured before the fault lands (the attacker can observe pre-attack
	// traffic).
	cleanPT := make([]byte, a.cipher.BlockSize())
	a.rng.Bytes(cleanPT)
	cleanCT, err := victim.Encrypt(cleanPT)
	if err != nil {
		return rep, err
	}

	// --- Re-hammer the same aggressors; the flip lands in whatever data
	// now occupies the planted frame.
	rep.Phase = PhaseRehammer
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	if err := engine.HammerDefault(site.Agg); err != nil {
		return rep, err
	}
	rep.Hammer = engine.Stats()
	indices, values, err := victim.TableCorruptions()
	if err != nil {
		return rep, err
	}
	rep.FaultInjected = len(indices) > 0
	rep.CorruptIndices = indices
	rep.CorruptIndex = -1
	if len(indices) > 0 {
		rep.CorruptIndex = indices[0]
	}
	if !rep.FaultInjected && !a.cfg.CollectOnMiss {
		rep.FailReason = "fault did not reach the victim table"
		return rep, nil
	}

	// --- Analyse: collect faulty ciphertexts, run PFA.
	rep.Phase = PhaseAnalyse
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	if err := a.analyse(ctx, rep, victim, indices, values, cleanPT, cleanCT); err != nil {
		return rep, err
	}
	if rep.KeyRecovered {
		rep.Phase = PhaseDone
	} else if rep.FailReason == "" {
		rep.FailReason = "fault analysis did not converge within the ciphertext budget"
	}
	return rep, nil
}

// analyse drives the known-fault PFA attack over the generic collector.
// The attacker knows which table entries flipped (templating enumerated the
// page's flippable bits) and the public canonical table, hence the fault
// hypothesis pfa.FaultValues derives from the corrupted table: the
// vanished and doubled output values.  Any fault count goes through the
// one multi-fault recovery, whose search depth the cipher's RecoverCost
// bounds.
func (a *Attack) analyse(ctx context.Context, rep *Report, victim *trace.Victim, indices []int, values []byte, cleanPT, cleanCT []byte) error {
	c := a.cipher
	collector := pfa.NewCollector(c)
	table := slices.Clone(a.sbox)
	for j, idx := range indices {
		table[idx] = values[j]
	}
	yStars, yPrimes := pfa.FaultValues(c, table)
	if len(yStars) == 0 {
		if rep.FaultInjected {
			// Every corrupted bit is above the datapath width (or entries
			// traded values): the cipher still computes with the canonical
			// S-box image and PFA has nothing to observe.
			rep.FailReason = "corrupted table bits never reach the cipher datapath"
			return nil
		}
		// CollectOnMiss path: assume the templated site, which produces an
		// inconsistency once enough clean ciphertexts arrive.
		yStars = []byte{a.sbox[rep.Site.ByteInPage-a.cfg.VictimTableOffset]}
		yPrimes = []byte{yStars[0] ^ (1 << uint(rep.Site.Bit))}
	}

	// Check cadence scales with the cell alphabet: the 4-bit ciphers
	// converge in tens of ciphertexts, AES's 256-value cells in thousands.
	// The cadence doubles as the batch size: both values are multiples of
	// the bitsliced cores' 64-lane width, plaintexts are drawn in the same
	// order as the old per-block loop (encryption consumes no randomness),
	// and the recovery check still fires at every checkEvery boundary plus
	// the final budget point — so batching is invisible to the results book.
	checkEvery := 64
	if c.EntryBits() >= 8 {
		checkEvery = 512
	}
	bs := c.BlockSize()
	ptBuf := make([]byte, checkEvery*bs)
	pts := make([][]byte, checkEvery)
	for i := range pts {
		pts[i] = ptBuf[i*bs : (i+1)*bs]
	}
	for n := 0; n < a.cfg.Ciphertexts; {
		if err := ctx.Err(); err != nil {
			return err
		}
		chunk := checkEvery
		if rem := a.cfg.Ciphertexts - n; rem < chunk {
			chunk = rem
		}
		for i := 0; i < chunk; i++ {
			a.rng.Bytes(pts[i])
		}
		cts, err := victim.EncryptBatch(pts[:chunk])
		if err != nil {
			return err
		}
		if err := collector.ObserveBatch(cts); err != nil {
			return err
		}
		n += chunk
		master, err := collector.RecoverMasterMultiFaultWithPair(yStars, yPrimes, cleanPT, cleanCT)
		if err != nil {
			if errors.Is(err, pfa.ErrUnderdetermined) {
				continue
			}
			if errors.Is(err, pfa.ErrInconsistent) {
				rep.FailReason = fmt.Sprintf("observations inconsistent with the %d-fault hypothesis", len(yStars))
				break
			}
			return err
		}
		rep.CiphertextsUsed = int(collector.N())
		rep.ResidualEntropy = collector.ResidualEntropy()
		rep.RecoveredKey = master
		rep.KeyRecovered = bytes.Equal(master, a.cfg.VictimKey)
		if !rep.KeyRecovered {
			rep.FailReason = "recovered key does not match victim key"
		}
		return nil
	}
	rep.CiphertextsUsed = int(collector.N())
	rep.ResidualEntropy = collector.ResidualEntropy()
	return nil
}
