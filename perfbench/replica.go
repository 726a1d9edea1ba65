package main

// The traced replicas reproduce one trial of each scenario kind through
// the same public calls the program's trial bodies make, with a span
// around every call into a layer.  A replica's outcome must equal the
// program's outcome for the same (spec, trial) field by field; the traced
// run checks that before it reports a single per-layer number.

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"explframe/internal/cache"
	"explframe/internal/cipher/registry"
	"explframe/internal/core"
	"explframe/internal/dram"
	"explframe/internal/fault"
	"explframe/internal/fault/dfa"
	"explframe/internal/fault/pfa"
	"explframe/internal/kernel"
	"explframe/internal/mm"
	"explframe/internal/rowhammer"
	"explframe/internal/scenario"
	"explframe/internal/stats"
	"explframe/internal/trace"
	"explframe/internal/vm"
)

// RNG salts the program's trial bodies mix into their seeds; a replica
// must draw exactly what the body draws.
const (
	attackRNGSalt   = 0xa77ac // core.NewAttack
	steeringRNGSalt = 0x57ee7 // core.RunSteeringTrial
)

// counters are the layer work counts the replicas read from public stats.
type counters struct {
	mmAllocs, pcpHits         uint64
	activations, bitFlips     uint64
	encryptions               uint64
	recoverAttempts, recovers uint64
	analyzeCalls, analyzeHits uint64
	measurements              uint64
	machines                  uint64 // trials that built a machine
}

// replicator runs traced replicas and accumulates their counters.
type replicator struct {
	tr *tracer
	n  counters
}

// replicate runs trial k of spec under its private stream and returns the
// outcome in the journal's wire form.
func (r *replicator) replicate(spec scenario.Spec, k int) (scenario.TrialOutcome, error) {
	rng := stats.NewStream(spec.Seed, uint64(k))
	switch spec.Kind {
	case scenario.Attack:
		cfg, err := spec.AttackConfig()
		if err != nil {
			return scenario.TrialOutcome{}, err
		}
		cfg.Seed = rng.Uint64()
		rep, err := r.attack(cfg)
		return scenario.TrialOutcome{Attack: rep}, err
	case scenario.PFA:
		c := registry.MustGet(spec.CipherName())
		budget := spec.Budget
		if budget == 0 {
			budget = 25 * (1 << uint(c.EntryBits()))
		}
		tr, err := r.pfa(c, budget, rng)
		return scenario.TrialOutcome{PFA: &tr}, err
	case scenario.DFA:
		budget := spec.Budget
		if budget == 0 {
			budget = 16
		}
		tr, err := r.dfa(registry.MustGet(spec.CipherName()), spec.FaultModel(), budget, rng)
		return scenario.TrialOutcome{DFA: &tr}, err
	case scenario.Steering:
		cfg := spec.SteeringConfig()
		cfg.Seed = rng.Uint64()
		res, err := r.steering(cfg)
		return scenario.TrialOutcome{Steering: res}, err
	case scenario.CacheProbe:
		tr, err := r.cacheProbe(spec, rng)
		return scenario.TrialOutcome{CacheProbe: &tr}, err
	}
	return scenario.TrialOutcome{}, fmt.Errorf("no replica for kind %q", spec.Kind)
}

// machineCounts adds a finished trial's allocator and DRAM counts.
func (r *replicator) machineCounts(m *kernel.Machine) {
	r.n.machines++
	for zt := mm.ZoneDMA; zt <= mm.ZoneNormal; zt++ {
		if m.Phys().HasZone(zt) {
			st := m.Phys().Stats(zt)
			r.n.mmAllocs += st.Allocs + st.PCPHits
			r.n.pcpHits += st.PCPHits
		}
	}
	ds := m.DRAM().Stats()
	r.n.activations += ds.Activations
	r.n.bitFlips += ds.BitFlips
}

// attack mirrors core.NewAttack followed by Attack.RunContext.
func (r *replicator) attack(cfg core.Config) (*core.Report, error) {
	tr := r.tr
	defer tr.end(tr.begin(trialPrefix + "attack"))
	rep := &core.Report{Phase: core.PhaseSetup, CorruptIndex: -1}

	ph := tr.begin(phasePrefix + "setup")
	if cfg.Machine.NumCPUs == 0 {
		cfg.Machine = kernel.DefaultConfig()
	}
	cfg.Machine.Seed = cfg.Seed
	c, ok := registry.Get(cfg.VictimCipher)
	if !ok {
		return rep, fmt.Errorf("unknown victim cipher %q", cfg.VictimCipher)
	}
	sbox := c.SBox()
	sp := tr.begin("kernel.machine")
	m, err := kernel.NewMachine(cfg.Machine)
	tr.end(sp)
	if err != nil {
		return rep, err
	}
	defer r.machineCounts(m)
	if cfg.AttackerCPU >= m.NumCPUs() || cfg.VictimCPU >= m.NumCPUs() {
		return rep, errors.New("cpu out of range")
	}
	rng := stats.NewRNG(cfg.Seed ^ attackRNGSalt)
	attacker, err := m.Spawn("attacker", cfg.AttackerCPU)
	if err != nil {
		return rep, err
	}
	sp = tr.begin("kernel.touch")
	base, err := attacker.Mmap(cfg.AttackerMemory)
	if err == nil {
		err = attacker.Touch(base, cfg.AttackerMemory)
	}
	tr.end(sp)
	if err != nil {
		return rep, err
	}
	engine := rowhammer.New(cfg.Hammer, m, attacker)
	tr.end(ph)

	rep.Phase = core.PhaseTemplate
	ph = tr.begin(phasePrefix + "template")
	usable := func(f rowhammer.FlipSite) bool {
		off := cfg.VictimTableOffset
		if f.ByteInPage < off || f.ByteInPage >= off+c.TableLen() || int(f.Bit) >= c.EntryBits() {
			return false
		}
		return (sbox[f.ByteInPage-off]>>f.Bit)&1 == f.From&1
	}
	sp = tr.begin("rowhammer.template")
	site, all, found, err := engine.TemplateUntil(base, cfg.AttackerMemory, usable)
	tr.end(sp)
	rep.FlipsTemplated = len(all)
	rep.Hammer = engine.Stats()
	rep.TemplateHammer = rep.Hammer
	tr.end(ph)
	if err != nil {
		return rep, err
	}
	if !found {
		rep.FailReason = "no usable flip in attacker region"
		return rep, nil
	}
	rep.SiteFound = true
	rep.Site = site

	rep.Phase = core.PhasePlant
	ph = tr.begin(phasePrefix + "plant")
	pa, ok := attacker.Translate(site.PageVA)
	if !ok {
		return rep, errors.New("templated page not resident")
	}
	rep.PlantedPFN = mm.PFNOf(pa)
	if err := attacker.Munmap(site.PageVA, vm.PageSize); err != nil {
		return rep, err
	}
	if cfg.AttackerSleeps {
		attacker.Sleep()
	}
	if cfg.NoiseProcs > 0 && cfg.NoiseOps > 0 {
		noise, err := trace.SpawnNoise(m, cfg.VictimCPU, cfg.NoiseProcs, rng.Split())
		if err != nil {
			return rep, err
		}
		if err := noise.Churn(cfg.NoiseOps); err != nil {
			return rep, err
		}
	}
	tr.end(ph)

	rep.Phase = core.PhaseSteer
	ph = tr.begin(phasePrefix + "steer")
	sp = tr.begin("trace.steer")
	victim, err := trace.SpawnVictim(m, cfg.VictimCPU, cfg.VictimCipher,
		cfg.VictimKey, cfg.VictimRequestPages, cfg.VictimTableOffset)
	tr.end(sp)
	if err != nil {
		return rep, err
	}
	vpa, ok := victim.Proc.Translate(victim.TablePage())
	if !ok {
		return rep, errors.New("victim table not resident")
	}
	rep.VictimTablePFN = mm.PFNOf(vpa)
	rep.SteeringHit = rep.VictimTablePFN == rep.PlantedPFN
	if cfg.AttackerSleeps {
		attacker.Wake()
	}
	cleanPT := make([]byte, c.BlockSize())
	rng.Bytes(cleanPT)
	sp = tr.begin("cipher.encrypt")
	cleanCT, err := victim.Encrypt(cleanPT)
	tr.end(sp)
	r.n.encryptions++
	tr.end(ph)
	if err != nil {
		return rep, err
	}

	rep.Phase = core.PhaseRehammer
	ph = tr.begin(phasePrefix + "rehammer")
	sp = tr.begin("rowhammer.rehammer")
	err = engine.HammerDefault(site.Agg)
	tr.end(sp)
	if err != nil {
		return rep, err
	}
	rep.Hammer = engine.Stats()
	indices, values, err := victim.TableCorruptions()
	tr.end(ph)
	if err != nil {
		return rep, err
	}
	rep.FaultInjected = len(indices) > 0
	rep.CorruptIndices = indices
	if len(indices) > 0 {
		rep.CorruptIndex = indices[0]
	}
	if !rep.FaultInjected && !cfg.CollectOnMiss {
		rep.FailReason = "fault did not reach the victim table"
		return rep, nil
	}

	rep.Phase = core.PhaseAnalyse
	ph = tr.begin(phasePrefix + "analyse")
	err = r.analyse(cfg, c, sbox, rng, rep, victim, indices, values, cleanPT, cleanCT)
	tr.end(ph)
	if err != nil {
		return rep, err
	}
	if rep.KeyRecovered {
		rep.Phase = core.PhaseDone
	} else if rep.FailReason == "" {
		rep.FailReason = "fault analysis did not converge within the ciphertext budget"
	}
	return rep, nil
}

// analyse mirrors the attack's known-fault PFA over the generic collector.
func (r *replicator) analyse(cfg core.Config, c registry.Cipher, sb []byte, rng *stats.RNG, rep *core.Report,
	victim *trace.Victim, indices []int, values, cleanPT, cleanCT []byte) error {
	tr := r.tr
	collector := pfa.NewCollector(c)
	mask := byte(1<<uint(c.EntryBits()) - 1)
	var yStars, yPrimes []byte
	for j, idx := range indices {
		if values[j]&mask == sb[idx]&mask {
			continue
		}
		yStars = append(yStars, sb[idx]&mask)
		yPrimes = append(yPrimes, values[j]&mask)
	}
	if len(yStars) == 0 {
		if rep.FaultInjected {
			rep.FailReason = "corrupted table bits never reach the cipher datapath"
			return nil
		}
		yStars = []byte{sb[rep.Site.ByteInPage-cfg.VictimTableOffset]}
		yPrimes = []byte{yStars[0] ^ (1 << uint(rep.Site.Bit))}
	}
	recoverKey := func() ([]byte, error) {
		defer tr.end(tr.begin("pfa.recover"))
		r.n.recoverAttempts++
		if len(yStars) == 1 {
			return collector.RecoverMasterKnownFault(yStars[0], cleanPT, cleanCT)
		}
		return collector.RecoverMasterMultiFaultWithPair(yStars, yPrimes, cleanPT, cleanCT)
	}
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
	for n := 0; n < cfg.Ciphertexts; {
		chunk := min(checkEvery, cfg.Ciphertexts-n)
		for i := 0; i < chunk; i++ {
			rng.Bytes(pts[i])
		}
		sp := tr.begin("cipher.encrypt")
		cts, err := victim.EncryptBatch(pts[:chunk])
		tr.end(sp)
		r.n.encryptions += uint64(chunk)
		if err != nil {
			return err
		}
		sp = tr.begin("pfa.observe")
		err = collector.ObserveBatch(cts)
		tr.end(sp)
		if err != nil {
			return err
		}
		n += chunk
		master, err := recoverKey()
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
		r.n.recovers++
		rep.CiphertextsUsed = int(collector.N())
		rep.ResidualEntropy = collector.ResidualEntropy()
		rep.RecoveredKey = master
		rep.KeyRecovered = bytes.Equal(master, cfg.VictimKey)
		if !rep.KeyRecovered {
			rep.FailReason = "recovered key does not match victim key"
		}
		return nil
	}
	rep.CiphertextsUsed = int(collector.N())
	rep.ResidualEntropy = collector.ResidualEntropy()
	return nil
}

// pfa mirrors the PFA-kind trial body: random key, one random single-bit
// S-box fault, batched faulty encryptions, a recovery check after every
// observation, master-key completion checked against the true key.
func (r *replicator) pfa(c registry.Cipher, budget int, rng *stats.RNG) (scenario.PFATrial, error) {
	tr := r.tr
	defer tr.end(tr.begin(trialPrefix + "pfa"))
	out := scenario.PFATrial{RecoveredAt: -1}

	ph := tr.begin(phasePrefix + "setup")
	key := make([]byte, c.KeyBytes())
	rng.Bytes(key)
	inst, err := c.New(key)
	if err != nil {
		return out, err
	}
	cleanPT := make([]byte, c.BlockSize())
	rng.Bytes(cleanPT)
	cleanCT := make([]byte, c.BlockSize())
	sp := tr.begin("cipher.encrypt")
	inst.Encrypt(c.SBox(), cleanCT, cleanPT)
	tr.end(sp)
	r.n.encryptions++
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
	tr.end(ph)

	ph = tr.begin(phasePrefix + "analyse")
	defer tr.end(ph)
	for n := 0; n < budget; {
		k := min(registry.BatchLanes, budget-n)
		for i := 0; i < k; i++ {
			rng.Bytes(pts[i])
		}
		sp := tr.begin("cipher.encrypt")
		inst.EncryptBatch(faulty, cts[:k], pts[:k])
		tr.end(sp)
		r.n.encryptions += uint64(k)
		for i := 0; i < k; i++ {
			t0 := time.Now()
			err := col.Observe(cts[i])
			tr.leaf("pfa.observe", t0)
			if err != nil {
				return out, err
			}
			t0 = time.Now()
			_, err = col.RecoverLastRoundKeyKnownFault(yStar)
			tr.leaf("pfa.recover", t0)
			r.n.recoverAttempts++
			if err != nil {
				continue
			}
			r.n.recovers++
			out.RecoveredAt = n + i + 1
			t0 = time.Now()
			master, err := col.RecoverMasterKnownFault(yStar, cleanPT, cleanCT)
			tr.leaf("pfa.recover", t0)
			out.MasterOK = err == nil && bytes.Equal(master, key)
			return out, nil
		}
		n += k
	}
	return out, nil
}

// dfa mirrors the DFA-kind trial body: random key, a full budget of
// correct/faulty pairs, then re-analysis pair by pair until the analyzer
// pins a unique key.
func (r *replicator) dfa(c registry.Cipher, m fault.Model, budget int, rng *stats.RNG) (scenario.DFATrial, error) {
	tr := r.tr
	defer tr.end(tr.begin(trialPrefix + "dfa"))
	out := scenario.DFATrial{RecoveredAt: -1}
	a := dfa.MustGet(c.Name())

	ph := tr.begin(phasePrefix + "setup")
	key := make([]byte, c.KeyBytes())
	rng.Bytes(key)
	inst, err := c.New(key)
	tr.end(ph)
	if err != nil {
		return out, err
	}

	ph = tr.begin(phasePrefix + "collect")
	sp := tr.begin("dfa.collect")
	pairs, err := dfa.CollectPairs(c, inst, c.SBox(), budget, m, rng)
	tr.end(sp)
	tr.end(ph)
	if err != nil {
		return out, err
	}

	ph = tr.begin(phasePrefix + "analyse")
	defer tr.end(ph)
	for n := 1; n <= budget; n++ {
		sp := tr.begin("dfa.analyze")
		res, err := a.Analyze(pairs[:n], m)
		tr.end(sp)
		r.n.analyzeCalls++
		if err != nil {
			return out, err
		}
		out.KeySpaceBits = res.KeySpaceBits
		if res.Unique {
			r.n.analyzeHits++
			out.RecoveredAt = n
			out.MasterOK = res.Master != nil && bytes.Equal(res.Master, key)
			break
		}
	}
	return out, nil
}

// steering mirrors core.RunSteeringTrial.
func (r *replicator) steering(cfg core.SteeringConfig) (*core.SteeringResult, error) {
	tr := r.tr
	defer tr.end(tr.begin(trialPrefix + "steering"))
	if cfg.ReleasePages <= 0 || cfg.ReleasePages > cfg.AttackerPages {
		return nil, fmt.Errorf("bad ReleasePages %d", cfg.ReleasePages)
	}

	ph := tr.begin(phasePrefix + "setup")
	mc := cfg.Machine
	if mc.NumCPUs == 0 {
		mc = kernel.DefaultConfig()
	}
	mc.Seed = cfg.Seed
	sp := tr.begin("kernel.machine")
	m, err := kernel.NewMachine(mc)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	defer r.machineCounts(m)
	rng := stats.NewRNG(cfg.Seed ^ steeringRNGSalt)
	attacker, err := m.Spawn("attacker", cfg.AttackerCPU)
	if err != nil {
		return nil, err
	}
	length := uint64(cfg.AttackerPages) * vm.PageSize
	sp = tr.begin("kernel.touch")
	base, err := attacker.Mmap(length)
	if err == nil {
		err = attacker.Touch(base, length)
	}
	tr.end(sp)
	tr.end(ph)
	if err != nil {
		return nil, err
	}

	ph = tr.begin(phasePrefix + "plant")
	res := &core.SteeringResult{}
	for _, pi := range rng.Perm(cfg.AttackerPages)[:cfg.ReleasePages] {
		va := base + vm.VirtAddr(pi)*vm.PageSize
		pa, ok := attacker.Translate(va)
		if !ok {
			return nil, fmt.Errorf("attacker page %d not resident", pi)
		}
		res.Planted = append(res.Planted, mm.PFNOf(pa))
		if err := attacker.Munmap(va, vm.PageSize); err != nil {
			return nil, err
		}
	}
	if cfg.AttackerSleeps {
		attacker.Sleep()
	}
	if cfg.NoiseProcs > 0 && cfg.NoiseOps > 0 {
		noise, err := trace.SpawnNoise(m, cfg.VictimCPU, cfg.NoiseProcs, rng.Split())
		if err != nil {
			return nil, err
		}
		if err := noise.Churn(cfg.NoiseOps); err != nil {
			return nil, err
		}
	}
	tr.end(ph)

	ph = tr.begin(phasePrefix + "steer")
	defer tr.end(ph)
	victim, err := m.Spawn("victim", cfg.VictimCPU)
	if err != nil {
		return nil, err
	}
	vbase, err := victim.Mmap(uint64(cfg.VictimRequestPages) * vm.PageSize)
	if err != nil {
		return nil, err
	}
	for p := 0; p < cfg.VictimRequestPages; p++ {
		va := vbase + vm.VirtAddr(p)*vm.PageSize
		if err := victim.Store(va, byte(p)); err != nil {
			return nil, err
		}
		pa, _ := victim.Translate(va)
		res.VictimPFNs = append(res.VictimPFNs, mm.PFNOf(pa))
	}
	res.FirstPageHit = res.VictimPFNs[0] == res.Planted[len(res.Planted)-1]
	planted := make(map[mm.PFN]bool, len(res.Planted))
	for _, p := range res.Planted {
		planted[p] = true
	}
	for _, p := range res.VictimPFNs {
		if planted[p] {
			res.PlantedReused++
		}
	}
	return res, nil
}

// cacheProbe mirrors the CacheProbe-kind trial body: the machine's mapper
// under the LLC geometry its CPU count implies, one cache.Attack per trial.
func (r *replicator) cacheProbe(spec scenario.Spec, rng *stats.RNG) (scenario.CacheProbeTrial, error) {
	tr := r.tr
	defer tr.end(tr.begin(trialPrefix + "cache-probe"))
	ph := tr.begin(phasePrefix + "setup")
	c := registry.MustGet(spec.CipherName())
	ms, err := spec.MachineSpec()
	if err != nil {
		return scenario.CacheProbeTrial{}, err
	}
	cpus := 2
	if ms.CPUs > 0 {
		cpus = ms.CPUs
	}
	budget := spec.Budget
	if budget == 0 {
		budget = scenario.DefaultProbeBudget
	}
	cfg := cache.ProbeConfig{Technique: spec.Probe.Technique, Budget: budget,
		Noise: spec.Probe.Noise, EvictionSet: spec.Probe.EvictionSet}
	mapper, err := dram.NewNamedMapper(ms.MapperName(), ms.Geometry)
	if err != nil {
		return scenario.CacheProbeTrial{}, err
	}
	view, err := cache.NewView(mapper, cache.DefaultGeometry(cpus), cache.DefaultSliceHash(ms.MapperName()))
	if err != nil {
		return scenario.CacheProbeTrial{}, err
	}
	atk, err := cache.NewAttack(view, c, cfg, rng)
	tr.end(ph)
	if err != nil {
		return scenario.CacheProbeTrial{}, err
	}
	ph = tr.begin(phasePrefix + "probe")
	sp := tr.begin("cache.probe")
	res := atk.Run()
	tr.end(sp)
	tr.end(ph)
	r.n.measurements += uint64(res.Measurements)
	return scenario.CacheProbeTrial{
		Nibbles: res.Nibbles, NibbleTotal: res.NibbleTotal, BytesLeaked: res.BytesLeaked,
		Measurements: res.Measurements, EvictionSets: res.EvictionSets, BitErrors: res.BitErrors,
	}, nil
}
