// Benchmarks: one per experiment table E1..E14 (see docs/RESULTS.md) plus
// microbenchmarks of the substrate primitives.  The experiment benches run
// one trial per iteration and report the experiment's headline metric via
// b.ReportMetric; the full tables regenerate with cmd/benchtab.
package explframe_test

import (
	"encoding/binary"
	"testing"

	"explframe/internal/bench"
	"explframe/internal/cipher/aes"
	"explframe/internal/cipher/lilliput"
	"explframe/internal/cipher/present"
	"explframe/internal/cipher/registry"
	"explframe/internal/core"
	"explframe/internal/dram"
	"explframe/internal/fault"
	"explframe/internal/fault/dfa"
	"explframe/internal/fault/pfa"
	"explframe/internal/kernel"
	"explframe/internal/machine"
	"explframe/internal/mm"
	"explframe/internal/rowhammer"
	"explframe/internal/stats"
	"explframe/internal/vm"
)

// --- experiment benches -------------------------------------------------

// BenchmarkE1Buddy measures one alloc/free churn step on the buddy
// allocator (table E1).
func BenchmarkE1Buddy(b *testing.B) {
	pm, err := mm.New(mm.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(1)
	type blk struct {
		p     mm.PFN
		order int
	}
	var live []blk
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rng.Bool(0.55) || len(live) == 0 {
			order := rng.Intn(6)
			if p, err := pm.AllocPages(0, order); err == nil {
				live = append(live, blk{p, order})
			}
		} else {
			j := rng.Intn(len(live))
			if err := pm.FreePages(0, live[j].p, live[j].order); err != nil {
				b.Fatal(err)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
}

// BenchmarkE2SelfReuse runs one self-reuse trial per iteration and reports
// the reuse fraction for a small request (table E2).
func BenchmarkE2SelfReuse(b *testing.B) {
	sum := 0.0
	for i := 0; i < b.N; i++ {
		frac, err := core.SelfReuseTrial(uint64(i), kernel.Config{}, 4, 4)
		if err != nil {
			b.Fatal(err)
		}
		sum += frac
	}
	b.ReportMetric(sum/float64(b.N), "reuse_frac")
}

// BenchmarkE3Steering runs one same-CPU steering trial per iteration and
// reports the hit rate (table E3).
func BenchmarkE3Steering(b *testing.B) {
	hits := 0
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultSteeringConfig()
		cfg.Seed = uint64(i)
		res, err := core.RunSteeringTrial(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.FirstPageHit {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "steer_rate")
}

// hammerBench builds a machine and a resident attacker buffer for the
// hammer benches: the geometry and fault model of the E4/E5 experiments'
// hammer machine, at the given weak-cell density.
func hammerBench(b *testing.B, density float64) (*kernel.Machine, *kernel.Process, vm.VirtAddr, uint64) {
	b.Helper()
	cfg := kernel.DefaultConfig()
	cfg.Geometry = dram.Geometry{Channels: 1, DIMMs: 1, Ranks: 1, Banks: 4, Rows: 1024, RowBytes: 8192}
	cfg.FaultModel = dram.FaultModel{
		WeakCellDensity: density,
		BaseThreshold:   4000,
		ThresholdSpread: 1.5,
		NeighbourWeight: 0.25,
		RefreshInterval: 1 << 21,
		FlipReliability: 0.98,
	}
	m, err := kernel.NewMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p, err := m.Spawn("attacker", 0)
	if err != nil {
		b.Fatal(err)
	}
	const length = 4 << 20
	base, err := p.Mmap(length)
	if err != nil {
		b.Fatal(err)
	}
	if err := p.Touch(base, length); err != nil {
		b.Fatal(err)
	}
	return m, p, base, length
}

// BenchmarkE4HammerOnset measures one double-sided hammer run at the E4
// operating point (figure E4).
func BenchmarkE4HammerOnset(b *testing.B) {
	m, p, base, length := hammerBench(b, 8e-5)
	eng := rowhammer.New(rowhammer.Config{Mode: rowhammer.DoubleSided, PairHammerCount: 6000}, m, p)
	agg, err := eng.FindAggressors(base+64*vm.PageSize, base, length)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.HammerDefault(agg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(eng.Stats().Activations)/float64(b.N), "activations/op")
}

// BenchmarkE5Repro measures one re-hammer reproduction of a templated flip
// (table E5).
func BenchmarkE5Repro(b *testing.B) {
	m, p, base, length := hammerBench(b, 2e-4)
	eng := rowhammer.New(rowhammer.Config{Mode: rowhammer.DoubleSided, PairHammerCount: 10000, MaxFlips: 1}, m, p)
	flips, err := eng.Template(base, length)
	if err != nil || len(flips) == 0 {
		b.Fatalf("no flip to reproduce: %v", err)
	}
	f := flips[0]
	pattern := rowhammer.PatternOnes
	if f.From == 0 {
		pattern = rowhammer.PatternZeros
	}
	ok := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.DRAM().Refresh()
		re, err := eng.Reproduce(f, pattern)
		if err != nil {
			b.Fatal(err)
		}
		if re {
			ok++
		}
	}
	b.ReportMetric(float64(ok)/float64(b.N), "repro_rate")
}

// BenchmarkE6EndToEnd runs one full attack per iteration and reports the
// success rate and ciphertext cost (table E6).  The flip reliability is
// pinned to 1 so the bench measures pipeline cost deterministically; the
// stochastic success statistics are E6's table, not this metric.
func BenchmarkE6EndToEnd(b *testing.B) {
	wins, cts := 0, 0
	for i := 0; i < b.N; i++ {
		cfg := core.ConfigForMachine(machine.MustGet("fast"), uint64(i)+1)
		cfg.Machine.FaultModel.FlipReliability = 1
		atk, err := core.NewAttack(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := atk.Run()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Success() {
			wins++
			cts += rep.CiphertextsUsed
		}
	}
	b.ReportMetric(float64(wins)/float64(b.N), "success_rate")
	if wins > 0 {
		b.ReportMetric(float64(cts)/float64(wins), "ciphertexts")
	}
}

// BenchmarkE7PFA measures one complete known-fault PFA key recovery on
// AES-128 (figure E7).
func BenchmarkE7PFA(b *testing.B) {
	rng := stats.NewRNG(9)
	key := make([]byte, 16)
	rng.Bytes(key)
	ks, _ := aes.Expand(key)
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		faulty := aes.SBox()
		v := rng.Intn(256)
		yStar := faulty[v]
		faulty[v] ^= 1 << uint(rng.Intn(8))
		col := pfa.NewCollector(registry.MustGet("aes-128"))
		pt := make([]byte, 16)
		ct := make([]byte, 16)
		for n := 1; ; n++ {
			rng.Bytes(pt)
			aes.EncryptBlock(ks, &faulty, ct, pt)
			col.Observe(ct)
			if n%256 == 0 {
				if _, err := col.RecoverLastRoundKeyKnownFault(yStar); err == nil {
					total += n
					break
				}
			}
		}
	}
	b.ReportMetric(float64(total)/float64(b.N), "ciphertexts")
}

// BenchmarkE8Baselines runs one random-spray baseline trial per iteration
// (table E8).
func BenchmarkE8Baselines(b *testing.B) {
	hits := 0
	for i := 0; i < b.N; i++ {
		cfg := core.ConfigForMachine(machine.MustGet("fast"), uint64(i)+1)
		res, err := core.RunBaselineTrial(cfg, core.RandomSpray)
		if err != nil {
			b.Fatal(err)
		}
		if res.TableCorrupted {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "corrupt_rate")
}

// BenchmarkE9DFAvsPFA measures one DFA recovery from 8 fault pairs (table
// E9's transient-fault row), through the registered AES analyzer.
func BenchmarkE9DFAvsPFA(b *testing.B) {
	rng := stats.NewRNG(3)
	c := registry.MustGet("aes-128")
	a := dfa.MustGet("aes-128")
	key := make([]byte, 16)
	rng.Bytes(key)
	inst, err := c.New(key)
	if err != nil {
		b.Fatal(err)
	}
	table := c.SBox()
	unique := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var pairs []dfa.Pair
		pt := make([]byte, 16)
		for fb := 0; fb < 4; fb++ {
			m := fault.New(fault.PreciseByte, fault.WithPosition(fb))
			for n := 0; n < 2; n++ {
				rng.Bytes(pt)
				p, err := dfa.CollectPair(c, inst, table, pt, m, rng)
				if err != nil {
					b.Fatal(err)
				}
				pairs = append(pairs, p)
			}
		}
		res, err := a.Analyze(pairs, fault.New(fault.PreciseByte))
		if err == nil && res.Unique {
			unique++
		}
	}
	b.ReportMetric(float64(unique)/float64(b.N), "unique_rate")
}

// BenchmarkE10Present measures one PRESENT-80 PFA recovery including the
// 2^16 key-schedule completion (table E10).
func BenchmarkE10Present(b *testing.B) {
	rng := stats.NewRNG(4)
	key := make([]byte, 10)
	rng.Bytes(key)
	c := registry.MustGet("present-80")
	inst, _ := c.New(key)
	cleanPT := binary.BigEndian.AppendUint64(nil, rng.Uint64())
	cleanCT := make([]byte, 8)
	inst.Encrypt(c.SBox(), cleanCT, cleanPT)
	pt := make([]byte, 8)
	ct := make([]byte, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		faulty := c.SBox()
		v := rng.Intn(16)
		yStar := faulty[v]
		faulty[v] ^= byte(1 << uint(rng.Intn(4)))
		col := pfa.NewCollector(c)
		for n := 1; ; n++ {
			binary.BigEndian.PutUint64(pt, rng.Uint64())
			inst.Encrypt(faulty, ct, pt)
			col.Observe(ct)
			if n%64 == 0 {
				if _, err := col.RecoverMasterKnownFault(yStar, cleanPT, cleanCT); err == nil {
					break
				}
			}
		}
	}
}

// BenchmarkE11ActiveWait contrasts active- and sleeping-attacker steering
// (table E11): the metric is the sleeping-attacker hit rate (expected 0).
func BenchmarkE11ActiveWait(b *testing.B) {
	hits := 0
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultSteeringConfig()
		cfg.Seed = uint64(i)
		cfg.AttackerSleeps = true
		res, err := core.RunSteeringTrial(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.FirstPageHit {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "sleep_steer_rate")
}

// BenchmarkE12Zones measures one full allocation-pressure sweep (table E12).
func BenchmarkE12Zones(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := mm.DefaultConfig()
		cfg.TotalBytes = 64 << 20
		pm, err := mm.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := pm.AllocPages(0, 0); err != nil {
				break
			}
		}
		if pm.Stats(mm.ZoneDMA).Fallbacks == 0 {
			b.Fatal("no fallback observed")
		}
	}
}

// BenchmarkE13Defences measures a TRR-protected double-sided hammer run:
// the defence's cost is extra refreshes, the attack's cost is total loss of
// flips (table E13).  The metric is the flip count, expected 0.
func BenchmarkE13Defences(b *testing.B) {
	cfg := kernel.DefaultConfig()
	cfg.Geometry = dram.Geometry{Channels: 1, DIMMs: 1, Ranks: 1, Banks: 4, Rows: 1024, RowBytes: 8192}
	cfg.FaultModel = dram.FaultModel{
		WeakCellDensity: 2e-4,
		BaseThreshold:   1500,
		ThresholdSpread: 0.5,
		NeighbourWeight: 0.25,
		RefreshInterval: 1 << 21,
		FlipReliability: 1,
		TRR:             dram.TRRConfig{Enabled: true, TrackerSize: 4, Threshold: 300},
	}
	m, err := kernel.NewMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p, _ := m.Spawn("attacker", 0)
	const length = 2 << 20
	base, _ := p.Mmap(length)
	if err := p.Touch(base, length); err != nil {
		b.Fatal(err)
	}
	eng := rowhammer.New(rowhammer.Config{Mode: rowhammer.DoubleSided, PairHammerCount: 3200}, m, p)
	agg, err := eng.FindAggressors(base+64*vm.PageSize, base, length)
	if err != nil {
		b.Fatal(err)
	}
	before := m.DRAM().Stats().BitFlips
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.HammerDefault(agg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.DRAM().Stats().BitFlips-before), "flips_total")
	b.ReportMetric(float64(m.DRAM().Stats().TRRRefreshes)/float64(b.N), "trr_refreshes/op")
}

// BenchmarkE14PCPPolicy runs one FIFO-ablated steering trial per iteration
// (table E14); the hit rate is expected to be 0.
func BenchmarkE14PCPPolicy(b *testing.B) {
	hits := 0
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultSteeringConfig()
		cfg.Seed = uint64(i)
		cfg.Machine.PCPFIFO = true
		res, err := core.RunSteeringTrial(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.FirstPageHit {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "fifo_steer_rate")
}

// --- substrate microbenches ----------------------------------------------

func BenchmarkAESEncryptBlock(b *testing.B) {
	ks, _ := aes.Expand(make([]byte, 16))
	sb := aes.SBox()
	src := make([]byte, 16)
	dst := make([]byte, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aes.EncryptBlock(ks, &sb, dst, src)
	}
}

func BenchmarkPresentEncryptBlock(b *testing.B) {
	rk, _ := present.Expand(make([]byte, 10))
	sb := present.SBox()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		present.Engine.Encrypt(rk, &sb, uint64(i))
	}
}

func BenchmarkBuddyAllocFreeOrder3(b *testing.B) {
	pm, _ := mm.New(mm.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := pm.AllocPages(0, 3)
		if err != nil {
			b.Fatal(err)
		}
		if err := pm.FreePages(0, p, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPCPAllocFree(b *testing.B) {
	pm, _ := mm.New(mm.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := pm.AllocPages(0, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := pm.FreePages(0, p, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDRAMActivate(b *testing.B) {
	dev, _ := dram.NewDevice(dram.DefaultGeometry(), dram.DefaultFaultModel(), 1)
	m := dev.Mapper()
	a := m.ToDRAM(0)
	p1 := m.SameBankRow(a, 100, 0)
	p2 := m.SameBankRow(a, 200, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.ActivateRow(p1)
		dev.ActivateRow(p2)
	}
}

func BenchmarkPageTableMapUnmap(b *testing.B) {
	pt := vm.NewPageTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := vm.VirtAddr(uint64(i%1024) * vm.PageSize)
		if err := pt.Map(va, mm.PFN(i), true); err != nil {
			b.Fatal(err)
		}
		pt.Unmap(va)
	}
}

func BenchmarkProcessLoad(b *testing.B) {
	m, _ := kernel.NewMachine(kernel.DefaultConfig())
	p, _ := m.Spawn("bench", 0)
	base, _ := p.Mmap(64 * vm.PageSize)
	p.Touch(base, 64*vm.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Load(base + vm.VirtAddr(i%(64*vm.PageSize))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSparseDeviceConstruction measures NewDevice for an 8 GiB
// geometry with the default weak-cell population: the sparse backing store
// makes this proportional to the weak-cell count (plus one int32 per row),
// not the capacity.  allocs/op and B/op are the headline numbers; the
// asserted ceiling lives in machine.TestLargeDeviceConstructionIsSparse.
func BenchmarkSparseDeviceConstruction(b *testing.B) {
	g := dram.Geometry{Channels: 1, DIMMs: 1, Ranks: 1, Banks: 16, Rows: 1 << 16, RowBytes: 8192}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dram.NewDevice(g, dram.DefaultFaultModel(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHammerLoopSteadyState measures the post-warm-up hammer loop on
// the default machine with allocation reporting — the zero-alloc contract
// `benchtab -check-trajectory` enforces in CI.
func BenchmarkHammerLoopSteadyState(b *testing.B) {
	p, vas, err := bench.NewHammerBench(machine.MustGet("default"), 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := p.HammerLoop(vas, 1<<21); err != nil { // past one refresh window
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := p.HammerLoop(vas, b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHammerLoopPerMachine times the translation-cached hammer loop on
// every registered machine profile — the in-tree counterpart of the
// trajectory's per-machine hammer rows (interface-dispatched mapper, TRR
// sampling and geometry differences all land in this number).
func BenchmarkHammerLoopPerMachine(b *testing.B) {
	for _, name := range machine.Names() {
		b.Run(name, func(b *testing.B) {
			p, vas, err := bench.NewHammerBench(machine.MustGet(name), 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if err := p.HammerLoop(vas, b.N); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(vas)), "activations/op")
		})
	}
}

// BenchmarkPrimeProbe measures one steady-state Prime+Probe measurement
// window (prime, victim encryption, probe) over the same deterministic
// workload benchtab's trajectory probe rows are measured with
// (bench.NewProbeBench), with allocation reporting — the zero-alloc probe
// contract `benchtab -check-trajectory` enforces in CI.
func BenchmarkPrimeProbe(b *testing.B) {
	atk, err := bench.NewProbeBench("prime-probe")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ { // past the one-time fills and accumulator growth
		atk.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		atk.Step()
	}
}

// BenchmarkEncryptBatchPerCipher times every registered cipher's encrypt
// core through the scalar path and through the full-width batch (bitsliced)
// path, over the same deterministic workload benchtab's trajectory rows are
// measured with (bench.NewCipherCoreBench), so benchmark and trajectory
// cannot drift.  ns/op divided by lanes is the trajectory's ns/encryption.
func BenchmarkEncryptBatchPerCipher(b *testing.B) {
	for _, name := range registry.Names() {
		c, ok := registry.Get(name)
		if !ok {
			b.Fatalf("cipher %q vanished from the registry", name)
		}
		inst, table, dst, src, err := bench.NewCipherCoreBench(c)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/scalar", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				registry.ScalarEncryptBatch(inst, table, dst, src)
			}
			b.ReportMetric(float64(len(src)), "encryptions/op")
		})
		b.Run(name+"/bitsliced", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				inst.EncryptBatch(table, dst, src)
			}
			b.ReportMetric(float64(len(src)), "encryptions/op")
		})
	}
}

// BenchmarkRecoverMaster times the 80-bit ciphers' schedule completion
// (RecoverMaster over the 16 register bits the last round key hides)
// through the registry.  "hit" starts from the true last round key; "miss"
// flips one of its bits, so every one of the 2^16 guesses fails — the case
// the multi-fault search and the LILLIPUT DFA end-game pay most often.
func BenchmarkRecoverMaster(b *testing.B) {
	key := []byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef, 0x01, 0x23}
	pks, _ := present.Expand(key)
	lks, _ := lilliput.Expand(key)
	for _, tc := range []struct {
		name  string
		klast uint64
	}{
		{"present-80", pks[present.Rounds]},
		{"lilliput-80", lks[lilliput.Rounds]},
	} {
		c := registry.MustGet(tc.name)
		inst, err := c.New(key)
		if err != nil {
			b.Fatal(err)
		}
		pt := []byte{0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77}
		ct := make([]byte, 8)
		inst.Encrypt(c.SBox(), ct, pt)
		for _, sub := range []struct {
			name string
			flip uint64
		}{{"hit", 0}, {"miss", 1}} {
			klast := make([]byte, 8)
			binary.BigEndian.PutUint64(klast, tc.klast^sub.flip)
			want := sub.flip == 0
			b.Run(tc.name+"/"+sub.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, ok := c.RecoverMaster(klast, pt, ct); ok != want {
						b.Fatalf("RecoverMaster ok = %v, want %v", ok, want)
					}
				}
			})
		}
	}
}
