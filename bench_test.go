// Benchmarks of the paper's pipeline and of the substrate under it.
// BenchmarkTable times each experiment table E1..E18 (see docs/RESULTS.md)
// exactly as cmd/report builds it, BenchmarkPresetTrial one trial of each
// scenario preset through scenario.Run, and BenchmarkE6EndToEnd one attack
// trial with its success rate and ciphertext cost; the rest are
// microbenchmarks of the substrate primitives and of the PFA readiness
// poll.  Run them all once with
// go test -run '^$' -bench . -benchtime 1x .
package explframe_test

import (
	"context"
	"encoding/binary"
	"errors"
	"testing"

	"explframe/internal/bench"
	"explframe/internal/cipher/bitslice"
	"explframe/internal/cipher/lilliput"
	"explframe/internal/cipher/present"
	"explframe/internal/cipher/registry"
	"explframe/internal/core"
	"explframe/internal/dram"
	"explframe/internal/experiments"
	"explframe/internal/fault/pfa"
	"explframe/internal/kernel"
	"explframe/internal/machine"
	"explframe/internal/mm"
	"explframe/internal/scenario"
	"explframe/internal/stats"
	"explframe/internal/vm"
)

// --- pipeline benches ---------------------------------------------------

// BenchmarkTable builds each experiment table at seed 1 per iteration, the
// cost cmd/report and the table tests pay per table.
func BenchmarkTable(b *testing.B) {
	for _, r := range experiments.All() {
		b.Run(r.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := r.Run(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPresetTrial runs one trial of each scenario preset per
// iteration, on a fresh seed each time, through scenario.Run: the per-kind
// trial body that sweeps, campaigns and the service run too.
func BenchmarkPresetTrial(b *testing.B) {
	for _, p := range scenario.Presets() {
		b.Run(p.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				spec := p.Spec.With(scenario.WithTrials(1), scenario.WithSeed(uint64(i)+1))
				if _, err := scenario.Run(context.Background(), spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6EndToEnd runs one full attack per iteration and reports the
// success rate and ciphertext cost (table E6).  The flip reliability is
// pinned to 1 so the bench measures pipeline cost deterministically; the
// stochastic success statistics are E6's table, not this metric.
// Iterations cycle through a fixed seed list, so the work per op does not
// grow or shrink with -benchtime.
func BenchmarkE6EndToEnd(b *testing.B) {
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	wins, cts := 0, 0
	for i := 0; i < b.N; i++ {
		cfg := core.ConfigForMachine(machine.MustGet("fast"), seeds[i%len(seeds)])
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

// --- substrate microbenches ----------------------------------------------

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

// newLinearDevice builds a default-model device on the linear mapper.
func newLinearDevice(g dram.Geometry) (*dram.Device, error) {
	m, err := dram.NewNamedMapper(dram.MapperLinear, g)
	if err != nil {
		return nil, err
	}
	return dram.NewDeviceWithMapper(m, dram.DefaultFaultModel(), 1)
}

func BenchmarkDRAMActivate(b *testing.B) {
	dev, _ := newLinearDevice(dram.DefaultGeometry())
	m := dev.Mapper()
	a := m.ToDRAM(0)
	a.Row = 100
	p1 := m.ToPhys(a)
	a.Row = 200
	p2 := m.ToPhys(a)
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
		if err := pt.Map(va, mm.PFN(i)); err != nil {
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

// BenchmarkSparseDeviceConstruction measures device construction for an 8 GiB
// geometry with the default weak-cell population: the sparse backing store
// makes this proportional to the weak-cell count (plus one int32 per row),
// not the capacity.  allocs/op and B/op are the headline numbers; the
// asserted ceiling lives in machine.TestLargeDeviceConstructionIsSparse.
func BenchmarkSparseDeviceConstruction(b *testing.B) {
	g := dram.Geometry{Channels: 1, DIMMs: 1, Ranks: 1, Banks: 16, Rows: 1 << 16, RowBytes: 8192}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := newLinearDevice(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHammerLoopSteadyState measures the post-warm-up hammer loop on
// the default machine with allocation reporting — the zero-alloc contract
// `benchtab -check-trajectory` enforces in CI.
func BenchmarkHammerLoopSteadyState(b *testing.B) {
	p, vas, err := bench.NewHammerBench(machine.MustGet("default"))
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
			p, vas, err := bench.NewHammerBench(machine.MustGet(name))
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

// BenchmarkPFAReadiness times one PFA readiness poll per cipher: one
// Observe plus one RecoverLastRoundKeyKnownFault, the step the PFA trial
// bodies take after every faulty ciphertext.  The collector is fed the
// ciphertexts of a random key and single-bit fault up to one short of
// recovery; each op then re-observes one of those ciphertexts, so every
// poll sees the same just-underdetermined state.
func BenchmarkPFAReadiness(b *testing.B) {
	for _, name := range registry.Names() {
		c := registry.MustGet(name)
		rng := stats.NewRNG(1)
		key := make([]byte, c.KeyBytes())
		rng.Bytes(key)
		inst, err := c.New(key)
		if err != nil {
			b.Fatal(err)
		}
		faulty := c.SBox()
		v := rng.Intn(c.TableLen())
		yStar := faulty[v]
		faulty[v] ^= 1 << uint(rng.Intn(c.EntryBits()))

		col := pfa.NewCollector(c)
		var cts [][]byte
		for {
			pt, ct := make([]byte, c.BlockSize()), make([]byte, c.BlockSize())
			rng.Bytes(pt)
			inst.Encrypt(faulty, ct, pt)
			if err := col.Observe(ct); err != nil {
				b.Fatal(err)
			}
			if _, err := col.RecoverLastRoundKeyKnownFault(yStar); err == nil {
				break
			}
			cts = append(cts, ct)
		}
		b.Run(name, func(b *testing.B) {
			col := pfa.NewCollector(c)
			if err := col.ObserveBatch(cts); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := col.Observe(cts[i%len(cts)]); err != nil {
					b.Fatal(err)
				}
				if _, err := col.RecoverLastRoundKeyKnownFault(yStar); !errors.Is(err, pfa.ErrUnderdetermined) {
					b.Fatalf("poll returned %v, want underdetermined", err)
				}
			}
		})
	}
}

// BenchmarkRecoverMaster times the 80-bit ciphers' schedule completion
// (RecoverMaster over the 16 register bits the last round key hides)
// through the registry.  "hit" starts from the true last round key; "miss"
// flips one of its bits, so every one of the 2^16 guesses fails — the case
// the multi-fault search and the LILLIPUT DFA end-game pay most often.
// Both run the full search.  "hinted" is the completion of a seeded
// single-fault PFA trial, stopped where the collector first pins the last
// round key and handed its faulty ciphertexts as a FaultHint, as the PFA
// trials and the attack do.  Each case reports the guesses it tests.
func BenchmarkRecoverMaster(b *testing.B) {
	key := []byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef, 0x01, 0x23}
	pt := []byte{0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77}
	for _, tc := range []struct {
		name string
		e    *bitslice.SPN64
	}{
		{"present-80", present.Engine},
		{"lilliput-80", lilliput.Engine},
	} {
		c := registry.MustGet(tc.name)
		inst, err := c.New(key)
		if err != nil {
			b.Fatal(err)
		}
		ct := make([]byte, 8)
		inst.Encrypt(c.SBox(), ct, pt)
		rk, _ := tc.e.Expand(key)
		klast := make([]byte, 8)
		binary.BigEndian.PutUint64(klast, rk[tc.e.Rounds])
		miss := binary.BigEndian.AppendUint64(nil, rk[tc.e.Rounds]^1)
		hintLast, hint := faultyTrialHint(b, c, inst)
		for _, sub := range []struct {
			name  string
			klast []byte
			hint  *registry.FaultHint
		}{{"hit", klast, nil}, {"miss", miss, nil}, {"hinted", hintLast, hint}} {
			want := sub.name != "miss"
			var out bitslice.RuledOut
			if sub.hint != nil {
				out = tc.e.RuleOut(binary.BigEndian.Uint64(sub.klast), sub.hint.Ciphertexts, sub.hint.Vanished, sub.hint.Doubled)
			}
			_, guesses, _ := tc.e.RecoverMaster80(binary.BigEndian.Uint64(sub.klast), binary.BigEndian.Uint64(pt), binary.BigEndian.Uint64(ct), out)
			b.Run(tc.name+"/"+sub.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, ok := c.RecoverMaster(sub.klast, pt, ct, sub.hint); ok != want {
						b.Fatalf("RecoverMaster ok = %v, want %v", ok, want)
					}
				}
				b.ReportMetric(float64(guesses), "guesses/op")
			})
		}
	}
}

// faultyTrialHint runs a seeded single-bit table fault against inst until
// the collector pins the last round key, and returns that key with the
// FaultHint the collector's master-key completion receives.
func faultyTrialHint(b *testing.B, c registry.Cipher, inst registry.Instance) ([]byte, *registry.FaultHint) {
	rng := stats.NewRNG(7)
	faulty := c.SBox()
	v := rng.Intn(c.TableLen())
	hint := &registry.FaultHint{Vanished: faulty[v]}
	faulty[v] ^= 1 << uint(rng.Intn(c.EntryBits()))
	hint.Doubled = faulty[v]
	col := pfa.NewCollector(c)
	pt, ct := make([]byte, c.BlockSize()), make([]byte, c.BlockSize())
	for {
		rng.Bytes(pt)
		inst.Encrypt(faulty, ct, pt)
		if err := col.Observe(ct); err != nil {
			b.Fatal(err)
		}
		hint.Ciphertexts = append(hint.Ciphertexts, ct...)
		if last, err := col.RecoverLastRoundKeyKnownFault(hint.Vanished); err == nil {
			return last, hint
		}
	}
}
