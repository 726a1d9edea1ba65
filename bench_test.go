// Benchmarks of the paper's pipeline and of the substrate under it.
// BenchmarkTable times each experiment table E1..E18 (see docs/RESULTS.md)
// exactly as cmd/report builds it, BenchmarkPresetTrial one trial of each
// scenario preset through scenario.Run, and BenchmarkE6EndToEnd one attack
// trial with its success rate and ciphertext cost; the rest are
// microbenchmarks of the substrate primitives.  Run them all once with
// go test -run '^$' -bench . -benchtime 1x .
package explframe_test

import (
	"context"
	"encoding/binary"
	"testing"

	"explframe/internal/bench"
	"explframe/internal/cipher/lilliput"
	"explframe/internal/cipher/present"
	"explframe/internal/cipher/registry"
	"explframe/internal/core"
	"explframe/internal/dram"
	"explframe/internal/experiments"
	"explframe/internal/kernel"
	"explframe/internal/machine"
	"explframe/internal/mm"
	"explframe/internal/scenario"
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
	pks, _ := present.Engine.Expand(key)
	lks, _ := lilliput.Engine.Expand(key)
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
