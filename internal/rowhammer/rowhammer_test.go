package rowhammer

import (
	"reflect"
	"testing"

	"explframe/internal/dram"
	"explframe/internal/kernel"
	"explframe/internal/vm"
)

// testMachine builds a small machine with a dense, low-threshold weak cell
// population so templating tests run quickly.
func testMachine(t *testing.T, density float64, seed uint64) (*kernel.Machine, *kernel.Process) {
	t.Helper()
	cfg := kernel.DefaultConfig()
	cfg.Geometry = dram.Geometry{Channels: 1, DIMMs: 1, Ranks: 1, Banks: 4, Rows: 512, RowBytes: 8192}
	cfg.FaultModel = dram.FaultModel{
		WeakCellDensity: density,
		BaseThreshold:   2000,
		ThresholdSpread: 0.5,
		NeighbourWeight: 0.25,
		RefreshInterval: 1 << 20,
		FlipReliability: 1.0,
	}
	cfg.Seed = seed
	m, err := kernel.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Spawn("attacker", 0)
	if err != nil {
		t.Fatal(err)
	}
	return m, p
}

func testEngine(m *kernel.Machine, p *kernel.Process) *Engine {
	cfg := Config{Mode: DoubleSided, PairHammerCount: 4000}
	return New(cfg, m, p)
}

// mapAndTouch maps length bytes and faults every page in.
func mapAndTouch(t *testing.T, p *kernel.Process, length uint64) vm.VirtAddr {
	t.Helper()
	base, err := p.Mmap(length)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Touch(base, length); err != nil {
		t.Fatal(err)
	}
	return base
}

func TestFindAggressorsDoubleSided(t *testing.T) {
	m, p := testMachine(t, 0, 3)
	e := testEngine(m, p)
	const length = 8 << 20 // 8 MiB: every row of the small part is covered
	base := mapAndTouch(t, p, length)

	target := base + 128*vm.PageSize
	agg, err := e.FindAggressors(target, base, length)
	if err != nil {
		t.Fatal(err)
	}
	mapper := m.DRAM().Mapper()
	ta, _ := p.Translate(target)
	ua, _ := p.Translate(agg.Upper)
	la, _ := p.Translate(agg.Lower)
	td, ud, ld := mapper.ToDRAM(ta), mapper.ToDRAM(ua), mapper.ToDRAM(la)
	if mapper.BankGroup(ud) != mapper.BankGroup(td) || mapper.BankGroup(ld) != mapper.BankGroup(td) {
		t.Fatal("aggressors not in the victim's bank")
	}
	if ud.Row != td.Row-1 || ld.Row != td.Row+1 {
		t.Fatalf("aggressor rows %d/%d around victim %d", ud.Row, ld.Row, td.Row)
	}
}

func TestFindAggressorsSingleSided(t *testing.T) {
	m, p := testMachine(t, 0, 3)
	cfg := Config{Mode: SingleSided, PairHammerCount: 4000}
	e := New(cfg, m, p)
	const length = 8 << 20
	base := mapAndTouch(t, p, length)

	agg, err := e.FindAggressors(base+64*vm.PageSize, base, length)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Mode != SingleSided {
		t.Fatal("mode not preserved")
	}
	mapper := m.DRAM().Mapper()
	ta, _ := p.Translate(base + 64*vm.PageSize)
	ua, _ := p.Translate(agg.Upper)
	fa, _ := p.Translate(agg.Lower)
	td, ud, fd := mapper.ToDRAM(ta), mapper.ToDRAM(ua), mapper.ToDRAM(fa)
	if d := ud.Row - td.Row; d != 1 && d != -1 {
		t.Fatalf("near aggressor at distance %d", d)
	}
	if fd.Row == td.Row || fd.Row == td.Row-1 || fd.Row == td.Row+1 {
		t.Fatalf("far conflict row %d too close to victim %d", fd.Row, td.Row)
	}
	if mapper.BankGroup(fd) != mapper.BankGroup(td) {
		t.Fatal("far row in wrong bank")
	}
}

func TestFindAggressorsErrors(t *testing.T) {
	m, p := testMachine(t, 0, 3)
	e := testEngine(m, p)
	base := mapAndTouch(t, p, 64*vm.PageSize)
	// Unresident target.
	other, _ := p.Mmap(vm.PageSize)
	if _, err := e.FindAggressors(other, base, 64*vm.PageSize); err == nil {
		t.Fatal("unresident target accepted")
	}
}

// Templating a region over a weak-cell-rich device must find flips, each of
// which reproduces on demand.
func TestTemplateFindsAndReproducesFlips(t *testing.T) {
	m, p := testMachine(t, 5e-5, 99) // ~670 weak cells in 16 MiB
	e := testEngine(m, p)
	const length = 4 << 20
	base := mapAndTouch(t, p, length)

	flips, err := e.Template(base, length)
	if err != nil {
		t.Fatal(err)
	}
	if len(flips) == 0 {
		t.Fatal("no flips templated at high weak-cell density")
	}
	st := e.Stats()
	if st.RowsScanned == 0 || st.Activations == 0 || st.FlipsFound != uint64(len(flips)) {
		t.Fatalf("stats inconsistent: %+v vs %d flips", st, len(flips))
	}

	// Each flip site must carry a plausible location and reproduce.
	reproduced := 0
	for i, f := range flips {
		if i >= 5 {
			break // bound test time
		}
		if f.ByteInPage < 0 || f.ByteInPage >= vm.PageSize || f.Bit > 7 {
			t.Fatalf("bad flip site: %+v", f)
		}
		pattern := PatternOnes
		if f.From == 0 {
			pattern = PatternZeros
		}
		ok, err := e.Reproduce(f, pattern)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			reproduced++
		}
	}
	if reproduced == 0 {
		t.Fatal("no templated flip reproduced")
	}
}

func TestTemplateMaxFlipsEarlyExit(t *testing.T) {
	m, p := testMachine(t, 5e-5, 99)
	cfg := Config{Mode: DoubleSided, PairHammerCount: 4000, MaxFlips: 1}
	e := New(cfg, m, p)
	const length = 4 << 20
	base := mapAndTouch(t, p, length)
	flips, err := e.Template(base, length)
	if err != nil {
		t.Fatal(err)
	}
	if len(flips) == 0 {
		t.Fatal("expected at least one flip")
	}
	full := testEngine(m, p)
	fullFlips, err := full.Template(base, length)
	if err != nil {
		t.Fatal(err)
	}
	if len(fullFlips) < len(flips) {
		t.Fatalf("full scan found fewer flips (%d) than bounded scan (%d)", len(fullFlips), len(flips))
	}
	if e.Stats().RowsScanned >= full.Stats().RowsScanned {
		t.Fatal("early exit did not reduce scanned rows")
	}
}

// Every site Template reports carries exactly the aggressors FindAggressors
// selects for its page, in each hammering mode: templating and targeted
// re-hammering agree on which rows hammer a given row.
func TestTemplateAggressorsMatchFindAggressors(t *testing.T) {
	for _, cfg := range []Config{
		{Mode: SingleSided, PairHammerCount: 4000},
		{Mode: DoubleSided, PairHammerCount: 4000},
		{Mode: ManySided, PairHammerCount: 4000, Decoys: 4},
	} {
		t.Run(cfg.Mode.String(), func(t *testing.T) {
			m, p := testMachine(t, 5e-5, 99)
			e := New(cfg, m, p)
			const length = 2 << 20
			base := mapAndTouch(t, p, length)
			flips, err := e.Template(base, length)
			if err != nil {
				t.Fatal(err)
			}
			if len(flips) == 0 {
				t.Fatal("no flips templated")
			}
			for _, f := range flips {
				want, err := e.FindAggressors(f.PageVA, base, length)
				if err != nil {
					t.Fatalf("site %#x: %v", uint64(f.VA), err)
				}
				if f.Agg.Mode != cfg.Mode || !reflect.DeepEqual(f.Agg, want) {
					t.Fatalf("site %#x: Template aggressors %+v, FindAggressors %+v", uint64(f.VA), f.Agg, want)
				}
			}
		})
	}
}

// A single hammer run below the cell threshold must not flip; the same run
// above it must.  (Templating sweeps can still flip at lower budgets via
// cross-run accumulation inside one refresh window — the many-sided effect —
// so the single-run semantics are tested against a planted cell.)
func TestHammerBelowThresholdNoFlips(t *testing.T) {
	m, p := testMachine(t, 0, 99)
	const length = 4 << 20
	base := mapAndTouch(t, p, length)

	// Plant a weak cell inside one of the attacker's own resident pages.
	target := base + 512*vm.PageSize
	pa, _ := p.Translate(target)
	mapper := m.DRAM().Mapper()
	da := mapper.ToDRAM(pa)
	m.DRAM().PlantWeakCell(dram.WeakCell{
		Bank: mapper.BankGroup(da), Row: da.Row, ByteInRow: da.Col + 7,
		Bit: 4, Threshold: 2000, FlipTo: 0,
	})
	if err := p.Store(target+7, 0xFF); err != nil {
		t.Fatal(err)
	}

	sub := New(Config{Mode: DoubleSided, PairHammerCount: 400}, m, p)
	agg, err := sub.FindAggressors(target, base, length)
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.HammerDefault(agg); err != nil {
		t.Fatal(err)
	}
	got, _ := p.Load(target + 7)
	if got != 0xFF {
		t.Fatalf("sub-threshold run flipped the cell: %#x", got)
	}

	m.DRAM().Refresh()
	over := New(Config{Mode: DoubleSided, PairHammerCount: 2500}, m, p)
	if err := over.HammerDefault(agg); err != nil {
		t.Fatal(err)
	}
	got, _ = p.Load(target + 7)
	if got != 0xFF&^(1<<4) {
		t.Fatalf("above-threshold run did not flip: %#x", got)
	}
}

// Without weak cells templating finds nothing (defence baseline: a sound
// DRAM module).
func TestTemplateCleanDevice(t *testing.T) {
	m, p := testMachine(t, 0, 5)
	e := testEngine(m, p)
	const length = 2 << 20
	base := mapAndTouch(t, p, length)
	flips, err := e.Template(base, length)
	if err != nil {
		t.Fatal(err)
	}
	if len(flips) != 0 {
		t.Fatalf("flips on a clean device: %v", flips)
	}
}

func TestModeString(t *testing.T) {
	if SingleSided.String() != "single-sided" || DoubleSided.String() != "double-sided" || ManySided.String() != "many-sided" {
		t.Fatal("mode names")
	}
}

// Many-sided aggressor selection: the double-sided pair plus the requested
// decoys, all in the victim's bank and away from it.
func TestFindAggressorsManySided(t *testing.T) {
	m, p := testMachine(t, 0, 3)
	cfg := Config{Mode: ManySided, PairHammerCount: 1000, Decoys: 6}
	e := New(cfg, m, p)
	const length = 8 << 20
	base := mapAndTouch(t, p, length)

	target := base + 200*vm.PageSize
	agg, err := e.FindAggressors(target, base, length)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Mode != ManySided || len(agg.Decoys) != 6 {
		t.Fatalf("aggressors: mode=%v decoys=%d", agg.Mode, len(agg.Decoys))
	}
	mapper := m.DRAM().Mapper()
	ta, _ := p.Translate(target)
	td := mapper.ToDRAM(ta)
	for _, dva := range agg.Decoys {
		pa, _ := p.Translate(dva)
		da := mapper.ToDRAM(pa)
		if mapper.BankGroup(da) != mapper.BankGroup(td) {
			t.Fatal("decoy in wrong bank")
		}
		if dr := da.Row - td.Row; dr >= -3 && dr <= 3 {
			t.Fatalf("decoy too close to the victim: distance %d", dr)
		}
	}
}

// A many-sided run on a TRR-protected device flips where double-sided
// cannot: the end-to-end TRRespass bypass at the engine level.
func TestManySidedBeatsTRR(t *testing.T) {
	build := func(mode Mode, decoys int) (*kernel.Machine, *kernel.Process, *Engine, vm.VirtAddr) {
		cfg := kernel.DefaultConfig()
		cfg.Geometry = dram.Geometry{Channels: 1, DIMMs: 1, Ranks: 1, Banks: 4, Rows: 512, RowBytes: 8192}
		cfg.FaultModel = dram.FaultModel{
			WeakCellDensity: 0,
			BaseThreshold:   2000,
			ThresholdSpread: 0,
			NeighbourWeight: 0.25,
			RefreshInterval: 1 << 22,
			FlipReliability: 1.0,
			TRR:             dram.TRRConfig{Enabled: true, TrackerSize: 4, Threshold: 300},
		}
		cfg.Seed = 5
		m, err := kernel.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := m.Spawn("attacker", 0)
		base := mapAndTouch(t, p, 8<<20)
		e := New(Config{Mode: mode, PairHammerCount: 3000, Decoys: decoys}, m, p)
		return m, p, e, base
	}

	// Plant the same weak cell in both machines at an attacker page.
	plant := func(m *kernel.Machine, p *kernel.Process, base vm.VirtAddr) vm.VirtAddr {
		target := base + 512*vm.PageSize
		pa, _ := p.Translate(target)
		da := m.DRAM().Mapper().ToDRAM(pa)
		m.DRAM().PlantWeakCell(dram.WeakCell{
			Bank: m.DRAM().Mapper().BankGroup(da), Row: da.Row,
			ByteInRow: da.Col, Bit: 2, Threshold: 2000, FlipTo: 0,
		})
		if err := p.Store(target, 0xFF); err != nil {
			t.Fatal(err)
		}
		return target
	}

	// Double-sided: TRR protects.
	m1, p1, e1, base1 := build(DoubleSided, 0)
	t1 := plant(m1, p1, base1)
	agg1, err := e1.FindAggressors(t1, base1, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.HammerDefault(agg1); err != nil {
		t.Fatal(err)
	}
	if got, _ := p1.Load(t1); got != 0xFF {
		t.Fatalf("TRR failed to stop double-sided: %#x", got)
	}

	// Many-sided with 8 decoys (> tracker size 4): flips.
	m2, p2, e2, base2 := build(ManySided, 8)
	t2 := plant(m2, p2, base2)
	agg2, err := e2.FindAggressors(t2, base2, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.HammerDefault(agg2); err != nil {
		t.Fatal(err)
	}
	if got, _ := p2.Load(t2); got != 0xFF&^(1<<2) {
		t.Fatalf("many-sided failed to bypass TRR: %#x", got)
	}
}

// Two weak cells in one byte both flip on every hammer run.  Each templated
// site must still reproduce: Reproduce compares only its own bit, so the
// other cell's flip in the same byte does not hide the reproduction.
func TestReproduceTwoCellsInOneByte(t *testing.T) {
	m, p := testMachine(t, 0, 99)
	const length = 4 << 20
	base := mapAndTouch(t, p, length)

	target := base + 512*vm.PageSize + 7
	pa, _ := p.Translate(target)
	mapper := m.DRAM().Mapper()
	da := mapper.ToDRAM(pa)
	for _, bit := range []uint8{2, 5} {
		m.DRAM().PlantWeakCell(dram.WeakCell{
			Bank: mapper.BankGroup(da), Row: da.Row, ByteInRow: da.Col,
			Bit: bit, Threshold: 2000, FlipTo: 0,
		})
	}

	e := testEngine(m, p)
	flips, err := e.Template(base, length)
	if err != nil {
		t.Fatal(err)
	}
	var bits []uint8
	for _, f := range flips {
		if f.VA != target {
			t.Fatalf("flip at %#x, only %#x holds weak cells", uint64(f.VA), uint64(target))
		}
		bits = append(bits, f.Bit)
		m.DRAM().Refresh()
		ok, err := e.Reproduce(f, PatternOnes)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("site bit %d did not reproduce", f.Bit)
		}
		if got, _ := p.Load(target); got != 0xFF&^(1<<2|1<<5) {
			t.Fatalf("re-hammered byte %#x, want both cells flipped", got)
		}
	}
	if !reflect.DeepEqual(bits, []uint8{2, 5}) {
		t.Fatalf("templated bits %v, want [2 5]", bits)
	}
}
