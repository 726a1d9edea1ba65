package kernel

import (
	"bytes"
	"errors"
	"testing"

	"explframe/internal/dram"
	"explframe/internal/mm"
	"explframe/internal/vm"
)

// mappedPages counts the process's present page-table translations.
func mappedPages(p *Process) int {
	n := 0
	p.as.PT.Walk(func(vm.VirtAddr, vm.PTE) { n++ })
	return n
}

func newTestMachine(t *testing.T) *Machine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Geometry = dram.Geometry{Channels: 1, DIMMs: 1, Ranks: 1, Banks: 8, Rows: 1024, RowBytes: 8192}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	return m
}

func TestSpawnAndPin(t *testing.T) {
	m := newTestMachine(t)
	p, err := m.Spawn("proc", 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.CPU() != 1 || p.State() != StateRunning || p.Name() != "proc" {
		t.Fatalf("unexpected process: %+v", p)
	}
	if _, err := m.Spawn("bad", 5); err == nil {
		t.Fatal("spawn on missing cpu accepted")
	}
}

func TestDemandPaging(t *testing.T) {
	m := newTestMachine(t)
	p, _ := m.Spawn("a", 0)
	base, err := p.Mmap(8 * vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	// No frames allocated yet.
	if mappedPages(p) != 0 {
		t.Fatal("mmap allocated frames eagerly")
	}
	if err := p.Store(base, 0xAB); err != nil {
		t.Fatal(err)
	}
	if n := mappedPages(p); n != 1 {
		t.Fatalf("mapped pages = %d, want 1", n)
	}
	v, err := p.Load(base)
	if err != nil || v != 0xAB {
		t.Fatalf("Load = %v, %v", v, err)
	}
	// Untouched page reads as zero after faulting in.
	v, err = p.Load(base + 3*vm.PageSize)
	if err != nil || v != 0 {
		t.Fatalf("untouched page = %v, %v", v, err)
	}
	if n := mappedPages(p); n != 2 {
		t.Fatalf("mapped pages = %d, want 2", n)
	}
}

func TestSegfaultOutsideVMA(t *testing.T) {
	m := newTestMachine(t)
	p, _ := m.Spawn("a", 0)
	if _, err := p.Load(0xdead000); !errors.Is(err, ErrSegv) {
		t.Fatalf("expected segv, got %v", err)
	}
	if err := p.Store(0xdead000, 1); !errors.Is(err, ErrSegv) {
		t.Fatalf("expected segv, got %v", err)
	}
}

func TestReadWriteBytesAcrossPages(t *testing.T) {
	m := newTestMachine(t)
	p, _ := m.Spawn("a", 0)
	base, _ := p.Mmap(4 * vm.PageSize)
	data := make([]byte, 3*vm.PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	start := base + vm.VirtAddr(vm.PageSize/2) // straddle page boundaries
	if err := p.WriteBytes(start, data); err != nil {
		t.Fatal(err)
	}
	got, err := p.ReadBytes(start, len(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], data[i])
		}
	}
}

// Munmap must push the freed frame into the CPU's page frame cache, and a
// subsequent small allocation on the same CPU must reuse it.  This is the
// paper's Section V observation end to end at the kernel API level.
func TestMunmapFeedsPageFrameCache(t *testing.T) {
	m := newTestMachine(t)
	attacker, _ := m.Spawn("attacker", 0)
	base, _ := attacker.Mmap(16 * vm.PageSize)
	if err := attacker.Touch(base, 16*vm.PageSize); err != nil {
		t.Fatal(err)
	}
	target := base + 5*vm.PageSize
	pa, ok := attacker.Translate(target)
	if !ok {
		t.Fatal("target not mapped")
	}
	targetPFN := mm.PFNOf(pa)

	if err := attacker.Munmap(target, vm.PageSize); err != nil {
		t.Fatal(err)
	}
	// Frame sits at the hot end of CPU0's cache.
	zt := m.Phys().ZoneOf(targetPFN)
	contents := m.Phys().PCPContents(0, zt)
	if len(contents) == 0 || contents[len(contents)-1] != targetPFN {
		t.Fatalf("freed frame %d not hottest in cache: %v", targetPFN, contents)
	}

	victim, _ := m.Spawn("victim", 0)
	vbase, _ := victim.Mmap(vm.PageSize)
	if err := victim.Store(vbase, 1); err != nil {
		t.Fatal(err)
	}
	vpa, _ := victim.Translate(vbase)
	if mm.PFNOf(vpa) != targetPFN {
		t.Fatalf("victim got frame %d, want attacker's released frame %d", mm.PFNOf(vpa), targetPFN)
	}
}

// A victim on a different CPU must not receive the released frame.
func TestCrossCPUNoSteering(t *testing.T) {
	m := newTestMachine(t)
	attacker, _ := m.Spawn("attacker", 0)
	base, _ := attacker.Mmap(4 * vm.PageSize)
	attacker.Touch(base, 4*vm.PageSize)
	pa, _ := attacker.Translate(base)
	targetPFN := mm.PFNOf(pa)
	attacker.Munmap(base, vm.PageSize)

	victim, _ := m.Spawn("victim", 1)
	vbase, _ := victim.Mmap(vm.PageSize)
	victim.Store(vbase, 1)
	vpa, _ := victim.Translate(vbase)
	if mm.PFNOf(vpa) == targetPFN {
		t.Fatal("cross-CPU allocation received the released frame")
	}
}

// Sleeping the only runnable process on a CPU drains its page frame cache:
// the planted frame escapes to the buddy allocator (Section V's "must
// remain active" requirement).
func TestSleepDrainsPCP(t *testing.T) {
	m := newTestMachine(t)
	attacker, _ := m.Spawn("attacker", 0)
	base, _ := attacker.Mmap(4 * vm.PageSize)
	attacker.Touch(base, 4*vm.PageSize)
	attacker.Munmap(base, vm.PageSize)

	if m.Phys().PCPCount(0, mm.ZoneDMA32) == 0 {
		t.Fatal("expected cached frames before sleep")
	}
	attacker.Sleep()
	if got := m.Phys().PCPCount(0, mm.ZoneDMA32); got != 0 {
		t.Fatalf("cache not drained on idle: %d frames", got)
	}
	attacker.Wake()
	if attacker.State() != StateRunning {
		t.Fatal("wake failed")
	}
}

// With another runnable process on the CPU, sleeping must not drain, even
// when the sleeper sleeps again or the company wakes twice.
func TestSleepWithCompanyKeepsPCP(t *testing.T) {
	m := newTestMachine(t)
	attacker, _ := m.Spawn("attacker", 0)
	other, _ := m.Spawn("other", 0)
	base, _ := attacker.Mmap(4 * vm.PageSize)
	attacker.Touch(base, 4*vm.PageSize)
	attacker.Munmap(base, vm.PageSize)

	n := m.Phys().PCPCount(0, mm.ZoneDMA32)
	attacker.Sleep()
	attacker.Sleep()
	other.Wake()
	if got := m.Phys().PCPCount(0, mm.ZoneDMA32); got != n {
		t.Fatalf("cache drained despite runnable company: %d -> %d", n, got)
	}
	// Only now is the CPU idle.
	other.Sleep()
	if got := m.Phys().PCPCount(0, mm.ZoneDMA32); got != 0 {
		t.Fatalf("cache not drained once every process sleeps: %d frames", got)
	}
}

func TestDrainOnIdleDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Geometry = dram.Geometry{Channels: 1, DIMMs: 1, Ranks: 1, Banks: 8, Rows: 1024, RowBytes: 8192}
	cfg.DrainOnIdle = false
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := m.Spawn("a", 0)
	base, _ := p.Mmap(4 * vm.PageSize)
	p.Touch(base, 4*vm.PageSize)
	p.Munmap(base, vm.PageSize)
	n := m.Phys().PCPCount(0, mm.ZoneDMA32)
	p.Sleep()
	if got := m.Phys().PCPCount(0, mm.ZoneDMA32); got != n {
		t.Fatalf("cache drained with DrainOnIdle=false: %d -> %d", n, got)
	}
}

func TestHammerActivatesRows(t *testing.T) {
	m := newTestMachine(t)
	p, _ := m.Spawn("a", 0)
	const pages = 64
	base, _ := p.Mmap(pages * vm.PageSize)
	p.Touch(base, pages*vm.PageSize)

	// Find two mapped pages in the same bank but different rows: only a
	// row conflict causes an activation, so adjacent frames inside one
	// 8 KiB row would show nothing.
	mapper := m.DRAM().Mapper()
	var a, b vm.VirtAddr
	found := false
outer:
	for i := 0; i < pages && !found; i++ {
		for j := i + 1; j < pages; j++ {
			pai, _ := p.Translate(base + vm.VirtAddr(i)*vm.PageSize)
			paj, _ := p.Translate(base + vm.VirtAddr(j)*vm.PageSize)
			ai, aj := mapper.ToDRAM(pai), mapper.ToDRAM(paj)
			if mapper.BankGroup(ai) == mapper.BankGroup(aj) && ai.Row != aj.Row {
				a = base + vm.VirtAddr(i)*vm.PageSize
				b = base + vm.VirtAddr(j)*vm.PageSize
				found = true
				break outer
			}
		}
	}
	if !found {
		t.Skip("no same-bank different-row page pair in this mapping")
	}
	before := m.DRAM().Stats().Activations
	if err := p.HammerLoop([]vm.VirtAddr{a, b}, 100); err != nil {
		t.Fatal(err)
	}
	if got := m.DRAM().Stats().Activations - before; got < 199 {
		t.Fatalf("expected ~200 activations from row conflicts, got %d", got)
	}
	// One round is one activation per address: the CLFLUSH+load primitive.
	before = m.DRAM().Stats().Activations
	if err := p.HammerLoop([]vm.VirtAddr{a}, 1); err != nil {
		t.Fatal(err)
	}
	if got := m.DRAM().Stats().Activations - before; got != 1 {
		t.Fatalf("one round on one address made %d activations, want 1", got)
	}
	if err := p.HammerLoop([]vm.VirtAddr{0xdead0000}, 1); err == nil {
		t.Fatal("hammer outside VMA accepted")
	}
}

// Load and Store on a resident page must not allocate: the one-byte buffer
// they hand the range datapath has to stay on the stack.
func TestResidentLoadStoreAllocateNothing(t *testing.T) {
	m := newTestMachine(t)
	p, base, err := m.SpawnResident("a", 0, 4*vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	va := base + vm.PageSize + 17
	if n := testing.AllocsPerRun(100, func() {
		if err := p.Store(va, 0x5a); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Store allocated %.1f times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if v, err := p.Load(va); err != nil || v != 0x5a {
			t.Fatalf("Load = %#x, %v", v, err)
		}
	}); n != 0 {
		t.Fatalf("Load allocated %.1f times per call", n)
	}
}

func TestTouchFaultsEveryPage(t *testing.T) {
	m := newTestMachine(t)
	p, _ := m.Spawn("a", 0)
	base, _ := p.Mmap(16 * vm.PageSize)
	if err := p.Touch(base, 16*vm.PageSize); err != nil {
		t.Fatal(err)
	}
	if n := mappedPages(p); n != 16 {
		t.Fatalf("mapped pages = %d, want 16", n)
	}
	if err := p.AddressSpace().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSpawnResident(t *testing.T) {
	m := newTestMachine(t)
	const pages = 12
	p, base, err := m.SpawnResident("attacker", 1, pages*vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if p.CPU() != 1 || p.Name() != "attacker" {
		t.Fatalf("unexpected process: cpu %d name %q", p.CPU(), p.Name())
	}
	for i := 0; i < pages; i++ {
		if _, ok := p.Translate(base + vm.VirtAddr(i)*vm.PageSize); !ok {
			t.Fatalf("page %d not resident", i)
		}
	}
	if n := mappedPages(p); n != pages {
		t.Fatalf("mapped pages = %d, want %d", n, pages)
	}

	if _, _, err := m.SpawnResident("bad", 5, vm.PageSize); err == nil {
		t.Fatal("SpawnResident on a missing cpu accepted")
	}
}

// Bulk reads go through ECC and bulk writes do not: reading a page whose
// first word holds one flip returns the whole page corrected, and a write
// into another byte of that word leaves the flipped cell alone, so the
// next read still corrects it.
func TestBulkAccessECCCounters(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Geometry = dram.Geometry{Channels: 1, DIMMs: 1, Ranks: 1, Banks: 8, Rows: 1024, RowBytes: 8192}
	cfg.FaultModel.WeakCellDensity = 0
	cfg.FaultModel.FlipReliability = 1
	cfg.FaultModel.ECC = dram.ECCSecDed
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := m.Spawn("a", 0)
	const pages = 8
	base, _ := p.Mmap(pages * vm.PageSize)
	if err := p.Touch(base, pages*vm.PageSize); err != nil {
		t.Fatal(err)
	}
	dev := m.DRAM()
	mapper := dev.Mapper()
	var va vm.VirtAddr
	var a dram.Addr
	found := false
	for i := 0; i < pages && !found; i++ {
		va = base + vm.VirtAddr(i)*vm.PageSize
		pa, _ := p.Translate(va)
		a = mapper.ToDRAM(pa)
		found = a.Row > 0 && a.Row < cfg.Geometry.Rows-1
	}
	if !found {
		t.Skip("no page away from the bank edge")
	}
	dev.PlantWeakCell(dram.WeakCell{Bank: mapper.BankGroup(a), Row: a.Row, ByteInRow: a.Col, Bit: 3, Threshold: 1000})
	page := make([]byte, vm.PageSize)
	for i := range page {
		page[i] = 0xFF
	}
	if err := p.WriteBytes(va, page); err != nil {
		t.Fatal(err)
	}
	up, down := a, a
	up.Row, up.Col = a.Row-1, 0
	down.Row, down.Col = a.Row+1, 0
	for i := 0; i < 1200; i++ {
		dev.ActivateRow(mapper.ToPhys(up))
		dev.ActivateRow(mapper.ToPhys(down))
	}

	if dev.Stats().BitFlips == 0 {
		t.Fatal("hammering did not flip the planted cell")
	}
	got, err := p.ReadBytes(va, vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page) {
		t.Fatalf("page read not corrected: first word %#x", got[:8])
	}
	if err := p.WriteBytes(va+1, []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	page[1] = 0xAA
	if got, err = p.ReadBytes(va, 8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page[:8]) {
		t.Fatalf("after a write into the word: first word %#x, want %#x", got, page[:8])
	}
}
