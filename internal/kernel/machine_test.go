package kernel

import (
	"errors"
	"testing"

	"explframe/internal/dram"
	"explframe/internal/mm"
	"explframe/internal/vm"
)

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
	if len(m.Processes()) != 1 {
		t.Fatalf("Processes() = %d entries", len(m.Processes()))
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
	if p.DemandFaults() != 0 || p.AddressSpace().PT.MappedPages() != 0 {
		t.Fatal("mmap allocated frames eagerly")
	}
	if err := p.Store(base, 0xAB); err != nil {
		t.Fatal(err)
	}
	if p.DemandFaults() != 1 {
		t.Fatalf("faults = %d, want 1", p.DemandFaults())
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
	if p.DemandFaults() != 2 {
		t.Fatalf("faults = %d, want 2", p.DemandFaults())
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

// With another runnable process on the CPU, sleeping must not drain.
func TestSleepWithCompanyKeepsPCP(t *testing.T) {
	m := newTestMachine(t)
	attacker, _ := m.Spawn("attacker", 0)
	_, _ = m.Spawn("other", 0)
	base, _ := attacker.Mmap(4 * vm.PageSize)
	attacker.Touch(base, 4*vm.PageSize)
	attacker.Munmap(base, vm.PageSize)

	n := m.Phys().PCPCount(0, mm.ZoneDMA32)
	attacker.Sleep()
	if got := m.Phys().PCPCount(0, mm.ZoneDMA32); got != n {
		t.Fatalf("cache drained despite runnable company: %d -> %d", n, got)
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

func TestExitReleasesEverything(t *testing.T) {
	m := newTestMachine(t)
	p, _ := m.Spawn("a", 0)
	base, _ := p.Mmap(64 * vm.PageSize)
	p.Touch(base, 64*vm.PageSize)
	p.Exit()
	if p.State() != StateExited {
		t.Fatal("state after exit")
	}
	if len(m.Processes()) != 0 {
		t.Fatal("process list not empty after exit")
	}
	if _, err := p.Mmap(vm.PageSize); !errors.Is(err, ErrExited) {
		t.Fatalf("mmap after exit: %v", err)
	}
	if _, err := p.Load(base); !errors.Is(err, ErrExited) {
		t.Fatalf("load after exit: %v", err)
	}
	if err := m.Phys().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPagemapRequiresCapSysAdmin(t *testing.T) {
	m := newTestMachine(t)
	p, _ := m.Spawn("a", 0)
	base, _ := p.Mmap(vm.PageSize)
	p.Store(base, 1)
	if _, err := p.PagemapPFN(base); err == nil {
		t.Fatal("unprivileged pagemap access allowed")
	}
	p.CapSysAdmin = true
	pfn, err := p.PagemapPFN(base)
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := p.Translate(base)
	if pfn != mm.PFNOf(pa) {
		t.Fatalf("pagemap pfn %d != translate pfn %d", pfn, mm.PFNOf(pa))
	}
	if _, err := p.PagemapPFN(base + vm.PageSize); err == nil {
		t.Fatal("pagemap of non-present page succeeded")
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
	for i := 0; i < 100; i++ {
		p.Hammer(a)
		p.Hammer(b)
	}
	if got := m.DRAM().Stats().Activations - before; got < 199 {
		t.Fatalf("expected ~200 activations from row conflicts, got %d", got)
	}
	if err := p.Hammer(0xdead0000); err == nil {
		t.Fatal("hammer outside VMA accepted")
	}
}

func TestTouchFaultsEveryPage(t *testing.T) {
	m := newTestMachine(t)
	p, _ := m.Spawn("a", 0)
	base, _ := p.Mmap(16 * vm.PageSize)
	if err := p.Touch(base, 16*vm.PageSize); err != nil {
		t.Fatal(err)
	}
	if p.AddressSpace().PT.MappedPages() != 16 {
		t.Fatalf("mapped pages = %d, want 16", p.AddressSpace().PT.MappedPages())
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
	if p.DemandFaults() != pages {
		t.Fatalf("demand faults = %d, want %d", p.DemandFaults(), pages)
	}

	if _, _, err := m.SpawnResident("bad", 5, vm.PageSize); err == nil {
		t.Fatal("SpawnResident on a missing cpu accepted")
	}
	if len(m.Processes()) != 1 {
		t.Fatalf("Processes() = %d entries after the failed spawn, want 1", len(m.Processes()))
	}
}

func TestMmapAtHint(t *testing.T) {
	m := newTestMachine(t)
	p, _ := m.Spawn("a", 0)
	hint := vm.VirtAddr(0x5000_0000_0000)
	got, err := p.MmapAt(hint, vm.PageSize)
	if err != nil || got != hint {
		t.Fatalf("MmapAt = %#x, %v", uint64(got), err)
	}
}
