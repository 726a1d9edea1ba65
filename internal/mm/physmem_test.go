package mm

import (
	"errors"
	"testing"
	"unsafe"

	"explframe/internal/stats"
)

// There is one frame record per physical page — 65,536 on the default
// 256 MiB machine, 262,144 on the 1 GiB server — and every machine boot
// allocates and zeroes them all, so a field added to frameInfo costs that
// many times its size.
func TestFrameInfoSize(t *testing.T) {
	if got := unsafe.Sizeof(frameInfo{}); got != 24 {
		t.Fatalf("frameInfo is %d bytes, want 24", got)
	}
}

func newTestPM(t *testing.T) *PhysMem {
	t.Helper()
	cfg := DefaultConfig()
	cfg.TotalBytes = 64 << 20 // 64 MiB keeps tests fast
	pm, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return pm
}

func TestNewRejectsBadConfig(t *testing.T) {
	cases := []Config{
		{TotalBytes: 0, NumCPUs: 1, PCPBatch: 1, PCPHigh: 1},
		{TotalBytes: 4097, NumCPUs: 1, PCPBatch: 1, PCPHigh: 1},
		{TotalBytes: 1 << 20, NumCPUs: 0, PCPBatch: 1, PCPHigh: 1},
		{TotalBytes: 1 << 20, NumCPUs: 1, PCPBatch: 0, PCPHigh: 1},
		{TotalBytes: 1 << 20, NumCPUs: 1, PCPBatch: 8, PCPHigh: 4},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected error for %+v", i, cfg)
		}
	}
}

func TestZoneLayout(t *testing.T) {
	pm := newTestPM(t)
	if !pm.HasZone(ZoneDMA) || !pm.HasZone(ZoneDMA32) {
		t.Fatal("expected DMA and DMA32 zones on a 64 MiB machine")
	}
	if pm.HasZone(ZoneNormal) {
		t.Fatal("ZoneNormal must be absent below 4 GiB")
	}
	base, end := pm.ZoneSpan(ZoneDMA)
	if base != 0 || end != PFN((16<<20)/PageSize) {
		t.Fatalf("DMA span [%d,%d)", base, end)
	}
	base, end = pm.ZoneSpan(ZoneDMA32)
	if base != PFN((16<<20)/PageSize) || end != PFN((64<<20)/PageSize) {
		t.Fatalf("DMA32 span [%d,%d)", base, end)
	}
	// All pages accounted free after seeding.
	if got := pm.FreePagesInZone(ZoneDMA) + pm.FreePagesInZone(ZoneDMA32); got != pm.TotalPages() {
		t.Fatalf("free pages %d != total %d", got, pm.TotalPages())
	}
	if err := pm.CheckInvariants(); err != nil {
		t.Fatalf("invariants after seed: %v", err)
	}
}

func TestZoneOf(t *testing.T) {
	pm := newTestPM(t)
	if zt := pm.ZoneOf(0); zt != ZoneDMA {
		t.Fatalf("ZoneOf(0) = %v", zt)
	}
	if zt := pm.ZoneOf(PFN((16 << 20) / PageSize)); zt != ZoneDMA32 {
		t.Fatalf("ZoneOf(first DMA32 frame) = %v", zt)
	}
	if zt := pm.ZoneOf(PFN(1 << 40)); zt != ZoneType(-1) {
		t.Fatalf("ZoneOf(out of range) = %v", zt)
	}
}

func TestAllocFreeRoundTripAllOrders(t *testing.T) {
	pm := newTestPM(t)
	for order := 0; order <= MaxOrder; order++ {
		p, err := pm.AllocPages(0, order)
		if err != nil {
			t.Fatalf("order %d: %v", order, err)
		}
		if err := pm.FreePages(0, p, order); err != nil {
			t.Fatalf("free order %d: %v", order, err)
		}
		if err := pm.CheckInvariants(); err != nil {
			t.Fatalf("invariants after order %d: %v", order, err)
		}
	}
}

// Freeing a pair of buddies must coalesce back to the original block; the
// full zone must return to its seeded maximal-order state after all frees.
func TestBuddyCoalescing(t *testing.T) {
	pm := newTestPM(t)
	before := pm.FreeBlocksByOrder(ZoneDMA32)

	var blocks []PFN
	for i := 0; i < 8; i++ {
		p, err := pm.AllocPages(0, 3) // 8-page blocks
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, p)
	}
	splits := pm.Stats(ZoneDMA32).Splits
	if splits == 0 {
		t.Fatal("expected splits when carving order-3 blocks from maximal blocks")
	}
	for _, p := range blocks {
		if err := pm.FreePages(0, p, 3); err != nil {
			t.Fatal(err)
		}
	}
	if pm.Stats(ZoneDMA32).Coalesces == 0 {
		t.Fatal("expected coalesces when freeing buddy blocks")
	}
	after := pm.FreeBlocksByOrder(ZoneDMA32)
	if before != after {
		t.Fatalf("free lists did not return to seeded state:\nbefore %v\nafter  %v", before, after)
	}
	if err := pm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The page frame cache must be LIFO: the most recently freed frame is the
// first one handed to the next order-0 allocation on the same CPU.  This is
// the paper's central observation (Section V).
func TestPCPLIFOReuse(t *testing.T) {
	pm := newTestPM(t)
	a, _ := pm.AllocPages(0, 0)
	b, _ := pm.AllocPages(0, 0)
	c, _ := pm.AllocPages(0, 0)

	if err := pm.FreePages(0, a, 0); err != nil {
		t.Fatal(err)
	}
	if err := pm.FreePages(0, b, 0); err != nil {
		t.Fatal(err)
	}
	if err := pm.FreePages(0, c, 0); err != nil {
		t.Fatal(err)
	}

	got1, _ := pm.AllocPages(0, 0)
	got2, _ := pm.AllocPages(0, 0)
	got3, _ := pm.AllocPages(0, 0)
	if got1 != c || got2 != b || got3 != a {
		t.Fatalf("pcp not LIFO: freed [a=%d b=%d c=%d], got [%d %d %d]", a, b, c, got1, got2, got3)
	}
}

// A frame freed on CPU 0 must not be handed to CPU 1: the caches are
// per CPU, which is why the attacker must share the victim's CPU.
func TestPCPPerCPUIsolation(t *testing.T) {
	pm := newTestPM(t)
	p, _ := pm.AllocPages(0, 0)
	if err := pm.FreePages(0, p, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		q, err := pm.AllocPages(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if q == p {
			t.Fatalf("frame freed on CPU0 allocated on CPU1 after %d allocs", i)
		}
	}
	// Still sitting at the hot end of CPU0's cache.
	contents := pm.PCPContents(0, ZoneDMA32)
	if len(contents) == 0 || contents[len(contents)-1] != p {
		t.Fatalf("freed frame %d not at hot end of CPU0 cache: %v", p, contents)
	}
}

func TestPCPRefillBatch(t *testing.T) {
	pm := newTestPM(t)
	cfg := pm.Config()
	free := pm.FreePagesInZone(ZoneDMA32)
	_, err := pm.AllocPages(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The first allocation misses the empty cache: one batch leaves the
	// buddy allocator, one frame of it is handed out.
	if got := pm.PCPCount(0, ZoneDMA32); got != cfg.PCPBatch-1 {
		t.Fatalf("pcp count after first alloc = %d, want %d", got, cfg.PCPBatch-1)
	}
	if got := free - pm.FreePagesInZone(ZoneDMA32); got != uint64(cfg.PCPBatch) {
		t.Fatalf("refill took %d buddy pages, want one batch of %d", got, cfg.PCPBatch)
	}
	if s := pm.Stats(ZoneDMA32); s.PCPHits != 0 {
		t.Fatalf("stats = %+v, want the first allocation to miss", s)
	}
	// The next batch-1 allocations are pure hits: no second refill.
	free = pm.FreePagesInZone(ZoneDMA32)
	for i := 0; i < cfg.PCPBatch-1; i++ {
		if _, err := pm.AllocPages(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if s := pm.Stats(ZoneDMA32); s.PCPHits != uint64(cfg.PCPBatch-1) {
		t.Fatalf("PCPHits = %d, want %d", s.PCPHits, cfg.PCPBatch-1)
	}
	if got := pm.FreePagesInZone(ZoneDMA32); got != free {
		t.Fatalf("buddy free pages %d -> %d during pcp hits", free, got)
	}
}

func TestPCPSpillAtHighWatermark(t *testing.T) {
	pm := newTestPM(t)
	cfg := pm.Config()
	var pages []PFN
	for i := 0; i < cfg.PCPHigh+1; i++ {
		p, err := pm.AllocPages(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
	}
	free := pm.FreePagesInZone(ZoneDMA32)
	for _, p := range pages {
		if err := pm.FreePages(0, p, 0); err != nil {
			t.Fatal(err)
		}
	}
	if pm.FreePagesInZone(ZoneDMA32) <= free {
		t.Fatal("expected a pcp spill to the buddy allocator after exceeding the high watermark")
	}
	if got := pm.PCPCount(0, ZoneDMA32); got > cfg.PCPHigh {
		t.Fatalf("pcp count %d exceeds high watermark %d", got, cfg.PCPHigh)
	}
	if err := pm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Spills must evict the cold end: after a spill, the hottest (most recently
// freed) frames must survive in the cache.
func TestPCPSpillKeepsHotEnd(t *testing.T) {
	pm := newTestPM(t)
	cfg := pm.Config()
	var pages []PFN
	for i := 0; i < cfg.PCPHigh+1; i++ {
		p, err := pm.AllocPages(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
	}
	for _, p := range pages {
		if err := pm.FreePages(0, p, 0); err != nil {
			t.Fatal(err)
		}
	}
	hot := pages[len(pages)-1] // last freed = hottest
	got, err := pm.AllocPages(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != hot {
		t.Fatalf("hottest frame evicted by spill: got %d want %d", got, hot)
	}
}

func TestDrainCPU(t *testing.T) {
	pm := newTestPM(t)
	p, _ := pm.AllocPages(0, 0)
	if err := pm.FreePages(0, p, 0); err != nil {
		t.Fatal(err)
	}
	freeBefore := pm.FreePagesInZone(ZoneDMA32)
	n := pm.PCPCount(0, ZoneDMA32)
	if n == 0 {
		t.Fatal("expected cached frames before drain")
	}
	pm.DrainCPU(0)
	if pm.PCPCount(0, ZoneDMA32) != 0 {
		t.Fatal("drain left frames in the cache")
	}
	if got := pm.FreePagesInZone(ZoneDMA32); got != freeBefore+uint64(n) {
		t.Fatalf("free pages after drain = %d, want %d", got, freeBefore+uint64(n))
	}
	if err := pm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// After a drain the planted frame is gone from the cache: the next
	// allocation comes from the buddy allocator, not necessarily p.
}

func TestZoneFallback(t *testing.T) {
	pm := newTestPM(t)
	// Exhaust DMA32 with max-order allocations, then keep allocating: the
	// allocator must fall back to ZoneDMA.
	for {
		_, err := pm.AllocPages(0, MaxOrder)
		if err != nil {
			break
		}
	}
	sawDMA := false
	for i := 0; i < 64; i++ {
		p, err := pm.AllocPages(0, 4)
		if err != nil {
			break
		}
		if pm.ZoneOf(p) == ZoneDMA {
			sawDMA = true
			break
		}
	}
	if !sawDMA {
		t.Fatal("allocations never fell back to ZoneDMA")
	}
	if pm.Stats(ZoneDMA).Fallbacks == 0 {
		t.Fatal("fallback counter not incremented")
	}
}

func TestWatermarkBlocksAllocation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TotalBytes = 32 << 20
	cfg.MinWatermarkPages = 128
	pm, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Drain everything allocatable.
	var count uint64
	for {
		_, err := pm.AllocPages(0, 0)
		if err != nil {
			break
		}
		count++
	}
	// The reserve must hold in every present zone.
	for _, zt := range []ZoneType{ZoneDMA, ZoneDMA32} {
		if !pm.HasZone(zt) {
			continue
		}
		if free := pm.FreePagesInZone(zt); free < cfg.MinWatermarkPages {
			t.Fatalf("zone %v free %d below min watermark %d", zt, free, cfg.MinWatermarkPages)
		}
	}
	if count == 0 {
		t.Fatal("no allocations succeeded")
	}
}

func TestFreeErrors(t *testing.T) {
	pm := newTestPM(t)
	p, _ := pm.AllocPages(0, 1)

	if err := pm.FreePages(0, p, 0); !errors.Is(err, ErrBadFree) {
		t.Fatalf("wrong-order free: %v", err)
	}
	if err := pm.FreePages(0, p+1, 0); !errors.Is(err, ErrBadFree) {
		t.Fatalf("interior free: %v", err)
	}
	if err := pm.FreePages(0, p, 1); err != nil {
		t.Fatal(err)
	}
	if err := pm.FreePages(0, p, 1); !errors.Is(err, ErrBadFree) {
		t.Fatalf("double free: %v", err)
	}
	if err := pm.FreePages(0, PFN(1<<40), 0); !errors.Is(err, ErrBadFree) {
		t.Fatalf("out-of-range free: %v", err)
	}
	if err := pm.FreePages(9, p, 0); err == nil {
		t.Fatal("bad cpu free accepted")
	}
	if _, err := pm.AllocPages(0, MaxOrder+1); err == nil {
		t.Fatal("order beyond MaxOrder accepted")
	}
	if _, err := pm.AllocPages(-1, 0); err == nil {
		t.Fatal("negative cpu accepted")
	}
}

// Property test: a random storm of allocations and frees never breaks the
// buddy invariants, never double-allocates a live frame, and returns the
// allocator to its seeded state once everything is freed and drained.
func TestRandomAllocFreeStorm(t *testing.T) {
	pm := newTestPM(t)
	rng := stats.NewRNG(12345)
	seeded := pm.FreeBlocksByOrder(ZoneDMA32)

	type block struct {
		p     PFN
		order int
		cpu   int
	}
	var live []block
	owned := make(map[PFN]bool)

	for step := 0; step < 5000; step++ {
		if rng.Bool(0.55) || len(live) == 0 {
			order := rng.Intn(5)
			cpu := rng.Intn(pm.Config().NumCPUs)
			p, err := pm.AllocPages(cpu, order)
			if err != nil {
				continue
			}
			for i := PFN(0); i < PFN(1)<<uint(order); i++ {
				if owned[p+i] {
					t.Fatalf("step %d: frame %d double-allocated", step, p+i)
				}
				owned[p+i] = true
			}
			live = append(live, block{p, order, cpu})
		} else {
			idx := rng.Intn(len(live))
			b := live[idx]
			if err := pm.FreePages(b.cpu, b.p, b.order); err != nil {
				t.Fatalf("step %d: free(%d,%d): %v", step, b.p, b.order, err)
			}
			for i := PFN(0); i < PFN(1)<<uint(b.order); i++ {
				delete(owned, b.p+i)
			}
			live[idx] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if step%500 == 0 {
			if err := pm.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	for _, b := range live {
		if err := pm.FreePages(b.cpu, b.p, b.order); err != nil {
			t.Fatal(err)
		}
	}
	for cpu := 0; cpu < pm.Config().NumCPUs; cpu++ {
		pm.DrainCPU(cpu)
	}
	if err := pm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	final := pm.FreeBlocksByOrder(ZoneDMA32)
	if seeded != final {
		t.Fatalf("allocator did not return to seeded state:\nseeded %v\nfinal  %v", seeded, final)
	}
}

func TestExternalFragmentation(t *testing.T) {
	pm := newTestPM(t)
	if f := pm.ExternalFragmentation(ZoneDMA32, MaxOrder); f > 0.01 {
		t.Fatalf("fresh zone fragmentation at max order = %f", f)
	}
	// Pin alternating order-0 pages to fragment the zone.
	var pages []PFN
	for i := 0; i < 2000; i++ {
		p, err := pm.AllocPages(0, 0)
		if err != nil {
			break
		}
		pages = append(pages, p)
	}
	for i, p := range pages {
		if i%2 == 0 {
			if err := pm.FreePages(0, p, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	pm.DrainCPU(0)
	if f := pm.ExternalFragmentation(ZoneDMA32, MaxOrder); f <= 0 {
		t.Fatalf("checkerboarded zone shows no fragmentation: %f", f)
	}
	if f := pm.ExternalFragmentation(ZoneDMA32, 0); f != 0 {
		t.Fatalf("order-0 fragmentation must be 0, got %f", f)
	}
}

func TestPCPContentsView(t *testing.T) {
	pm := newTestPM(t)
	p, _ := pm.AllocPages(0, 0)
	q, _ := pm.AllocPages(0, 0)
	pm.FreePages(0, p, 0)
	pm.FreePages(0, q, 0)
	got := pm.PCPContents(0, ZoneDMA32)
	if len(got) < 2 {
		t.Fatalf("pcp contents too short: %v", got)
	}
	if got[len(got)-1] != q || got[len(got)-2] != p {
		t.Fatalf("pcp order wrong: tail %v, want ...,%d,%d", got, p, q)
	}
	// Mutating the copy must not affect the allocator.
	got[0] = NilPFN
	if pm.PCPContents(0, ZoneDMA32)[0] == NilPFN {
		t.Fatal("PCPContents exposed internal state")
	}
}

func TestPFNHelpers(t *testing.T) {
	if PFN(3).Phys() != 3*PageSize {
		t.Fatal("PFN.Phys wrong")
	}
	if PFNOf(PageSize*7+123) != 7 {
		t.Fatal("PFNOf wrong")
	}
}

func TestZoneTypeString(t *testing.T) {
	if ZoneDMA.String() != "DMA" || ZoneDMA32.String() != "DMA32" || ZoneNormal.String() != "Normal" {
		t.Fatal("zone names wrong")
	}
	if ZoneType(9).String() == "" {
		t.Fatal("unknown zone must still render")
	}
}
