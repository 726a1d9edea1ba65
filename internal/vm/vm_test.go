package vm

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"explframe/internal/mm"
)

func TestVirtAddrHelpers(t *testing.T) {
	v := VirtAddr(0x7f00_0000_1234)
	if v.PageBase() != 0x7f00_0000_1000 {
		t.Fatalf("PageBase = %#x", uint64(v.PageBase()))
	}
	if v.Offset() != 0x234 {
		t.Fatalf("Offset = %#x", v.Offset())
	}
}

// The TestPageTable tests pin the translations an address space records
// for its faulted pages: the page table of the process.

func TestPageTableMapLookupUnmap(t *testing.T) {
	as := NewAddressSpace()
	start, _ := as.Map(4 * PageSize)
	va := start + 2*PageSize
	if err := as.MapFrame(va+0x55, 42); err != nil {
		t.Fatal(err)
	}
	pa, ok := as.Translate(va + 0x123)
	if !ok || pa != 42*PageSize+0x123 {
		t.Fatalf("Translate = %#x, %v", pa, ok)
	}
	for _, other := range []VirtAddr{start, va - 1, va + PageSize} {
		if _, ok := as.Translate(other); ok {
			t.Fatalf("unfaulted page %#x translates", uint64(other))
		}
	}
	var released []mm.PFN
	if err := as.Unmap(va, PageSize, func(_ VirtAddr, pfn mm.PFN) { released = append(released, pfn) }); err != nil {
		t.Fatal(err)
	}
	if len(released) != 1 || released[0] != 42 {
		t.Fatalf("Unmap released %v, want [42]", released)
	}
	if _, ok := as.Translate(va); ok {
		t.Fatal("translate after unmap succeeded")
	}
}

func TestPageTableDoubleMapRejected(t *testing.T) {
	as := NewAddressSpace()
	va, _ := as.Map(PageSize)
	if err := as.MapFrame(va, 1); err != nil {
		t.Fatal(err)
	}
	if err := as.MapFrame(va+0x10, 2); err == nil {
		t.Fatal("double map of same page accepted")
	}
	if pa, ok := as.Translate(va); !ok || pa != mm.PFN(1).Phys() {
		t.Fatalf("rejected map changed the translation: %#x, %v", pa, ok)
	}
}

// Outside every VMA nothing maps or translates, canonical or not.
func TestPageTableCanonicalLimit(t *testing.T) {
	as := NewAddressSpace()
	start, _ := as.Map(2 * PageSize)
	end := start + 2*PageSize
	for _, va := range []VirtAddr{MaxUserAddr, MaxUserAddr + 12345, 0x1000, start - 1, end} {
		if err := as.MapFrame(va, 1); !errors.Is(err, ErrNoVMA) {
			t.Fatalf("MapFrame(%#x) = %v, want ErrNoVMA", uint64(va), err)
		}
		if _, ok := as.Translate(va); ok {
			t.Fatalf("Translate(%#x) succeeded outside every VMA", uint64(va))
		}
	}
}

// Property: translate(map(va)) recovers pfn*PageSize+offset for arbitrary
// pages of an area.
func TestPageTableTranslateProperty(t *testing.T) {
	const pages = 1 << 12
	as := NewAddressSpace()
	start, _ := as.Map(pages * PageSize)
	used := map[VirtAddr]bool{}
	f := func(page uint16, pfn uint32, off uint16) bool {
		va := start + VirtAddr(page%pages)*PageSize
		if used[va] {
			return true // skip duplicate pages; double-map is tested elsewhere
		}
		used[va] = true
		if err := as.MapFrame(va, mm.PFN(pfn)); err != nil {
			return false
		}
		o := uint64(off) % PageSize
		pa, ok := as.Translate(va + VirtAddr(o))
		return ok && pa == mm.PFN(pfn).Phys()+o
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAddressSpaceMapFindUnmap(t *testing.T) {
	as := NewAddressSpace()
	start, err := as.Map(16 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := as.FindVMA(start + 5*PageSize)
	if !ok || v.Start != start || v.Pages() != 16 {
		t.Fatalf("FindVMA = %+v, %v", v, ok)
	}
	if _, ok := as.FindVMA(start - 1); ok {
		t.Fatal("FindVMA found area before start")
	}
	if err := as.Unmap(start, 16*PageSize, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := as.FindVMA(start); ok {
		t.Fatal("area survives unmap")
	}
}

func TestAddressSpaceMapsDoNotOverlap(t *testing.T) {
	as := NewAddressSpace()
	for i := 0; i < 50; i++ {
		if _, err := as.Map(PageSize * uint64(1+i%7)); err != nil {
			t.Fatal(err)
		}
	}
	if err := as.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Unmapping the middle of an area must split it into two areas (munmap
// semantics).
func TestAddressSpaceUnmapSplits(t *testing.T) {
	as := NewAddressSpace()
	start, err := as.Map(10 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	mid := start + 4*PageSize
	if err := as.Unmap(mid, 2*PageSize, nil); err != nil {
		t.Fatal(err)
	}
	vmas := as.VMAs()
	if len(vmas) != 2 {
		t.Fatalf("expected 2 areas after middle unmap, got %v", vmas)
	}
	if vmas[0].Start != start || vmas[0].End != mid {
		t.Fatalf("left area wrong: %v", vmas[0])
	}
	if vmas[1].Start != mid+2*PageSize || vmas[1].End != start+10*PageSize {
		t.Fatalf("right area wrong: %v", vmas[1])
	}
	if err := as.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAddressSpaceUnmapReleasesFrames(t *testing.T) {
	as := NewAddressSpace()
	start, _ := as.Map(4 * PageSize)
	for i := 0; i < 4; i++ {
		if err := as.MapFrame(start+VirtAddr(i)*PageSize, mm.PFN(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	var released []mm.PFN
	if err := as.Unmap(start, 4*PageSize, func(_ VirtAddr, pfn mm.PFN) {
		released = append(released, pfn)
	}); err != nil {
		t.Fatal(err)
	}
	if len(released) != 4 {
		t.Fatalf("released %d frames, want 4", len(released))
	}
	if _, ok := as.Translate(start); ok {
		t.Fatal("translation survives unmap")
	}

	// One munmap that spans two VMAs, splits both and crosses unmapped and
	// unfaulted pages releases exactly the faulted pages, in ascending
	// address order: the order in which their frames enter the page frame
	// cache.
	type frame struct {
		va  VirtAddr
		pfn mm.PFN
	}
	as = NewAddressSpace()
	a, _ := as.Map(8 * PageSize)
	gap, _ := as.Map(2 * PageSize)
	b, _ := as.Map(8 * PageSize)
	if err := as.Unmap(gap, 2*PageSize, nil); err != nil {
		t.Fatal(err)
	}
	// Fault out of address order, with frames that sort against it.
	faults := []frame{{b + 5*PageSize, 1}, {a + 6*PageSize, 2}, {b, 3}, {a + PageSize, 4},
		{a + 7*PageSize, 5}, {b + 2*PageSize, 6}, {a + 3*PageSize, 7}}
	for _, f := range faults {
		if err := as.MapFrame(f.va, f.pfn); err != nil {
			t.Fatal(err)
		}
	}
	var got []frame
	if err := as.Unmap(a+2*PageSize, uint64(b+4*PageSize-(a+2*PageSize)), func(va VirtAddr, pfn mm.PFN) {
		got = append(got, frame{va, pfn})
	}); err != nil {
		t.Fatal(err)
	}
	want := []frame{{a + 3*PageSize, 7}, {a + 6*PageSize, 2}, {a + 7*PageSize, 5}, {b, 3}, {b + 2*PageSize, 6}}
	if !slices.Equal(got, want) {
		t.Fatalf("released %v, want %v", got, want)
	}
	if vmas := as.VMAs(); !slices.Equal(vmas, []VMA{{a, a + 2*PageSize}, {b + 4*PageSize, b + 8*PageSize}}) {
		t.Fatalf("areas after unmap: %v", vmas)
	}
	// The survivors keep their frames, and both halves fault in afresh.
	for _, f := range []frame{{a + PageSize, 4}, {b + 5*PageSize, 1}} {
		if pa, ok := as.Translate(f.va); !ok || pa != f.pfn.Phys() {
			t.Fatalf("Translate(%#x) = %#x, %v, want frame %d", uint64(f.va), pa, ok, f.pfn)
		}
	}
	for _, f := range []frame{{a, 8}, {b + 7*PageSize, 9}} {
		if err := as.MapFrame(f.va, f.pfn); err != nil {
			t.Fatal(err)
		}
	}
	if err := as.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Frames are recorded per faulted page, not per mapped page: mapping the
// largest range Map accepts, faulting one page and unmapping it all costs
// the same allocations as doing so for one page, and a few bytes.
func TestAddressSpaceStorageFollowsFaults(t *testing.T) {
	largest := uint64(MaxUserAddr - mmapBase)
	for _, length := range []uint64{largest + PageSize, math.MaxUint64 &^ (PageSize - 1)} {
		if _, err := NewAddressSpace().Map(length); !errors.Is(err, ErrNoSpace) {
			t.Fatalf("Map(%#x) beyond the mmap area: %v, want ErrNoSpace", length, err)
		}
	}
	cost := func(length uint64) (allocs float64, bytes uint64) {
		run := func() {
			as := NewAddressSpace()
			start, err := as.Map(length)
			if err != nil {
				t.Fatal(err)
			}
			if err := as.MapFrame(start, 1); err != nil {
				t.Fatal(err)
			}
			if err := as.Unmap(start, length, nil); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return testing.AllocsPerRun(10, run), after.TotalAlloc - before.TotalAlloc
	}
	small, _ := cost(PageSize)
	for _, length := range []uint64{1 << 30, largest} {
		if n, b := cost(length); n != small || b > 1<<12 {
			t.Fatalf("a %d-byte mapping took %.0f allocations (%d bytes), a page %.0f", length, n, b, small)
		}
	}
}

func TestAddressSpaceUnmapErrors(t *testing.T) {
	as := NewAddressSpace()
	if err := as.Unmap(0x1000, PageSize, nil); !errors.Is(err, ErrNoVMA) {
		t.Fatalf("unmap of nothing: %v", err)
	}
	if err := as.Unmap(0x1001, PageSize, nil); !errors.Is(err, ErrBadRange) {
		t.Fatalf("misaligned unmap: %v", err)
	}
	if err := as.Unmap(0x1000, 0, nil); !errors.Is(err, ErrBadRange) {
		t.Fatalf("zero-length unmap: %v", err)
	}
	if _, err := as.Map(123); !errors.Is(err, ErrBadRange) {
		t.Fatalf("unaligned map length: %v", err)
	}
}

func TestAddressSpaceMappedBytes(t *testing.T) {
	as := NewAddressSpace()
	as.Map(3 * PageSize)
	as.Map(5 * PageSize)
	if got := as.MappedBytes(); got != 8*PageSize {
		t.Fatalf("MappedBytes = %d", got)
	}
}
