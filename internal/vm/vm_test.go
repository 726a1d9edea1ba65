package vm

import (
	"errors"
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
	if v.VPN() != 0x7f00_0000_1234>>12 {
		t.Fatalf("VPN = %#x", v.VPN())
	}
}

func TestPageTableMapLookupUnmap(t *testing.T) {
	pt := NewPageTable()
	va := VirtAddr(0x7f12_3456_7000)
	if err := pt.Map(va, 42); err != nil {
		t.Fatal(err)
	}
	pte, ok := pt.Lookup(va + 0x123)
	if !ok || pte.PFN != 42 {
		t.Fatalf("Lookup = %+v, %v", pte, ok)
	}
	pa, ok := pt.Translate(va + 0x123)
	if !ok || pa != 42*PageSize+0x123 {
		t.Fatalf("Translate = %#x, %v", pa, ok)
	}
	if pt.MappedPages() != 1 {
		t.Fatalf("MappedPages = %d", pt.MappedPages())
	}
	pfn, ok := pt.Unmap(va)
	if !ok || pfn != 42 {
		t.Fatalf("Unmap = %d, %v", pfn, ok)
	}
	if _, ok := pt.Lookup(va); ok {
		t.Fatal("lookup after unmap succeeded")
	}
	if pt.MappedPages() != 0 {
		t.Fatalf("MappedPages after unmap = %d", pt.MappedPages())
	}
}

func TestPageTableDoubleMapRejected(t *testing.T) {
	pt := NewPageTable()
	va := VirtAddr(0x1000)
	if err := pt.Map(va, 1); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(va+0x10, 2); err == nil {
		t.Fatal("double map of same page accepted")
	}
}

func TestPageTableCanonicalLimit(t *testing.T) {
	pt := NewPageTable()
	if err := pt.Map(MaxUserAddr, 1); err == nil {
		t.Fatal("map beyond canonical range accepted")
	}
	if _, ok := pt.Lookup(MaxUserAddr + 12345); ok {
		t.Fatal("lookup beyond canonical range succeeded")
	}
}

func TestPageTableWalkOrderAndCompleteness(t *testing.T) {
	pt := NewPageTable()
	vas := []VirtAddr{0x0, 0x7f00_0000_0000, 0x1000, 0x7fff_ffff_f000, 0x40_0000_0000}
	for i, va := range vas {
		if err := pt.Map(va, mm.PFN(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	var got []VirtAddr
	pt.Walk(func(va VirtAddr, pte PTE) { got = append(got, va) })
	if len(got) != len(vas) {
		t.Fatalf("walk visited %d pages, want %d", len(got), len(vas))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("walk out of order: %#x before %#x", uint64(got[i-1]), uint64(got[i]))
		}
	}
}

// Property: translate(map(va)) recovers pfn*PageSize+offset for arbitrary
// canonical addresses.
func TestPageTableTranslateProperty(t *testing.T) {
	pt := NewPageTable()
	used := map[uint64]bool{}
	f := func(raw uint64, pfn uint32, off uint16) bool {
		va := VirtAddr(raw % uint64(MaxUserAddr)).PageBase()
		if used[uint64(va)] {
			return true // skip duplicate pages; double-map is tested elsewhere
		}
		used[uint64(va)] = true
		if err := pt.Map(va, mm.PFN(pfn)); err != nil {
			return false
		}
		o := uint64(off) % PageSize
		pa, ok := pt.Translate(va + VirtAddr(o))
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
		if err := as.PT.Map(start+VirtAddr(i)*PageSize, mm.PFN(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	var released []mm.PFN
	if err := as.Unmap(start, 4*PageSize, func(_ VirtAddr, pte PTE) {
		released = append(released, pte.PFN)
	}); err != nil {
		t.Fatal(err)
	}
	if len(released) != 4 {
		t.Fatalf("released %d frames, want 4", len(released))
	}
	if as.PT.MappedPages() != 0 {
		t.Fatal("PTEs survive unmap")
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
