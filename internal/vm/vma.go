// Package vm implements the virtual memory side of the simulated kernel:
// per-process virtual memory areas (VMAs), each recording the frames that
// back its demand-faulted pages.
//
// The paper's attack flows through this layer twice: the attacker's
// mmap/munmap calls create and release the physical frames that seed the
// page frame cache, and the victim's first touch of its crypto table page is
// the demand fault that pulls the poisoned frame back in ("the program must
// store some data into the allocated pages, otherwise the physical page
// frames will not be allocated", Section V).
package vm

import (
	"errors"
	"fmt"
	"sort"

	"explframe/internal/mm"
)

// VirtAddr is a virtual address in a process address space.
type VirtAddr uint64

// PageShift / PageSize mirror the physical page size.
const (
	PageShift = mm.PageShift
	PageSize  = mm.PageSize
)

// MaxUserAddr is one past the largest mappable user address: the canonical
// 48-bit x86-64 user range.
const MaxUserAddr = VirtAddr(1) << 48

// PageBase returns the address rounded down to its page base.
func (v VirtAddr) PageBase() VirtAddr { return v &^ (PageSize - 1) }

// Offset returns the offset of the address within its page.
func (v VirtAddr) Offset() uint64 { return uint64(v) & (PageSize - 1) }

// VMA is one virtual memory area: a half-open [Start, End) page-aligned
// range.  Every area is read-write anonymous memory, as the attacker's and
// victim's mmap calls request.
type VMA struct {
	Start VirtAddr
	End   VirtAddr
}

// Contains reports whether the address falls inside the area.
func (v VMA) Contains(va VirtAddr) bool { return va >= v.Start && va < v.End }

// String formats the area as its half-open address range.
func (v VMA) String() string {
	return fmt.Sprintf("[%#x,%#x)", uint64(v.Start), uint64(v.End))
}

// Errors returned by the address space layer.
var (
	// ErrNoVMA reports an access or unmap outside every mapped area — the
	// moral equivalent of SIGSEGV.
	ErrNoVMA = errors.New("vm: address not covered by a VMA")
	// ErrBadRange reports misaligned or empty ranges.
	ErrBadRange = errors.New("vm: bad range")
	// ErrNoSpace reports address space exhaustion.
	ErrNoSpace = errors.New("vm: no free address range")
)

// mmapBase is where search for free ranges begins, loosely mirroring the
// x86-64 mmap area.
const mmapBase = VirtAddr(0x7f00_0000_0000)

// noFrame marks a page of an area that has not been faulted in.
const noFrame = ^mm.PFN(0)

// area is one VMA and the frames backing its pages: frames[i] backs page i,
// and noFrame or an index past the slice's end means no frame.  The slice
// grows only when a page faults in, to one past the faulted index, so a
// huge mapping costs nothing until it is touched; every caller touches a
// mapping from its first page up.
type area struct {
	VMA
	frames []mm.PFN
}

// page returns the index within the area of the page containing va.
func (a *area) page(va VirtAddr) int { return int((va - a.Start) >> PageShift) }

// AddressSpace owns a process's VMAs and the frames behind them.
type AddressSpace struct {
	areas []area // sorted by Start, non-overlapping
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace { return &AddressSpace{} }

// find returns the area containing va, or nil.
func (as *AddressSpace) find(va VirtAddr) *area {
	i := sort.Search(len(as.areas), func(i int) bool { return as.areas[i].End > va })
	if i < len(as.areas) && as.areas[i].Contains(va) {
		return &as.areas[i]
	}
	return nil
}

// FindVMA returns the area containing va.
func (as *AddressSpace) FindVMA(va VirtAddr) (VMA, bool) {
	if a := as.find(va); a != nil {
		return a.VMA, true
	}
	return VMA{}, false
}

// MapFrame records pfn as the frame backing the page containing va.  The
// page must lie inside a VMA and have no frame yet — the kernel layer never
// remaps silently.
func (as *AddressSpace) MapFrame(va VirtAddr, pfn mm.PFN) error {
	a := as.find(va)
	if a == nil {
		return fmt.Errorf("%w: map %#x", ErrNoVMA, uint64(va))
	}
	i := a.page(va)
	if i < len(a.frames) && a.frames[i] != noFrame {
		return fmt.Errorf("vm: page %#x already mapped", uint64(va.PageBase()))
	}
	for len(a.frames) <= i {
		a.frames = append(a.frames, noFrame)
	}
	a.frames[i] = pfn
	return nil
}

// Translate converts a virtual address to a physical address; ok is false
// for an address outside every VMA or in a page with no frame.
func (as *AddressSpace) Translate(va VirtAddr) (uint64, bool) {
	a := as.find(va)
	if a == nil {
		return 0, false
	}
	i := a.page(va)
	if i >= len(a.frames) || a.frames[i] == noFrame {
		return 0, false
	}
	return a.frames[i].Phys() + va.Offset(), true
}

// checkRange validates a page-aligned, non-empty, canonical range.
func checkRange(start VirtAddr, length uint64) error {
	if length == 0 || length%PageSize != 0 {
		return fmt.Errorf("%w: length %d", ErrBadRange, length)
	}
	if uint64(start)%PageSize != 0 {
		return fmt.Errorf("%w: start %#x not page aligned", ErrBadRange, uint64(start))
	}
	if start >= MaxUserAddr || uint64(start)+length > uint64(MaxUserAddr) {
		return fmt.Errorf("%w: beyond canonical user range", ErrBadRange)
	}
	return nil
}

// Map creates a new read-write VMA of the given length at the first free
// range at or after mmapBase and returns its start address.
func (as *AddressSpace) Map(length uint64) (VirtAddr, error) {
	if length == 0 || length%PageSize != 0 {
		return 0, fmt.Errorf("%w: length %d", ErrBadRange, length)
	}
	start, ok := as.findFree(length)
	if !ok {
		return 0, ErrNoSpace
	}
	i := sort.Search(len(as.areas), func(i int) bool { return as.areas[i].Start >= start })
	as.areas = append(as.areas, area{})
	copy(as.areas[i+1:], as.areas[i:])
	as.areas[i] = area{VMA: VMA{Start: start, End: start + VirtAddr(length)}}
	return start, nil
}

// findFree locates the lowest free range of the given length at or after
// mmapBase.
func (as *AddressSpace) findFree(length uint64) (VirtAddr, bool) {
	cur := mmapBase
	for _, a := range as.areas {
		if a.End <= cur {
			continue
		}
		if a.Start >= cur+VirtAddr(length) {
			break
		}
		cur = a.End
	}
	if length > uint64(MaxUserAddr-cur) {
		return 0, false
	}
	return cur, true
}

// Unmap removes [start, start+length) from the address space, splitting
// VMAs that partially overlap (munmap semantics: unmapping the middle of an
// area leaves two areas).  The frames of the removed range's faulted pages
// are reported to release in ascending address order, so the caller can
// return them to the physical allocator; that order decides which frame
// the page frame cache hands out next.
func (as *AddressSpace) Unmap(start VirtAddr, length uint64, release func(VirtAddr, mm.PFN)) error {
	if err := checkRange(start, length); err != nil {
		return err
	}
	end := start + VirtAddr(length)
	next := make([]area, 0, len(as.areas)+1)
	covered := false
	for _, a := range as.areas {
		if a.End <= start || a.Start >= end {
			next = append(next, a)
			continue
		}
		covered = true
		lo, hi := a.page(max(a.Start, start)), a.page(min(a.End, end))
		for i := lo; i < min(hi, len(a.frames)); i++ {
			if a.frames[i] != noFrame && release != nil {
				release(a.Start+VirtAddr(i)*PageSize, a.frames[i])
			}
		}
		if a.Start < start {
			// Capped, so the two halves never append into shared storage.
			n := min(lo, len(a.frames))
			next = append(next, area{VMA{Start: a.Start, End: start}, a.frames[:n:n]})
		}
		if a.End > end {
			next = append(next, area{VMA{Start: end, End: a.End}, a.frames[min(hi, len(a.frames)):]})
		}
	}
	if !covered {
		return fmt.Errorf("%w: unmap [%#x,%#x)", ErrNoVMA, uint64(start), uint64(end))
	}
	as.areas = next
	return nil
}

// CheckInvariants verifies the VMA list is sorted and non-overlapping and
// that no area records frames past its end.
//
//doclint:keep kernel lifecycle tests check the address spaces they churn
func (as *AddressSpace) CheckInvariants() error {
	for i, a := range as.areas {
		if i > 0 && as.areas[i-1].End > a.Start {
			return fmt.Errorf("vm: VMAs overlap: %v and %v", as.areas[i-1].VMA, a.VMA)
		}
		if VirtAddr(len(a.frames))*PageSize > a.End-a.Start {
			return fmt.Errorf("vm: %v records %d frames", a.VMA, len(a.frames))
		}
	}
	return nil
}
