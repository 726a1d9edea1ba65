package vm

import (
	"errors"
	"fmt"
	"sort"
)

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

// AddressSpace owns a process's VMAs and page table.
type AddressSpace struct {
	vmas []VMA // sorted by Start, non-overlapping
	PT   *PageTable
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{PT: NewPageTable()}
}

// VMAs returns a copy of the current areas, sorted by start address.
//
//doclint:keep kernel tests exit processes by unmapping every area
func (as *AddressSpace) VMAs() []VMA {
	out := make([]VMA, len(as.vmas))
	copy(out, as.vmas)
	return out
}

// FindVMA returns the area containing va.
func (as *AddressSpace) FindVMA(va VirtAddr) (VMA, bool) {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End > va })
	if i < len(as.vmas) && as.vmas[i].Contains(va) {
		return as.vmas[i], true
	}
	return VMA{}, false
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
	as.insert(VMA{Start: start, End: start + VirtAddr(length)})
	return start, nil
}

// findFree locates the lowest free range of the given length at or after
// mmapBase.
func (as *AddressSpace) findFree(length uint64) (VirtAddr, bool) {
	cur := mmapBase
	for _, v := range as.vmas {
		if v.End <= cur {
			continue
		}
		if v.Start >= cur+VirtAddr(length) {
			break
		}
		cur = v.End
	}
	if cur+VirtAddr(length) > MaxUserAddr {
		return 0, false
	}
	return cur, true
}

// insert adds a VMA keeping the slice sorted.
func (as *AddressSpace) insert(v VMA) {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].Start >= v.Start })
	as.vmas = append(as.vmas, VMA{})
	copy(as.vmas[i+1:], as.vmas[i:])
	as.vmas[i] = v
}

// Unmap removes [start, start+length) from the address space, splitting
// VMAs that partially overlap (munmap semantics: unmapping the middle of an
// area leaves two areas).  The removed range's present pages are unmapped
// from the page table and their frames reported to release so the caller can
// return them to the physical allocator.
func (as *AddressSpace) Unmap(start VirtAddr, length uint64, release func(VirtAddr, PTE)) error {
	if err := checkRange(start, length); err != nil {
		return err
	}
	end := start + VirtAddr(length)
	covered := false
	var next []VMA
	for _, v := range as.vmas {
		switch {
		case v.End <= start || v.Start >= end:
			next = append(next, v)
		default:
			covered = true
			if v.Start < start {
				next = append(next, VMA{Start: v.Start, End: start})
			}
			if v.End > end {
				next = append(next, VMA{Start: end, End: v.End})
			}
		}
	}
	if !covered {
		return fmt.Errorf("%w: unmap [%#x,%#x)", ErrNoVMA, uint64(start), uint64(end))
	}
	sort.Slice(next, func(i, j int) bool { return next[i].Start < next[j].Start })
	as.vmas = next
	for va := start; va < end; va += PageSize {
		if pte, ok := as.PT.Lookup(va); ok {
			as.PT.Unmap(va)
			if release != nil {
				release(va, pte)
			}
		}
	}
	return nil
}

// CheckInvariants verifies the VMA list is sorted and non-overlapping and
// that every present PTE falls inside some VMA.
//
//doclint:keep kernel lifecycle tests check the address spaces they churn
func (as *AddressSpace) CheckInvariants() error {
	for i := 1; i < len(as.vmas); i++ {
		if as.vmas[i-1].End > as.vmas[i].Start {
			return fmt.Errorf("vm: VMAs overlap: %v and %v", as.vmas[i-1], as.vmas[i])
		}
	}
	var err error
	as.PT.Walk(func(va VirtAddr, pte PTE) {
		if _, ok := as.FindVMA(va); !ok && err == nil {
			err = fmt.Errorf("vm: PTE at %#x outside every VMA", uint64(va))
		}
	})
	return err
}
