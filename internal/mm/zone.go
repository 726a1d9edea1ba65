// Package mm implements the Linux-style physical memory allocator the paper
// exploits: a zoned page frame allocator (Section III/IV of the paper) whose
// zones each contain a binary buddy allocator, fronted by a per-CPU page
// frame cache (pcp lists) for order-0 allocations (Section V).
//
// The exploit surface is entirely algorithmic: recently freed order-0 frames
// sit in a per-CPU LIFO cache and are handed back, most-recent first, to the
// next small allocation on the same CPU — regardless of which process makes
// it.  This package reproduces that mechanism byte for byte; the kernel
// façade in internal/kernel drives it the way mmap/munmap would.
package mm

import (
	"errors"
	"fmt"
)

// PageShift is log2 of the page size; PageSize is the 4 KiB x86-64 base page.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
)

// PFN is a physical page frame number: physical address >> PageShift.
type PFN uint64

// NilPFN is the sentinel for "no frame" in intrusive lists.
const NilPFN = PFN(^uint64(0))

// Phys returns the physical byte address of the first byte of the frame.
func (p PFN) Phys() uint64 { return uint64(p) << PageShift }

// PFNOf returns the frame containing physical address pa.
func PFNOf(pa uint64) PFN { return PFN(pa >> PageShift) }

// ZoneType enumerates the memory zones of a 64-bit machine (Section III).
type ZoneType int

const (
	// ZoneDMA covers the first 16 MiB, reserved for legacy DMA devices.
	ZoneDMA ZoneType = iota
	// ZoneDMA32 covers 16 MiB – 4 GiB, usable for 32-bit DMA and general
	// allocations.
	ZoneDMA32
	// ZoneNormal covers everything above 4 GiB on 64-bit systems.
	ZoneNormal
	numZones
)

// String returns the kernel-style zone name.
func (z ZoneType) String() string {
	switch z {
	case ZoneDMA:
		return "DMA"
	case ZoneDMA32:
		return "DMA32"
	case ZoneNormal:
		return "Normal"
	default:
		return fmt.Sprintf("Zone(%d)", int(z))
	}
}

// zonelist returns the fallback order for a preferred zone, mirroring the
// kernel's build_zonelists: allocation falls back to lower zones only.
func zonelist(pref ZoneType) []ZoneType {
	switch pref {
	case ZoneNormal:
		return []ZoneType{ZoneNormal, ZoneDMA32, ZoneDMA}
	case ZoneDMA32:
		return []ZoneType{ZoneDMA32, ZoneDMA}
	default:
		return []ZoneType{ZoneDMA}
	}
}

// Errors returned by the allocator.
var (
	// ErrNoMemory reports that no zone on the zonelist could satisfy the
	// request above its minimum watermark.
	ErrNoMemory = errors.New("mm: out of memory")
	// ErrBadFree reports an invalid free: wrong order, double free, or a
	// frame the allocator never handed out.
	ErrBadFree = errors.New("mm: invalid free")
)

// frameState tracks where a frame currently lives.
type frameState uint8

const (
	frameInvalid   frameState = iota // outside any zone's managed range
	frameFreeHead                    // head of a free buddy block (order valid)
	frameFreeTail                    // interior page of a free buddy block
	frameAllocated                   // handed out by the buddy allocator
	frameInPCP                       // sitting in a per-CPU page frame cache
)

// frameInfo is the per-frame metadata (struct page, radically slimmed).
type frameInfo struct {
	state frameState
	order uint8 // valid when state == frameFreeHead or frameAllocated
	prev  PFN   // intrusive free-list links, valid when frameFreeHead
	next  PFN
}

// ZoneStats aggregates per-zone allocator activity.
type ZoneStats struct {
	Allocs     uint64 // blocks handed out by the buddy allocator
	Splits     uint64 // block splits performed
	Coalesces  uint64 // buddy merges performed
	PCPHits    uint64 // order-0 allocations served from a pcp list
	Fallbacks  uint64 // allocations served by this zone on behalf of a higher preferred zone
	FailedAllo uint64 // allocation attempts rejected by the watermark
}

// zone is one memory zone: a frame range plus a buddy allocator.
type zone struct {
	spanBase PFN // first frame of the zone
	spanEnd  PFN // one past the last frame
	free     uint64
	min      uint64 // minimum watermark in pages

	freeLists []PFN // head PFN per order, NilPFN when empty
	stats     ZoneStats
}

func (z *zone) contains(p PFN) bool { return p >= z.spanBase && p < z.spanEnd }
