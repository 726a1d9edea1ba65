// Package vm implements the virtual memory side of the simulated kernel:
// x86-64 style 4-level page tables and per-process virtual memory areas
// (VMAs) with demand paging hooks.
//
// The paper's attack flows through this layer twice: the attacker's
// mmap/munmap calls create and release the physical frames that seed the
// page frame cache, and the victim's first touch of its crypto table page is
// the demand fault that pulls the poisoned frame back in ("the program must
// store some data into the allocated pages, otherwise the physical page
// frames will not be allocated", Section V).
package vm

import (
	"fmt"

	"explframe/internal/mm"
)

// VirtAddr is a virtual address in a process address space.
type VirtAddr uint64

// PageShift / PageSize mirror the physical page size.
const (
	PageShift = mm.PageShift
	PageSize  = mm.PageSize
)

// VPN returns the virtual page number of the address.
func (v VirtAddr) VPN() uint64 { return uint64(v) >> PageShift }

// PageBase returns the address rounded down to its page base.
func (v VirtAddr) PageBase() VirtAddr { return v &^ (PageSize - 1) }

// Offset returns the offset of the address within its page.
func (v VirtAddr) Offset() uint64 { return uint64(v) & (PageSize - 1) }

// levels and index bits of the 4-level x86-64 paging structure.
const (
	ptLevels    = 4
	ptIndexBits = 9
	ptFanout    = 1 << ptIndexBits
	// vaBits is the canonical 48-bit user address width.
	vaBits = ptLevels*ptIndexBits + PageShift
	// MaxUserAddr is one past the largest mappable user address.
	MaxUserAddr = VirtAddr(1) << vaBits
)

// PTE is a page table entry.  Every present page is writable, as every
// VMA is read-write.
type PTE struct {
	PFN     mm.PFN
	Present bool
}

// ptNode is one 512-entry paging structure; leaf nodes hold PTEs, interior
// nodes hold children.
type ptNode struct {
	children [ptFanout]*ptNode // interior levels
	ptes     []PTE             // allocated lazily at the leaf level
}

// PageTable is a 4-level radix page table.
type PageTable struct {
	root *ptNode
}

// NewPageTable returns an empty page table.
func NewPageTable() *PageTable {
	return &PageTable{root: &ptNode{}}
}

// indices splits a virtual address into its four paging-structure indices,
// most significant level first.
func indices(va VirtAddr) [ptLevels]int {
	var idx [ptLevels]int
	vpn := va.VPN()
	for l := ptLevels - 1; l >= 0; l-- {
		idx[l] = int(vpn & (ptFanout - 1))
		vpn >>= ptIndexBits
	}
	return idx
}

// walk returns the leaf node and final index for va, allocating intermediate
// structures when create is set.
func (pt *PageTable) walk(va VirtAddr, create bool) (*ptNode, int) {
	if va >= MaxUserAddr {
		return nil, 0
	}
	idx := indices(va)
	n := pt.root
	for l := 0; l < ptLevels-1; l++ {
		next := n.children[idx[l]]
		if next == nil {
			if !create {
				return nil, 0
			}
			next = &ptNode{}
			n.children[idx[l]] = next
		}
		n = next
	}
	if n.ptes == nil {
		if !create {
			return nil, 0
		}
		n.ptes = make([]PTE, ptFanout)
	}
	return n, idx[ptLevels-1]
}

// Map installs a translation for the page containing va.  Mapping an already
// present page is an error — the kernel layer never remaps silently.
func (pt *PageTable) Map(va VirtAddr, pfn mm.PFN) error {
	if va >= MaxUserAddr {
		return fmt.Errorf("vm: address %#x beyond canonical range", uint64(va))
	}
	leaf, i := pt.walk(va, true)
	if leaf.ptes[i].Present {
		return fmt.Errorf("vm: page %#x already mapped", uint64(va.PageBase()))
	}
	leaf.ptes[i] = PTE{PFN: pfn, Present: true}
	return nil
}

// Unmap removes the translation for the page containing va, returning the
// frame it pointed to.  ok is false if the page was not mapped.
func (pt *PageTable) Unmap(va VirtAddr) (mm.PFN, bool) {
	leaf, i := pt.walk(va, false)
	if leaf == nil || !leaf.ptes[i].Present {
		return 0, false
	}
	pfn := leaf.ptes[i].PFN
	leaf.ptes[i] = PTE{}
	return pfn, true
}

// Lookup returns the PTE for the page containing va.
func (pt *PageTable) Lookup(va VirtAddr) (PTE, bool) {
	leaf, i := pt.walk(va, false)
	if leaf == nil || !leaf.ptes[i].Present {
		return PTE{}, false
	}
	return leaf.ptes[i], true
}

// Translate converts a virtual address to a physical address.
func (pt *PageTable) Translate(va VirtAddr) (uint64, bool) {
	pte, ok := pt.Lookup(va)
	if !ok {
		return 0, false
	}
	return pte.PFN.Phys() + va.Offset(), true
}

// Walk visits every present translation in ascending virtual address order.
func (pt *PageTable) Walk(visit func(va VirtAddr, pte PTE)) {
	var rec func(n *ptNode, level int, vpnPrefix uint64)
	rec = func(n *ptNode, level int, vpnPrefix uint64) {
		if n == nil {
			return
		}
		if level == ptLevels-1 {
			if n.ptes == nil {
				return
			}
			for i, pte := range n.ptes {
				if pte.Present {
					vpn := vpnPrefix<<ptIndexBits | uint64(i)
					visit(VirtAddr(vpn<<PageShift), pte)
				}
			}
			return
		}
		for i, c := range n.children {
			if c != nil {
				rec(c, level+1, vpnPrefix<<ptIndexBits|uint64(i))
			}
		}
	}
	rec(pt.root, 0, 0)
}
