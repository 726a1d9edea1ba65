package mm

import "fmt"

// MaxOrder is the largest buddy block order: 2^10 pages = 4 MiB blocks, the
// Linux default (MAX_ORDER-1 in kernel terms).
const MaxOrder = 10

// listPush inserts frame p at the head of the order list of zone z.
func (pm *PhysMem) listPush(z *zone, order int, p PFN) {
	fi := &pm.frames[p]
	fi.state = frameFreeHead
	fi.order = uint8(order)
	fi.prev = NilPFN
	fi.next = z.freeLists[order]
	if fi.next != NilPFN {
		pm.frames[fi.next].prev = p
	}
	z.freeLists[order] = p
}

// listRemove unlinks frame p from the order list of zone z.
func (pm *PhysMem) listRemove(z *zone, order int, p PFN) {
	fi := &pm.frames[p]
	if fi.prev != NilPFN {
		pm.frames[fi.prev].next = fi.next
	} else {
		z.freeLists[order] = fi.next
	}
	if fi.next != NilPFN {
		pm.frames[fi.next].prev = fi.prev
	}
	fi.prev, fi.next = NilPFN, NilPFN
}

// buddyOf returns the buddy of the block starting at p with the given order,
// using zone-relative frame arithmetic (the paper notes this address
// calculation is what makes the buddy scheme cheap).
func (z *zone) buddyOf(p PFN, order int) PFN {
	rel := uint64(p - z.spanBase)
	return z.spanBase + PFN(rel^(1<<uint(order)))
}

// allocFromZone takes a block of 2^order pages from z, splitting larger
// blocks as needed.  Returns NilPFN if the zone has no block big enough.
func (pm *PhysMem) allocFromZone(z *zone, order int) PFN {
	cur := order
	for cur <= MaxOrder && z.freeLists[cur] == NilPFN {
		cur++
	}
	if cur > MaxOrder {
		return NilPFN
	}
	p := z.freeLists[cur]
	pm.listRemove(z, cur, p)
	// Split down: each split frees the upper half at order cur-1.
	for cur > order {
		cur--
		upper := p + PFN(1<<uint(cur))
		pm.listPush(z, cur, upper)
		z.stats.Splits++
	}
	fi := &pm.frames[p]
	fi.state = frameAllocated
	fi.order = uint8(order)
	// Interior pages of the block are implicitly allocated; mark them so
	// stray frees are caught.
	for i := PFN(1); i < PFN(1)<<uint(order); i++ {
		pm.frames[p+i].state = frameAllocated
		pm.frames[p+i].order = 0xFF // interior marker
	}
	z.free -= 1 << uint(order)
	z.stats.Allocs++
	return p
}

// freeToZone returns the block at p (2^order pages) to z, coalescing with
// free buddies as far as possible ("the kernel will try to merge pairs of
// free buddy blocks", Section IV).
func (pm *PhysMem) freeToZone(z *zone, p PFN, order int) error {
	fi := &pm.frames[p]
	if fi.state != frameAllocated && fi.state != frameInPCP {
		return fmt.Errorf("%w: frame %d in state %d", ErrBadFree, p, fi.state)
	}
	if fi.state == frameAllocated && fi.order == 0xFF {
		return fmt.Errorf("%w: frame %d is interior to a larger block", ErrBadFree, p)
	}
	if fi.state == frameAllocated && int(fi.order) != order {
		return fmt.Errorf("%w: frame %d allocated at order %d, freed at order %d",
			ErrBadFree, p, fi.order, order)
	}
	origOrder := order
	for order < MaxOrder {
		buddy := z.buddyOf(p, order)
		if !z.contains(buddy) {
			break
		}
		bfi := &pm.frames[buddy]
		if bfi.state != frameFreeHead || int(bfi.order) != order {
			break
		}
		pm.listRemove(z, order, buddy)
		// The merged block starts at the lower of the two buddies.
		if buddy < p {
			p = buddy
		}
		order++
		z.stats.Coalesces++
	}
	pm.listPush(z, order, p)
	// Every page of the final block except the head is a free tail; this
	// covers the newly freed pages and demotes any absorbed buddy heads.
	for i := PFN(1); i < PFN(1)<<uint(order); i++ {
		pm.frames[p+i].state = frameFreeTail
	}
	// Only the newly freed pages increase the free count: absorbed buddies
	// were already accounted free.
	z.free += 1 << uint(origOrder)
	return nil
}

// seedZone carves the zone's frame span into maximal aligned buddy blocks
// and pushes them on the free lists, the way the boot-time memblock release
// populates the buddy allocator.
func (pm *PhysMem) seedZone(z *zone) {
	p := z.spanBase
	for p < z.spanEnd {
		order := MaxOrder
		for order > 0 {
			size := PFN(1) << uint(order)
			aligned := (uint64(p-z.spanBase)&(uint64(size)-1) == 0)
			if aligned && p+size <= z.spanEnd {
				break
			}
			order--
		}
		pm.listPush(z, order, p)
		for i := PFN(1); i < PFN(1)<<uint(order); i++ {
			pm.frames[p+i].state = frameFreeTail
		}
		z.free += 1 << uint(order)
		p += PFN(1) << uint(order)
	}
}

// FreeBlocksByOrder returns, for each order 0..MaxOrder, how many free
// blocks the zone holds — the same view as /proc/buddyinfo.
func (pm *PhysMem) FreeBlocksByOrder(zt ZoneType) [MaxOrder + 1]uint64 {
	var out [MaxOrder + 1]uint64
	z := pm.zones[zt]
	if z == nil {
		return out
	}
	for order := 0; order <= MaxOrder; order++ {
		for p := z.freeLists[order]; p != NilPFN; p = pm.frames[p].next {
			out[order]++
		}
	}
	return out
}

// LargestFreeOrder returns the highest order with a free block in the zone,
// or -1 if the zone is exhausted.
func (pm *PhysMem) LargestFreeOrder(zt ZoneType) int {
	z := pm.zones[zt]
	if z == nil {
		return -1
	}
	for order := MaxOrder; order >= 0; order-- {
		if z.freeLists[order] != NilPFN {
			return order
		}
	}
	return -1
}

// ExternalFragmentation returns the classic fragmentation index for the zone
// at the given order: the fraction of free memory unusable for a 2^order
// request because it sits in smaller blocks.  0 means unfragmented.
func (pm *PhysMem) ExternalFragmentation(zt ZoneType, order int) float64 {
	z := pm.zones[zt]
	if z == nil || z.free == 0 {
		return 0
	}
	counts := pm.FreeBlocksByOrder(zt)
	var usable uint64
	for o := order; o <= MaxOrder; o++ {
		usable += counts[o] << uint(o)
	}
	return 1 - float64(usable)/float64(z.free)
}
