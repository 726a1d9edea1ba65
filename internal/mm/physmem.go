package mm

import "fmt"

// Config sizes the physical memory manager.
type Config struct {
	// TotalBytes is the amount of managed physical memory.  Must be a
	// multiple of the page size.
	TotalBytes uint64
	// NumCPUs is the number of CPUs; each gets its own page frame cache per
	// zone.
	NumCPUs int
	// PCPBatch is the pcp refill/spill chunk size (Linux: ->batch).
	PCPBatch int
	// PCPHigh is the pcp capacity before spilling back to buddy (->high).
	PCPHigh int
	// PCPFIFO switches the page frame cache from Linux's LIFO (hot reuse)
	// to FIFO service.  Ablation knob: the ExplFrame steering primitive
	// depends on LIFO, so FIFO quantifies how much of the attack is due to
	// that one policy choice (experiment E14).
	PCPFIFO bool
	// MinWatermarkPages is the per-zone reserve below which allocations
	// fail (a simplified min watermark).
	MinWatermarkPages uint64
}

// DefaultConfig returns a 256 MiB, 2-CPU machine with Linux-like pcp sizing.
func DefaultConfig() Config {
	return Config{
		TotalBytes:        256 << 20,
		NumCPUs:           2,
		PCPBatch:          31, // Linux pcp batch for 4 KiB pages
		PCPHigh:           186,
		MinWatermarkPages: 32,
	}
}

// dmaLimit and dma32Limit are the fixed zone boundaries of Section III of
// the paper: ZONE_DMA below 16 MiB, ZONE_DMA32 below 4 GiB, ZONE_NORMAL
// above.
const (
	dmaLimit   = 16 << 20
	dma32Limit = 4 << 30
)

// pcpList is one per-CPU page frame cache for one zone: a LIFO of order-0
// frames.  "This small software cache of recently deallocated (released)
// page frames are used by the Buddy allocator if the local CPU requests a
// small amount of memory" (Section IV).
type pcpList struct {
	frames []PFN // frames[len-1] is the hot (most recently freed) end
	batch  int
	high   int
}

// PhysMem is the machine-wide physical page allocator: zones with buddy
// allocators plus per-CPU page frame caches.
type PhysMem struct {
	cfg    Config
	frames []frameInfo
	zones  [numZones]*zone
	// pcp[cpu][zone]
	pcp [][]*pcpList
}

// New builds the allocator and seeds every zone's buddy free lists.
func New(cfg Config) (*PhysMem, error) {
	if cfg.TotalBytes == 0 || cfg.TotalBytes%PageSize != 0 {
		return nil, fmt.Errorf("mm: TotalBytes must be a positive multiple of %d", PageSize)
	}
	if cfg.NumCPUs <= 0 {
		return nil, fmt.Errorf("mm: NumCPUs must be positive")
	}
	if cfg.PCPBatch <= 0 || cfg.PCPHigh < cfg.PCPBatch {
		return nil, fmt.Errorf("mm: need 0 < PCPBatch <= PCPHigh")
	}
	totalPages := cfg.TotalBytes / PageSize
	pm := &PhysMem{
		cfg:    cfg,
		frames: make([]frameInfo, totalPages),
	}

	bounds := []struct {
		zt     ZoneType
		lo, hi uint64
	}{
		{ZoneDMA, 0, dmaLimit},
		{ZoneDMA32, dmaLimit, dma32Limit},
		{ZoneNormal, dma32Limit, ^uint64(0)},
	}
	for _, b := range bounds {
		lo, hi := b.lo, b.hi
		if hi > cfg.TotalBytes {
			hi = cfg.TotalBytes
		}
		if lo >= hi {
			continue // zone not present on this machine
		}
		z := &zone{
			ztype:     b.zt,
			spanBase:  PFNOf(lo),
			spanEnd:   PFNOf(hi),
			min:       cfg.MinWatermarkPages,
			freeLists: make([]PFN, MaxOrder+1),
		}
		for i := range z.freeLists {
			z.freeLists[i] = NilPFN
		}
		pm.zones[b.zt] = z
		pm.seedZone(z)
	}

	pm.pcp = make([][]*pcpList, cfg.NumCPUs)
	for cpu := range pm.pcp {
		pm.pcp[cpu] = make([]*pcpList, numZones)
		for zt := range pm.pcp[cpu] {
			if pm.zones[zt] != nil {
				pm.pcp[cpu][zt] = &pcpList{batch: cfg.PCPBatch, high: cfg.PCPHigh}
			}
		}
	}
	return pm, nil
}

// ZoneOf returns the zone containing the frame, or -1 if unmanaged.
func (pm *PhysMem) ZoneOf(p PFN) ZoneType {
	for zt, z := range pm.zones {
		if z != nil && z.contains(p) {
			return ZoneType(zt)
		}
	}
	return ZoneType(-1)
}

// HasZone reports whether the machine has the given zone.
func (pm *PhysMem) HasZone(zt ZoneType) bool { return pm.zones[zt] != nil }

// FreePages returns the total number of free pages in the zone (buddy only;
// pcp-cached frames are not counted free, matching NR_FREE_PAGES semantics).
func (pm *PhysMem) FreePagesInZone(zt ZoneType) uint64 {
	if pm.zones[zt] == nil {
		return 0
	}
	return pm.zones[zt].free
}

// Stats returns a copy of the zone's counters.
func (pm *PhysMem) Stats(zt ZoneType) ZoneStats {
	if pm.zones[zt] == nil {
		return ZoneStats{}
	}
	return pm.zones[zt].stats
}

// watermarkOK reports whether taking 2^order pages keeps the zone above its
// minimum watermark.
func (z *zone) watermarkOK(order int) bool {
	need := uint64(1) << uint(order)
	return z.free >= need && z.free-need >= z.min
}

// AllocPages allocates a block of 2^order contiguous frames on behalf of the
// given CPU, preferring ZoneNormal and walking the zonelist downwards
// (Section IV: "the allocation function will try to get the page frames from
// other zones in order as maintained in zonelist").  Order-0 requests go
// through the CPU's page frame cache.
func (pm *PhysMem) AllocPages(cpu, order int) (PFN, error) {
	if cpu < 0 || cpu >= pm.cfg.NumCPUs {
		return NilPFN, fmt.Errorf("mm: bad cpu %d", cpu)
	}
	if order < 0 || order > MaxOrder {
		return NilPFN, fmt.Errorf("mm: bad order %d", order)
	}
	pref := pm.highestZone()
	if order == 0 {
		return pm.allocOrder0(cpu, pref)
	}
	for _, zt := range zonelist(pref) {
		z := pm.zones[zt]
		if z == nil {
			continue
		}
		if !z.watermarkOK(order) {
			z.stats.FailedAllo++
			continue
		}
		if p := pm.allocFromZone(z, order); p != NilPFN {
			if zt != pref {
				z.stats.Fallbacks++
			}
			return p, nil
		}
	}
	return NilPFN, ErrNoMemory
}

// highestZone returns the most general zone present on the machine.
func (pm *PhysMem) highestZone() ZoneType {
	for _, zt := range []ZoneType{ZoneNormal, ZoneDMA32, ZoneDMA} {
		if pm.zones[zt] != nil {
			return zt
		}
	}
	return ZoneDMA
}

// allocOrder0 serves a single-frame request from the CPU's page frame cache,
// refilling a batch from the buddy allocator on a miss.
func (pm *PhysMem) allocOrder0(cpu int, pref ZoneType) (PFN, error) {
	for _, zt := range zonelist(pref) {
		z := pm.zones[zt]
		if z == nil {
			continue
		}
		lst := pm.pcp[cpu][zt]
		if len(lst.frames) > 0 {
			z.stats.PCPHits++
		} else {
			// Miss: refill a batch from the buddy allocator.
			z.stats.PCPMisses++
			if !z.watermarkOK(0) {
				z.stats.FailedAllo++
				continue
			}
			for i := 0; i < lst.batch && z.watermarkOK(0); i++ {
				p := pm.allocFromZone(z, 0)
				if p == NilPFN {
					break
				}
				pm.frames[p].state = frameInPCP
				pm.frames[p].cpu = int32(cpu)
				lst.frames = append(lst.frames, p)
			}
			if len(lst.frames) == 0 {
				continue
			}
			z.stats.PCPRefills++
			if zt != pref {
				z.stats.Fallbacks++
			}
		}
		// Take one frame: LIFO hands out the hottest, the FIFO ablation
		// the oldest (a refill pushed its batch in buddy order).
		var p PFN
		if pm.cfg.PCPFIFO {
			p = lst.frames[0]
			lst.frames = append(lst.frames[:0], lst.frames[1:]...)
		} else {
			p = lst.frames[len(lst.frames)-1]
			lst.frames = lst.frames[:len(lst.frames)-1]
		}
		pm.frames[p].state = frameAllocated
		pm.frames[p].order = 0
		return p, nil
	}
	return NilPFN, ErrNoMemory
}

// FreePages returns a block to the allocator on behalf of the given CPU.
// Order-0 frees go to the CPU's page frame cache — this is the hook the
// attack depends on: the freed frame becomes the next frame handed to any
// process allocating on this CPU.
func (pm *PhysMem) FreePages(cpu int, p PFN, order int) error {
	if cpu < 0 || cpu >= pm.cfg.NumCPUs {
		return fmt.Errorf("mm: bad cpu %d", cpu)
	}
	if uint64(p) >= uint64(len(pm.frames)) {
		return fmt.Errorf("%w: frame %d out of range", ErrBadFree, p)
	}
	zt := pm.ZoneOf(p)
	if zt < 0 {
		return fmt.Errorf("%w: frame %d not managed", ErrBadFree, p)
	}
	z := pm.zones[zt]
	fi := &pm.frames[p]
	if fi.state != frameAllocated {
		return fmt.Errorf("%w: frame %d not allocated (state %d)", ErrBadFree, p, fi.state)
	}
	if fi.order == 0xFF {
		return fmt.Errorf("%w: frame %d interior to a larger block", ErrBadFree, p)
	}
	if int(fi.order) != order {
		return fmt.Errorf("%w: frame %d allocated order %d, freed order %d", ErrBadFree, p, fi.order, order)
	}
	if order == 0 {
		lst := pm.pcp[cpu][zt]
		fi.state = frameInPCP
		fi.cpu = int32(cpu)
		lst.frames = append(lst.frames, p)
		if len(lst.frames) > lst.high {
			pm.spillPCP(cpu, zt)
		}
		return nil
	}
	return pm.freeToZone(z, p, order)
}

// spillPCP releases one batch of the coldest pcp frames back to the buddy
// allocator, keeping the hot end intact (mirrors free_pcppages_bulk).
func (pm *PhysMem) spillPCP(cpu int, zt ZoneType) {
	z := pm.zones[zt]
	lst := pm.pcp[cpu][zt]
	n := lst.batch
	if n > len(lst.frames) {
		n = len(lst.frames)
	}
	for i := 0; i < n; i++ {
		p := lst.frames[i] // coldest entries sit at the front
		if err := pm.freeToZone(z, p, 0); err != nil {
			panic(fmt.Sprintf("mm: pcp spill corrupted: %v", err))
		}
	}
	lst.frames = append(lst.frames[:0], lst.frames[n:]...)
	z.stats.PCPSpills++
}

// DrainCPU releases every pcp frame of the CPU back to the buddy allocator.
// The kernel does this when a CPU goes idle/offline or under memory
// pressure; Section V's requirement that "the adversarial process must
// remain active" exists precisely because a drained cache loses the planted
// frame.
func (pm *PhysMem) DrainCPU(cpu int) {
	if cpu < 0 || cpu >= pm.cfg.NumCPUs {
		return
	}
	for zt := range pm.pcp[cpu] {
		lst := pm.pcp[cpu][zt]
		if lst == nil {
			continue
		}
		z := pm.zones[zt]
		for _, p := range lst.frames {
			if err := pm.freeToZone(z, p, 0); err != nil {
				panic(fmt.Sprintf("mm: drain corrupted: %v", err))
			}
		}
		lst.frames = lst.frames[:0]
	}
}

// PCPContents returns a copy of the CPU's page frame cache for a zone,
// coldest first.  Diagnostic view used by tests.
//
//doclint:keep kernel tests check that munmap puts the freed frame at the hot end
func (pm *PhysMem) PCPContents(cpu int, zt ZoneType) []PFN {
	if cpu < 0 || cpu >= pm.cfg.NumCPUs || pm.pcp[cpu][zt] == nil {
		return nil
	}
	out := make([]PFN, len(pm.pcp[cpu][zt].frames))
	copy(out, pm.pcp[cpu][zt].frames)
	return out
}

// PCPCount returns how many frames sit in the CPU's cache for the zone.
//
//doclint:keep kernel tests observe the page frame cache drain on sleep and exit
func (pm *PhysMem) PCPCount(cpu int, zt ZoneType) int {
	if cpu < 0 || cpu >= pm.cfg.NumCPUs || pm.pcp[cpu][zt] == nil {
		return 0
	}
	return len(pm.pcp[cpu][zt].frames)
}

// CheckInvariants walks every zone verifying the buddy structure:
// free-list entries are marked free at the right order, block extents do not
// overlap, and accounted free pages match the lists.  Tests and the fuzzing
// harness call it after every operation batch.
func (pm *PhysMem) CheckInvariants() error {
	for zt, z := range pm.zones {
		if z == nil {
			continue
		}
		seen := make(map[PFN]bool)
		var freePages uint64
		for order := 0; order <= MaxOrder; order++ {
			for p := z.freeLists[order]; p != NilPFN; p = pm.frames[p].next {
				if pm.frames[p].state != frameFreeHead {
					return fmt.Errorf("zone %v: list order %d frame %d not a free head", ZoneType(zt), order, p)
				}
				if int(pm.frames[p].order) != order {
					return fmt.Errorf("zone %v: frame %d order %d on list %d", ZoneType(zt), p, pm.frames[p].order, order)
				}
				size := PFN(1) << uint(order)
				if p+size > z.spanEnd {
					return fmt.Errorf("zone %v: block %d order %d exceeds span", ZoneType(zt), p, order)
				}
				if uint64(p-z.spanBase)&(uint64(size)-1) != 0 {
					return fmt.Errorf("zone %v: block %d misaligned for order %d", ZoneType(zt), p, order)
				}
				for i := PFN(0); i < size; i++ {
					if seen[p+i] {
						return fmt.Errorf("zone %v: frame %d in two free blocks", ZoneType(zt), p+i)
					}
					seen[p+i] = true
					if i > 0 && pm.frames[p+i].state != frameFreeTail {
						return fmt.Errorf("zone %v: interior frame %d of free block not tail", ZoneType(zt), p+i)
					}
				}
				freePages += uint64(size)
			}
		}
		if freePages != z.free {
			return fmt.Errorf("zone %v: accounted free %d != listed free %d", ZoneType(zt), z.free, freePages)
		}
	}
	return nil
}
