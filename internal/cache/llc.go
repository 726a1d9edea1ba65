package cache

import "explframe/internal/stats"

// The latency model: a cache hit and a DRAM-backed miss are separated far
// enough that the per-access jitter drawn from the trial's stats stream
// never crosses the threshold — timing noise in this simulator comes from
// modeled contention (other victim accesses, background working sets),
// not from measurement error, which keeps trials reproducible.
const (
	// HitLatency is the base cycle cost of an LLC hit.
	HitLatency = 40
	// MissLatency is the base cycle cost of an LLC miss (DRAM fill).
	MissLatency = 180
	// LatencyJitter is the exclusive bound of the uniform per-access
	// jitter added to either base cost.
	LatencyJitter = 10
	// LatencyThreshold classifies a timed access: above is a miss.
	LatencyThreshold = 110
)

// LLC is the deterministic set-associative last-level cache model: fixed
// tag and age arrays indexed by (slice, set, way), true-LRU replacement
// via a monotonic per-cache clock.  Access and Time are allocation-free —
// the property BenchmarkPrimeProbe and the benchtab -check-trajectory
// gate hold the probe loops to.
type LLC struct {
	view *View
	geo  Geometry
	// tags holds the line address + 1 per way (0 = invalid way).
	tags []uint64
	// ages holds the LRU stamp per way.
	ages []uint64
	tick uint64
}

// NewLLC builds an empty cache over the view's address space.
func NewLLC(v *View) *LLC {
	g := v.CacheGeometry()
	ways := g.Sets * g.Ways * g.Slices
	return &LLC{view: v, geo: g, tags: make([]uint64, ways), ages: make([]uint64, ways)}
}

// Access touches the line holding pa, reporting whether it hit.  On a
// miss the line is filled, evicting the set's LRU way.
func (c *LLC) Access(pa uint64) bool {
	set, slice := c.view.LineIndex(pa)
	tag := c.view.lineTag(pa) + 1
	base := (slice*c.geo.Sets + set) * c.geo.Ways
	c.tick++
	lru, lruAge := base, c.ages[base]
	for w := base; w < base+c.geo.Ways; w++ {
		if c.tags[w] == tag {
			c.ages[w] = c.tick
			return true
		}
		if c.tags[w] == 0 {
			// An invalid way is always the replacement victim.
			lru, lruAge = w, 0
		} else if c.ages[w] < lruAge {
			lru, lruAge = w, c.ages[w]
		}
	}
	c.tags[lru] = tag
	c.ages[lru] = c.tick
	return false
}

// Time performs Access and returns the modeled latency in cycles with the
// per-access jitter drawn from rng; hit reports the ground truth the
// latency encodes.  Compare the latency against LatencyThreshold the way
// a real attacker compares rdtsc deltas.
func (c *LLC) Time(pa uint64, rng *stats.RNG) (latency int, hit bool) {
	hit = c.Access(pa)
	if hit {
		return HitLatency + rng.Intn(LatencyJitter), true
	}
	return MissLatency + rng.Intn(LatencyJitter), false
}

// PageBytes is the OS page size the page-cache model (and the victim
// T-table placement) uses.
const PageBytes = 4096

// PageCache is the mincore-style OS page-cache residency model: a bitset
// over the machine's page frames.  It deliberately models only what the
// mincore/preadv2-style probes of "Page Cache Attacks" observe — is the
// page resident — with Touch/Evict as the victim-activity and
// attacker-eviction primitives.
type PageCache struct {
	bits  []uint64
	pages uint64
}

// NewPageCache builds an all-evicted page cache over a memory of the
// given byte size.
func NewPageCache(totalBytes uint64) *PageCache {
	pages := (totalBytes + PageBytes - 1) / PageBytes
	return &PageCache{bits: make([]uint64, (pages+63)/64), pages: pages}
}

// page wraps pa into the modeled memory and returns its page frame number.
func (p *PageCache) page(pa uint64) uint64 {
	return (pa / PageBytes) % p.pages
}

// Touch marks pa's page resident — a victim access faulting the page in.
func (p *PageCache) Touch(pa uint64) {
	n := p.page(pa)
	p.bits[n/64] |= 1 << (n % 64)
}

// Evict drops pa's page from the cache — the attacker's working-set
// pressure forcing the page out.
func (p *PageCache) Evict(pa uint64) {
	n := p.page(pa)
	p.bits[n/64] &^= 1 << (n % 64)
}

// Resident reports whether pa's page is cached — the mincore observation.
func (p *PageCache) Resident(pa uint64) bool {
	n := p.page(pa)
	return p.bits[n/64]&(1<<(n%64)) != 0
}
