// Package cache models the CPU cache hierarchy that ExplFrame's timing
// side channels observe: a deterministic set-associative last-level cache
// (configurable sets/ways/slices, pluggable slice hash, true-LRU
// replacement, hit/miss latencies drawn from the caller's stats stream)
// and a mincore-style OS page-cache residency model.
//
// The package layers a View over the internal/dram Mapper:
// where the DRAM side of a physical address determines which rows disturb
// each other, the cache side determines which addresses collide in a
// cache set — the property eviction-set construction and the Prime+Probe
// and Evict+Reload attacker primitives (probe.go) are built on.  Like the
// mappers, slice hashes are a name-keyed registry so machines with
// different uncore designs (striped low-end parts, Intel-style XOR-folded
// slice selection) present differently shaped collision sets to the
// attacker while the victim's T-table layout stays fixed.
package cache

import (
	"fmt"
	"sort"

	"explframe/internal/dram"
)

// Geometry describes a set-associative last-level cache.  All dimensions
// must be powers of two so set and slice indices are bit fields of the
// line address, matching how real uncore hashes are reverse engineered.
type Geometry struct {
	// Sets is the number of cache sets per slice.
	Sets int `json:"sets"`
	// Ways is the associativity of each set.
	Ways int `json:"ways"`
	// Slices is the number of LLC slices (one per core on Intel parts).
	Slices int `json:"slices"`
	// LineBytes is the cache-line size.
	LineBytes int `json:"line_bytes"`
}

// DefaultGeometry returns the LLC model the scenario layer derives from a
// machine profile: 1024 sets x 8 ways of 64-byte lines, with one slice
// per CPU (rounded down to a power of two) — a 512 KiB-per-slice part in
// the proportions of the paper's testbed uncore.
func DefaultGeometry(cpus int) Geometry {
	slices := 1
	for slices <= cpus/2 { // not slices*2 <= cpus, which overflows near MaxInt
		slices *= 2
	}
	return Geometry{Sets: 1024, Ways: 8, Slices: slices, LineBytes: 64}
}

// Validate reports whether the geometry is usable: every dimension
// positive and sets/slices/line size powers of two.
func (g Geometry) Validate() error {
	switch {
	case g.Sets <= 0, g.Ways <= 0, g.Slices <= 0, g.LineBytes <= 0:
		return fmt.Errorf("cache: geometry dimensions must be positive: %+v", g)
	}
	for _, v := range []int{g.Sets, g.Slices, g.LineBytes} {
		if v&(v-1) != 0 {
			return fmt.Errorf("cache: sets, slices and line size must be powers of two, got %d", v)
		}
	}
	return nil
}

// Slice-hash kind names accepted by NewView (mirroring dram's mapper
// kinds).
const (
	// SliceStripe selects the slice from the line-address bits directly
	// above the set index — the banked layout of low-end uncores, where
	// contiguous physical ranges stripe across slices at set granularity.
	SliceStripe = "stripe"
	// SliceXOR selects the slice by XOR-folding every slice-width window
	// of the line address above the set index — the shape of the
	// reverse-engineered Intel slice-selection hashes, where large-stride
	// access patterns still scatter across slices.
	SliceXOR = "xor"
)

// sliceHashKinds maps kind names onto hash constructors.  "" aliases
// stripe so zero-valued configs keep a meaning, as with dram mappers.
var sliceHashKinds = map[string]func(g Geometry) func(line uint64) int{
	"":          stripeHash,
	SliceStripe: stripeHash,
	SliceXOR:    xorHash,
}

func stripeHash(g Geometry) func(line uint64) int {
	setBits := log2(g.Sets)
	mask := uint64(g.Slices - 1)
	return func(line uint64) int {
		return int((line >> setBits) & mask)
	}
}

func xorHash(g Geometry) func(line uint64) int {
	setBits := log2(g.Sets)
	sliceBits := log2(g.Slices)
	if sliceBits == 0 {
		return func(uint64) int { return 0 }
	}
	mask := uint64(g.Slices - 1)
	return func(line uint64) int {
		h := line >> setBits
		s := uint64(0)
		for h != 0 {
			s ^= h & mask
			h >>= sliceBits
		}
		return int(s)
	}
}

// SliceHashNames returns the registered slice-hash kind names, sorted.
func SliceHashNames() []string {
	out := make([]string, 0, len(sliceHashKinds)-1)
	for n := range sliceHashKinds {
		if n != "" {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// DefaultSliceHash pairs a dram mapper kind with the slice hash its
// machine class ships: the linear mapper's low-end parts stripe, the
// XOR-folded DDR4 parts hash slices the same way they hash banks.
func DefaultSliceHash(mapperName string) string {
	if mapperName == dram.MapperXORFold {
		return SliceXOR
	}
	return SliceStripe
}

// View is the cache side of a mapper's address space: which LLC set and
// slice a physical line lands in, on top of the embedded mapper's DRAM
// side.  LineIndex is a pure function of the line address — every address
// within one cache line maps to exactly one (set, slice), pinned by
// FuzzCacheViewRoundTrip and TestCacheViewPartition for every registered
// mapper x slice-hash combination.
type View struct {
	*dram.Mapper
	geo       Geometry
	hash      func(line uint64) int
	lineBits  uint
	setMask   uint64
	totalMask uint64
}

// NewView builds the cache view of a mapper's address space under the
// given LLC geometry and slice-hash kind (the empty kind selects stripe).
func NewView(m *dram.Mapper, g Geometry, sliceHash string) (*View, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	ctor, ok := sliceHashKinds[sliceHash]
	if !ok {
		return nil, fmt.Errorf("cache: unknown slice hash %q (known: %v)", sliceHash, SliceHashNames())
	}
	total := m.Geometry().TotalBytes()
	if total < uint64(g.LineBytes) {
		return nil, fmt.Errorf("cache: DRAM geometry (%d bytes) smaller than one cache line", total)
	}
	return &View{
		Mapper:    m,
		geo:       g,
		hash:      ctor(g),
		lineBits:  log2(g.LineBytes),
		setMask:   uint64(g.Sets - 1),
		totalMask: total - 1,
	}, nil
}

// CacheGeometry returns the LLC geometry the view was built for.
func (v *View) CacheGeometry() Geometry { return v.geo }

// LineIndex maps a physical address to its LLC (set, slice).  Addresses
// beyond the DRAM geometry wrap, keeping the function total for property
// tests, as with Mapper.ToDRAM.
func (v *View) LineIndex(pa uint64) (set, slice int) {
	line := v.lineTag(pa)
	return int(line & v.setMask), v.hash(line)
}

// lineTag returns the full line address — the tag the LLC model stores.
func (v *View) lineTag(pa uint64) uint64 {
	return (pa & v.totalMask) >> v.lineBits
}

// log2 returns floor(log2(v)) for a power-of-two v.
func log2(v int) uint {
	n := uint(0)
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
