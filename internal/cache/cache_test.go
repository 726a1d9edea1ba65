package cache

import (
	"errors"
	"math"
	"testing"

	"explframe/internal/dram"
)

// testViews builds a view per (mapper, slice-hash) combination over the
// default 256 MiB geometry — the cross product the View contract is
// pinned on.
func testViews(t *testing.T) map[string]*View {
	t.Helper()
	views := make(map[string]*View)
	for _, mn := range dram.MapperNames() {
		m, err := dram.NewNamedMapper(mn, dram.DefaultGeometry())
		if err != nil {
			t.Fatalf("mapper %s: %v", mn, err)
		}
		for _, hn := range SliceHashNames() {
			v, err := NewView(m, DefaultGeometry(4), hn)
			if err != nil {
				t.Fatalf("view %s/%s: %v", mn, hn, err)
			}
			views[mn+"/"+hn] = v
		}
	}
	return views
}

func TestGeometryValidate(t *testing.T) {
	if err := DefaultGeometry(2).Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
	bad := []Geometry{
		{Sets: 0, Ways: 8, Slices: 2, LineBytes: 64},
		{Sets: 1024, Ways: 0, Slices: 2, LineBytes: 64},
		{Sets: 1000, Ways: 8, Slices: 2, LineBytes: 64},
		{Sets: 1024, Ways: 8, Slices: 3, LineBytes: 64},
		{Sets: 1024, Ways: 8, Slices: 2, LineBytes: 96},
	}
	for _, g := range bad {
		if g.Validate() == nil {
			t.Errorf("geometry %+v validated", g)
		}
	}
}

func TestDefaultGeometrySlices(t *testing.T) {
	for cpus, want := range map[int]int{1: 1, 2: 2, 3: 2, 4: 4, 6: 4, math.MaxInt: math.MaxInt/2 + 1} {
		if got := DefaultGeometry(cpus).Slices; got != want {
			t.Errorf("DefaultGeometry(%d).Slices = %d, want %d", cpus, got, want)
		}
	}
}

func TestNewViewRejectsUnknownHash(t *testing.T) {
	m, _ := dram.NewNamedMapper(dram.MapperLinear, dram.DefaultGeometry())
	if _, err := NewView(m, DefaultGeometry(2), "no-such-hash"); err == nil {
		t.Fatal("unknown slice hash accepted")
	}
}

func TestDefaultSliceHash(t *testing.T) {
	if got := DefaultSliceHash(dram.MapperLinear); got != SliceStripe {
		t.Errorf("linear mapper default hash = %q", got)
	}
	if got := DefaultSliceHash(dram.MapperXORFold); got != SliceXOR {
		t.Errorf("xor-fold mapper default hash = %q", got)
	}
}

// TestCacheViewPartition pins the View contract: every physical
// address lands in exactly one in-range (set, slice), all addresses within
// a line agree, and a line-aligned scan reaches every (set, slice)
// combination — the property eviction-set construction relies on.
func TestCacheViewPartition(t *testing.T) {
	for name, v := range testViews(t) {
		g := v.CacheGeometry()
		seen := make([]int, g.Sets*g.Slices)
		lines := g.Sets * g.Slices * 4
		for l := 0; l < lines; l++ {
			pa := uint64(l * g.LineBytes)
			set, slice := v.LineIndex(pa)
			if set < 0 || set >= g.Sets || slice < 0 || slice >= g.Slices {
				t.Fatalf("%s: pa %#x -> (%d, %d) out of range", name, pa, set, slice)
			}
			s2, sl2 := v.LineIndex(pa + uint64(g.LineBytes-1))
			if s2 != set || sl2 != slice {
				t.Fatalf("%s: line %#x splits across (%d,%d)/(%d,%d)", name, pa, set, slice, s2, sl2)
			}
			seen[slice*g.Sets+set]++
		}
		for i, n := range seen {
			if n == 0 {
				t.Fatalf("%s: (set %d, slice %d) unreachable in a %d-line scan",
					name, i%g.Sets, i/g.Sets, lines)
			}
		}
	}
}

// TestCacheViewWraps pins LineIndex totality: addresses beyond the DRAM
// geometry wrap instead of indexing out of range, mirroring ToDRAM.
func TestCacheViewWraps(t *testing.T) {
	for name, v := range testViews(t) {
		total := v.Geometry().TotalBytes()
		s1, sl1 := v.LineIndex(42 * 64)
		s2, sl2 := v.LineIndex(total + 42*64)
		if s1 != s2 || sl1 != sl2 {
			t.Errorf("%s: wrap changed (%d,%d) -> (%d,%d)", name, s1, sl1, s2, sl2)
		}
	}
}

func TestLLCHitMissLRU(t *testing.T) {
	for name, v := range testViews(t) {
		c := NewLLC(v)
		g := v.CacheGeometry()
		set, slice := v.LineIndex(0)
		ev, err := BuildEvictionSet(v, 8<<20, set, slice, g.Ways+1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Access(ev[0]) {
			t.Fatalf("%s: cold access hit", name)
		}
		if !c.Access(ev[0]) {
			t.Fatalf("%s: warm access missed", name)
		}
		// Fill the set with Ways fresh lines: the oldest (ev[0]) must be
		// the one evicted.
		for _, pa := range ev[1 : g.Ways+1] {
			c.Access(pa)
		}
		if c.Access(ev[0]) {
			t.Fatalf("%s: LRU line survived a full-set refill", name)
		}
		if !c.Access(ev[g.Ways]) {
			// ev[Ways] was the most recent line before ev[0]'s refill
			// evicted the then-LRU ev[1]; it must still be resident.
			t.Fatalf("%s: MRU line evicted", name)
		}
	}
}

// TestEvictionSetProperties pins the eviction-set contract: construction
// either returns exactly the requested number of distinct, congruent,
// line-aligned addresses, or fails with the typed ErrEvictionSet.
func TestEvictionSetProperties(t *testing.T) {
	for name, v := range testViews(t) {
		g := v.CacheGeometry()
		set, slice := v.LineIndex(uint64(123 * g.LineBytes))
		ev, err := BuildEvictionSet(v, 16<<20, set, slice, g.Ways)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(ev) != g.Ways {
			t.Fatalf("%s: %d lines, want %d", name, len(ev), g.Ways)
		}
		seen := make(map[uint64]bool)
		for _, pa := range ev {
			if pa%uint64(g.LineBytes) != 0 {
				t.Fatalf("%s: %#x not line-aligned", name, pa)
			}
			if seen[pa] {
				t.Fatalf("%s: duplicate line %#x", name, pa)
			}
			seen[pa] = true
			if s, sl := v.LineIndex(pa); s != set || sl != slice {
				t.Fatalf("%s: %#x lands in (%d, %d), want (%d, %d)", name, pa, s, sl, set, slice)
			}
		}

		// A pool smaller than one congruent line per set cannot fill any
		// eviction set: the typed error, not a hang or a short slice.
		_, err = BuildEvictionSet(v, uint64(g.LineBytes), set, slice, g.Ways)
		if !errors.Is(err, ErrEvictionSet) {
			t.Fatalf("%s: starved pool returned %v, want ErrEvictionSet", name, err)
		}
	}
	v := testViews(t)["linear/stripe"]
	if _, err := BuildEvictionSet(v, 1<<20, 0, 0, 0); err == nil {
		t.Fatal("zero-line eviction set accepted")
	}
}
