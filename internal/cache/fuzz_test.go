package cache

import (
	"testing"

	"explframe/internal/dram"
)

// FuzzCacheViewRoundTrip pins the View contract for every registered
// mapper x slice-hash combination on arbitrary physical addresses: the
// embedded mapper still round-trips through the view (the view adds the
// cache side, it must not perturb the DRAM side), the (set, slice) is in
// range, and every address within one cache line lands in the same
// (set, slice).
func FuzzCacheViewRoundTrip(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(4095))
	f.Add(uint64(1 << 27))
	f.Add(^uint64(0))

	type combo struct {
		name string
		view *View
	}
	var views []combo
	for _, mn := range dram.MapperNames() {
		m, err := dram.NewNamedMapper(mn, dram.DefaultGeometry())
		if err != nil {
			f.Fatal(err)
		}
		for _, hn := range SliceHashNames() {
			v, err := NewView(m, DefaultGeometry(4), hn)
			if err != nil {
				f.Fatal(err)
			}
			views = append(views, combo{mn + "/" + hn, v})
		}
	}

	f.Fuzz(func(t *testing.T, pa uint64) {
		for _, c := range views {
			v := c.view
			g := v.CacheGeometry()
			in := pa % v.Geometry().TotalBytes()
			if got := v.ToPhys(v.ToDRAM(in)); got != in {
				t.Fatalf("%s: mapper round trip through the view broke: %#x -> %#x", c.name, in, got)
			}
			set, slice := v.LineIndex(pa)
			if set < 0 || set >= g.Sets || slice < 0 || slice >= g.Slices {
				t.Fatalf("%s: pa %#x -> (%d, %d) out of range", c.name, pa, set, slice)
			}
			s2, sl2 := v.LineIndex(pa &^ uint64(g.LineBytes-1))
			if s2 != set || sl2 != slice {
				t.Fatalf("%s: pa %#x disagrees with its line start: (%d,%d) vs (%d,%d)",
					c.name, pa, set, slice, s2, sl2)
			}
		}
	})
}
