package vm

import (
	"testing"

	"explframe/internal/mm"
	"explframe/internal/stats"
)

// A random storm of map/unmap operations (including partial unmaps that
// split areas) must keep the address space invariants: sorted,
// non-overlapping VMAs, each recording frames only for its own pages.
func TestAddressSpaceStorm(t *testing.T) {
	as := NewAddressSpace()
	rng := stats.NewRNG(31337)

	type area struct {
		start VirtAddr
		pages int
	}
	var live []area
	nextPFN := mm.PFN(1)
	released := 0
	release := func(VirtAddr, mm.PFN) { released++ }

	for step := 0; step < 5000; step++ {
		switch {
		case len(live) == 0 || rng.Bool(0.5):
			pages := 1 + rng.Intn(16)
			start, err := as.Map(uint64(pages) * PageSize)
			if err != nil {
				t.Fatalf("step %d: map: %v", step, err)
			}
			// Fault in a random subset of pages.
			for p := 0; p < pages; p++ {
				if rng.Bool(0.6) {
					if err := as.MapFrame(start+VirtAddr(p)*PageSize, nextPFN); err != nil {
						t.Fatalf("step %d: map frame: %v", step, err)
					}
					nextPFN++
				}
			}
			live = append(live, area{start, pages})
		default:
			i := rng.Intn(len(live))
			a := live[i]
			// Unmap a random sub-range, possibly splitting the area.
			off := rng.Intn(a.pages)
			n := 1 + rng.Intn(a.pages-off)
			err := as.Unmap(a.start+VirtAddr(off)*PageSize, uint64(n)*PageSize, release)
			if err != nil {
				t.Fatalf("step %d: unmap: %v", step, err)
			}
			// Track the remains as up to two areas.
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if off > 0 {
				live = append(live, area{a.start, off})
			}
			if off+n < a.pages {
				live = append(live, area{a.start + VirtAddr(off+n)*PageSize, a.pages - off - n})
			}
		}
		if step%500 == 0 {
			if err := as.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	// Tear everything down; the space must end empty.
	for _, a := range live {
		if err := as.Unmap(a.start, uint64(a.pages)*PageSize, release); err != nil {
			t.Fatal(err)
		}
	}
	if as.MappedBytes() != 0 || released != int(nextPFN-1) {
		t.Fatalf("space not empty: %d bytes, %d of %d frames released", as.MappedBytes(), released, nextPFN-1)
	}
	if err := as.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
