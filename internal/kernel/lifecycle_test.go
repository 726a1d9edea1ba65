package kernel

import (
	"testing"

	"explframe/internal/dram"
	"explframe/internal/mm"
	"explframe/internal/stats"
	"explframe/internal/vm"
)

// A storm of process lifecycles and memory operations must never leak or
// double-account a frame: when every process has unmapped what it mapped
// and the caches are drained, every page is free again and the buddy
// structure is intact.
func TestProcessLifecycleStorm(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Geometry = dram.Geometry{Channels: 1, DIMMs: 1, Ranks: 1, Banks: 8, Rows: 1024, RowBytes: 8192}
	cfg.NumCPUs = 4
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	freePages := func() uint64 {
		var free uint64
		for _, zt := range []mm.ZoneType{mm.ZoneDMA, mm.ZoneDMA32, mm.ZoneNormal} {
			free += m.Phys().FreePagesInZone(zt)
		}
		return free
	}
	total := freePages()
	rng := stats.NewRNG(77)

	type mapping struct {
		va    vm.VirtAddr
		pages int
	}
	type procState struct {
		p    *Process
		maps []mapping
	}
	var procs []*procState
	// retire unmaps every mapping the process still holds and puts it to
	// sleep, which drains its CPU's cache when no running process is left.
	retire := func(ps *procState) {
		for _, mp := range ps.maps {
			if err := ps.p.Munmap(mp.va, uint64(mp.pages)*vm.PageSize); err != nil {
				t.Fatalf("retire: munmap: %v", err)
			}
		}
		ps.maps = nil
		ps.p.Sleep()
	}

	for step := 0; step < 4000; step++ {
		switch {
		case len(procs) == 0 || (len(procs) < 12 && rng.Bool(0.15)):
			p, err := m.Spawn("storm", rng.Intn(cfg.NumCPUs))
			if err != nil {
				t.Fatal(err)
			}
			procs = append(procs, &procState{p: p})
		case rng.Bool(0.05):
			i := rng.Intn(len(procs))
			retire(procs[i])
			procs[i] = procs[len(procs)-1]
			procs = procs[:len(procs)-1]
		case rng.Bool(0.1):
			i := rng.Intn(len(procs))
			if procs[i].p.State() == StateRunning {
				procs[i].p.Sleep()
			} else {
				procs[i].p.Wake()
			}
		default:
			i := rng.Intn(len(procs))
			ps := procs[i]
			if len(ps.maps) > 0 && rng.Bool(0.45) {
				j := rng.Intn(len(ps.maps))
				mp := ps.maps[j]
				if err := ps.p.Munmap(mp.va, uint64(mp.pages)*vm.PageSize); err != nil {
					t.Fatalf("step %d: munmap: %v", step, err)
				}
				ps.maps[j] = ps.maps[len(ps.maps)-1]
				ps.maps = ps.maps[:len(ps.maps)-1]
				continue
			}
			pages := 1 + rng.Intn(8)
			va, err := ps.p.Mmap(uint64(pages) * vm.PageSize)
			if err != nil {
				continue // transient OOM under pressure is fine
			}
			if err := ps.p.Touch(va, uint64(pages)*vm.PageSize); err != nil {
				// OOM mid-touch: release what we got and move on.
				_ = ps.p.Munmap(va, uint64(pages)*vm.PageSize)
				continue
			}
			ps.maps = append(ps.maps, mapping{va, pages})
		}
		if step%1000 == 0 {
			if err := m.Phys().CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}

	for _, ps := range procs {
		if err := ps.p.AddressSpace().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		retire(ps)
	}
	for cpu := 0; cpu < cfg.NumCPUs; cpu++ {
		m.Phys().DrainCPU(cpu)
	}
	if err := m.Phys().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if free := freePages(); free != total {
		t.Fatalf("leaked frames: %d free of %d at boot after every unmap", free, total)
	}
}
