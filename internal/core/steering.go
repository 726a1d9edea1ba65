package core

import (
	"fmt"

	"explframe/internal/dram"
	"explframe/internal/kernel"
	"explframe/internal/mm"
	"explframe/internal/stats"
	"explframe/internal/trace"
	"explframe/internal/vm"
)

// SteeringConfig parameterises a steering-only trial: no hammering, purely
// the Section V page-frame-cache mechanics.  These trials are cheap, so the
// E2/E3/E11 parameter sweeps run thousands of them.
type SteeringConfig struct {
	Seed    uint64
	Machine kernel.Config

	AttackerCPU int
	VictimCPU   int

	// AttackerPages is the attacker's buffer size in pages.
	AttackerPages int
	// ReleasePages is how many pages the attacker munmaps ("unmaps one or
	// two pages and waits", Section V).
	ReleasePages int

	// NoiseProcs/NoiseOps model unrelated allocation churn on the victim
	// CPU between release and victim start.
	NoiseProcs int
	NoiseOps   int

	// AttackerSleeps models the inactive attacker of Section V.
	AttackerSleeps bool

	// VictimRequestPages is the size of the victim's request.
	VictimRequestPages int
}

// DefaultSteeringConfig mirrors the attack defaults on a 64 MiB machine —
// steering depends only on allocator state, so the smaller module keeps
// thousand-trial sweeps cheap without changing the statistics.
func DefaultSteeringConfig() SteeringConfig {
	mc := kernel.DefaultConfig()
	mc.Geometry = dram.Geometry{Banks: 8, Rows: 1024, RowBytes: 8192}
	return SteeringConfig{
		Seed:               1,
		Machine:            mc,
		AttackerPages:      1024,
		ReleasePages:       1,
		VictimRequestPages: 4,
	}
}

// SteeringResult reports where the released frames ended up.
type SteeringResult struct {
	// Planted holds the released frames, coldest first (the last entry was
	// unmapped last and sits hottest in the cache).
	Planted []mm.PFN
	// VictimPFNs are the frames backing the victim's pages in touch order.
	VictimPFNs []mm.PFN
	// FirstPageHit reports whether the victim's first-touched page received
	// the hottest planted frame — the precise steering the attack needs.
	FirstPageHit bool
	// PlantedReused counts how many planted frames ended up anywhere in the
	// victim's allocation.
	PlantedReused int
}

// RunSteeringTrial executes one plant-and-steer experiment.
func RunSteeringTrial(cfg SteeringConfig) (*SteeringResult, error) {
	if cfg.ReleasePages <= 0 || cfg.ReleasePages > cfg.AttackerPages {
		return nil, fmt.Errorf("core: bad ReleasePages %d", cfg.ReleasePages)
	}
	m, err := bootMachine(cfg.Machine, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed ^ 0x57ee7)

	attacker, base, err := m.SpawnResident("attacker", cfg.AttackerCPU, uint64(cfg.AttackerPages)*vm.PageSize)
	if err != nil {
		return nil, err
	}

	// Release ReleasePages distinct random pages; the last munmap is the
	// hottest cache entry.
	res := &SteeringResult{}
	perm := rng.Perm(cfg.AttackerPages)[:cfg.ReleasePages]
	for _, pi := range perm {
		va := base + vm.VirtAddr(pi)*vm.PageSize
		pa, ok := attacker.Translate(va)
		if !ok {
			return nil, fmt.Errorf("core: attacker page %d not resident", pi)
		}
		res.Planted = append(res.Planted, mm.PFNOf(pa))
		if err := attacker.Munmap(va, vm.PageSize); err != nil {
			return nil, err
		}
	}
	if cfg.AttackerSleeps {
		attacker.Sleep()
	}

	if cfg.NoiseProcs > 0 && cfg.NoiseOps > 0 {
		noise, err := trace.SpawnNoise(m, cfg.VictimCPU, cfg.NoiseProcs, rng.Split())
		if err != nil {
			return nil, err
		}
		if err := noise.Churn(cfg.NoiseOps); err != nil {
			return nil, err
		}
	}

	victim, err := m.Spawn("victim", cfg.VictimCPU)
	if err != nil {
		return nil, err
	}
	vlen := uint64(cfg.VictimRequestPages) * vm.PageSize
	vbase, err := victim.Mmap(vlen)
	if err != nil {
		return nil, err
	}
	for p := 0; p < cfg.VictimRequestPages; p++ {
		va := vbase + vm.VirtAddr(p)*vm.PageSize
		if err := victim.Store(va, byte(p)); err != nil {
			return nil, err
		}
		pa, _ := victim.Translate(va)
		res.VictimPFNs = append(res.VictimPFNs, mm.PFNOf(pa))
	}

	hot := res.Planted[len(res.Planted)-1]
	res.FirstPageHit = res.VictimPFNs[0] == hot
	planted := make(map[mm.PFN]bool, len(res.Planted))
	for _, p := range res.Planted {
		planted[p] = true
	}
	for _, p := range res.VictimPFNs {
		if planted[p] {
			res.PlantedReused++
		}
	}
	return res, nil
}

// SelfReuseTrial measures Section V's first observation: a process that
// frees `freed` pages and then requests `request` pages gets its own frames
// back "with a probability of almost 1" for small requests.  Returns the
// fraction of freed frames that came back.
func SelfReuseTrial(seed uint64, mc kernel.Config, freed, request int) (float64, error) {
	m, err := bootMachine(mc, seed)
	if err != nil {
		return 0, err
	}
	// Map and touch a working set, free `freed` pages, then request anew.
	p, base, err := m.SpawnResident("self", 0, uint64(freed+16)*vm.PageSize)
	if err != nil {
		return 0, err
	}
	released := make(map[mm.PFN]bool, freed)
	for i := 0; i < freed; i++ {
		va := base + vm.VirtAddr(i)*vm.PageSize
		pa, _ := p.Translate(va)
		released[mm.PFNOf(pa)] = true
		if err := p.Munmap(va, vm.PageSize); err != nil {
			return 0, err
		}
	}
	nbase, err := p.Mmap(uint64(request) * vm.PageSize)
	if err != nil {
		return 0, err
	}
	got := 0
	for i := 0; i < request; i++ {
		va := nbase + vm.VirtAddr(i)*vm.PageSize
		if err := p.Store(va, 1); err != nil {
			return 0, err
		}
		pa, _ := p.Translate(va)
		if released[mm.PFNOf(pa)] {
			got++
		}
	}
	denom := freed
	if request < freed {
		denom = request
	}
	if denom == 0 {
		return 0, nil
	}
	return float64(got) / float64(denom), nil
}
