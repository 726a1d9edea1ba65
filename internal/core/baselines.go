package core

import (
	"fmt"

	"explframe/internal/rowhammer"
	"explframe/internal/trace"
	"explframe/internal/vm"
)

// BaselineKind selects a prior-work attack model for experiment E8.
type BaselineKind int

// The two baselines the paper positions ExplFrame against (Section VI):
// unprivileged spraying over a large address space, and pagemap-assisted
// targeting that needs CAP_SYS_ADMIN.
const (
	// RandomSpray: the attacker fills a large buffer and hammers blindly;
	// the victim's data is hit only if it happens to sit in a row adjacent
	// to attacker memory with a usable weak cell ("the bit flips, if any,
	// will be uncontrolled").
	RandomSpray BaselineKind = iota
	// PagemapTargeted: the attacker reads the victim frame's PFN from
	// pagemap (requires CAP_SYS_ADMIN since Linux 4.0) and double-sided
	// hammers exactly its neighbour rows.
	PagemapTargeted
)

// String names the baseline.
func (k BaselineKind) String() string {
	if k == PagemapTargeted {
		return "pagemap-targeted"
	}
	return "random-spray"
}

// BaselineResult reports one baseline trial.
type BaselineResult struct {
	// TableCorrupted is the success criterion: the fault reached the
	// victim's S-box table.
	TableCorrupted bool
	CorruptIndex   int
	// NeighboursOwned reports whether the attacker mapped any page in a row
	// adjacent to the victim row (necessary for disturbance to reach it).
	NeighboursOwned bool
	// RequiredPrivilege notes what the model assumed.
	RequiredPrivilege string
}

// RunBaselineTrial executes one trial of the selected baseline on the
// attack's configuration, so a baseline is the paired comparison of the
// attack with the same seed, machine, hammer and buffer.  The victim
// allocates first (no steering — that is the point of the comparison),
// then the attacker hammers.  Both processes run on cfg.AttackerCPU:
// without steering the victim's CPU does not matter, so VictimCPU, noise
// and sleeping are ignored.
//
// For tractability the spray baseline hammers only the attacker rows within
// disturbance range of the victim row; hammering the rest of the buffer
// cannot affect the outcome and is omitted.  The statistics are identical
// to the full sweep.
func RunBaselineTrial(cfg Config, kind BaselineKind) (*BaselineResult, error) {
	m, err := bootMachine(cfg.Machine, cfg.Seed)
	if err != nil {
		return nil, err
	}
	res := &BaselineResult{CorruptIndex: -1, RequiredPrivilege: "none"}
	if kind == PagemapTargeted {
		res.RequiredPrivilege = "CAP_SYS_ADMIN"
	}

	// Victim first: its table page lands wherever the allocator puts it.
	victim, err := trace.SpawnVictim(m, cfg.AttackerCPU, cfg.VictimCipher, cfg.VictimKey,
		cfg.VictimRequestPages, cfg.VictimTableOffset)
	if err != nil {
		return nil, err
	}
	vpa, ok := victim.Proc.Translate(victim.TablePage())
	if !ok {
		return nil, fmt.Errorf("core: victim table not resident")
	}

	// Attacker sprays its buffer.
	attacker, base, err := m.SpawnResident("attacker", cfg.AttackerCPU, cfg.AttackerMemory)
	if err != nil {
		return nil, err
	}
	engine := rowhammer.New(cfg.Hammer, m, attacker)

	// Locate attacker pages adjacent to the victim row.  The pagemap
	// attacker derives the victim row from the PFN it read; the spray
	// attacker hits those rows only as part of its blind sweep — either
	// way, only those hammer runs can corrupt the table.
	mapper := m.DRAM().Mapper()
	va := mapper.ToDRAM(vpa)

	upperRow, upperOK := mapper.AdjacentRow(va.Row, -1)
	lowerRow, lowerOK := mapper.AdjacentRow(va.Row, +1)
	var upper, lower vm.VirtAddr
	for off := uint64(0); off < cfg.AttackerMemory; off += vm.PageSize {
		pva := base + vm.VirtAddr(off)
		pa, ok := attacker.Translate(pva)
		if !ok {
			continue
		}
		a := mapper.ToDRAM(pa)
		if a.Bank != va.Bank {
			continue
		}
		switch {
		case upperOK && a.Row == upperRow:
			upper = pva
		case lowerOK && a.Row == lowerRow:
			lower = pva
		}
	}
	if upper == 0 && lower == 0 {
		return res, nil // attacker owns no adjacent row; nothing can happen
	}
	res.NeighboursOwned = true

	switch {
	case upper != 0 && lower != 0:
		agg := rowhammer.Aggressors{VictimRow: va.Row, Bank: va.Bank, Upper: upper, Lower: lower, Mode: rowhammer.DoubleSided}
		if err := engine.HammerDefault(agg); err != nil {
			return nil, err
		}
	default:
		// Single-sided with whichever neighbour is owned plus a far row.
		near := upper
		if near == 0 {
			near = lower
		}
		single := rowhammer.New(rowhammer.Config{Mode: rowhammer.SingleSided, PairHammerCount: cfg.Hammer.PairHammerCount}, m, attacker)
		agg, err := single.FindAggressors(near, base, cfg.AttackerMemory)
		if err != nil {
			return res, nil
		}
		// Re-target: hammer the near row (neighbour of the victim) and the
		// far conflict row.
		agg.Upper = near
		if err := single.Hammer(agg, cfg.Hammer.PairHammerCount); err != nil {
			return nil, err
		}
	}

	indices, _, err := victim.TableCorruptions()
	if err != nil {
		return nil, err
	}
	res.TableCorrupted = len(indices) > 0
	if res.TableCorrupted {
		res.CorruptIndex = indices[0]
	}
	return res, nil
}
