// Package rowhammer implements the attacker-side hammering toolkit of the
// paper's Section VI: locating aggressor rows around a victim row, the
// access-and-flush hammer loop, and memory templating — scanning the
// attacker's own allocation for disturbance-vulnerable bits ("after getting
// a bit-flip, she unmaps the corresponding page frame").
//
// Aggressor discovery needs to know which virtual addresses share a DRAM
// bank and which rows are physically adjacent.  A real attacker derives this
// from access-timing side channels (row-conflict latencies, as in the DRAMA
// work the paper builds on); the simulator stands that oracle in with the
// device's address mapper, which yields exactly the information the timing
// channel leaks and nothing more (bank equality and row indices — never
// cell contents or weak-cell locations).
package rowhammer

import (
	"fmt"
	"sort"

	"explframe/internal/dram"
	"explframe/internal/kernel"
	"explframe/internal/vm"
)

// Mode selects the hammering strategy.
type Mode int

// Hammering strategies: single-sided uses one adjacent aggressor row plus a
// far row in the same bank (to force row conflicts); double-sided uses both
// adjacent rows and is roughly twice as effective per access pair;
// many-sided is double-sided plus decoy rows that thrash TRR's aggressor
// tracker (the TRRespass bypass).
const (
	SingleSided Mode = iota
	DoubleSided
	ManySided
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case DoubleSided:
		return "double-sided"
	case ManySided:
		return "many-sided"
	default:
		return "single-sided"
	}
}

// Config tunes the engine.
type Config struct {
	// Mode is the hammering strategy.
	Mode Mode
	// PairHammerCount is the number of activation pairs per hammer run.
	// It must exceed the DRAM's weakest-cell threshold (within a refresh
	// window) for flips to appear.
	PairHammerCount int
	// MaxFlips stops templating after this many distinct flip sites have
	// been found; 0 means scan the entire region.  The ExplFrame attacker
	// only needs one vulnerable page, so early exit is the common case.
	MaxFlips int
	// Decoys is the number of tracker-thrashing rows many-sided hammering
	// adds around the double-sided pair.  It must exceed the TRR tracker
	// size for the bypass to work; ignored by other modes.
	Decoys int
}

// Aggressors identifies the attacker-mapped addresses used to hammer one
// victim row.
type Aggressors struct {
	VictimRow int           // DRAM row index under attack
	Bank      int           // bank index
	Upper     vm.VirtAddr   // address in row-1 (or the single aggressor)
	Lower     vm.VirtAddr   // address in row+1 (zero for single-sided)
	Decoys    []vm.VirtAddr // tracker-thrashing rows for many-sided mode
	Mode      Mode
}

// FlipSite records one templated vulnerable bit in the attacker's region.
type FlipSite struct {
	// VA is the attacker virtual address of the flipped byte.
	VA vm.VirtAddr
	// PageVA is the base of the page containing the flip — the page the
	// attacker will unmap to plant the frame.
	PageVA vm.VirtAddr
	// ByteInPage and Bit locate the flip within the page.
	ByteInPage int
	Bit        uint8
	// From is the value the bit held before flipping (1 for a 1->0 cell).
	From uint8
	// Agg are the aggressor addresses that produced the flip; re-hammering
	// them reproduces it.
	Agg Aggressors
}

// Stats counts engine activity.
type Stats struct {
	RowsScanned  uint64
	Pairsentries uint64 // hammer runs executed
	Activations  uint64 // hammer activations issued
	FlipsFound   uint64
}

// Engine drives hammering for one attacker process.
type Engine struct {
	cfg  Config
	proc *kernel.Process
	dev  *dram.Device
	st   Stats

	// Scratch buffers reused across hammer/template/probe calls, so the
	// steady-state attack loop allocates nothing: fillBuf holds the page
	// fill pattern, probeBuf the page read back for diffing, hammerVAs the
	// aggressor set handed to HammerLoop.
	fillBuf   []byte
	probeBuf  []byte
	hammerVAs []vm.VirtAddr
}

// New builds an engine for the process on the given machine.
func New(cfg Config, m *kernel.Machine, proc *kernel.Process) *Engine {
	return &Engine{cfg: cfg, proc: proc, dev: m.DRAM()}
}

// Stats returns a copy of the counters.
func (e *Engine) Stats() Stats { return e.st }

// rowOf returns the DRAM coordinates of the frame backing va, or ok=false
// when the page is not resident.
func (e *Engine) rowOf(va vm.VirtAddr) (dram.Addr, bool) {
	pa, ok := e.proc.Translate(va)
	if !ok {
		return dram.Addr{}, false
	}
	return e.dev.Mapper().ToDRAM(pa), true
}

// rowMap records where the attacker's resident pages sit in DRAM: the pages
// of each (bank, row) in address order — a row can hold several of them
// (8 KiB row = 2 pages with the default geometry) — and the occupied rows
// sorted by (bank, row), the fixed order templating scans them in (map order
// would make the discovered site, and hence the whole attack trace,
// nondeterministic).
type rowMap struct {
	pages map[[2]int][]vm.VirtAddr
	keys  [][2]int
}

// mapRows builds the row map of [base, base+length) in one walk, translating
// each page once.  Non-resident pages are skipped.
func (e *Engine) mapRows(base vm.VirtAddr, length uint64) *rowMap {
	rows := &rowMap{pages: make(map[[2]int][]vm.VirtAddr)}
	for off := uint64(0); off < length; off += vm.PageSize {
		va := base + vm.VirtAddr(off)
		a, ok := e.rowOf(va)
		if !ok {
			continue
		}
		key := [2]int{a.Bank, a.Row}
		if _, dup := rows.pages[key]; !dup {
			rows.keys = append(rows.keys, key)
		}
		rows.pages[key] = append(rows.pages[key], va)
	}
	sort.Slice(rows.keys, func(i, j int) bool {
		if rows.keys[i][0] != rows.keys[j][0] {
			return rows.keys[i][0] < rows.keys[j][0]
		}
		return rows.keys[i][1] < rows.keys[j][1]
	})
	return rows
}

// bank returns the occupied rows of the given bank in ascending row order.
func (rows *rowMap) bank(bank int) [][2]int {
	lo := sort.Search(len(rows.keys), func(i int) bool { return rows.keys[i][0] >= bank })
	hi := sort.Search(len(rows.keys), func(i int) bool { return rows.keys[i][0] > bank })
	return rows.keys[lo:hi]
}

// FindAggressors locates attacker-mapped pages adjacent to the row backing
// target, searching [base, base+length) of the attacker's own mapping.
// Double-sided mode requires both neighbours; single-sided needs only one
// plus any other same-bank row for conflicts.
func (e *Engine) FindAggressors(target vm.VirtAddr, base vm.VirtAddr, length uint64) (Aggressors, error) {
	ta, ok := e.rowOf(target)
	if !ok {
		return Aggressors{}, fmt.Errorf("rowhammer: target %#x not resident", uint64(target))
	}
	return e.aggressorsFor(e.mapRows(base, length), ta.Bank, ta.Row)
}

// aggressorsFor selects the aggressors that hammer (bank, row) in
// the engine's mode, using the first page of each aggressor row in rows.
// Row adjacency comes from the mapper, never from index arithmetic: which row
// is the electrical neighbour (and whether one exists at the bank edge) is a
// property of the machine's topology.
func (e *Engine) aggressorsFor(rows *rowMap, bank, row int) (Aggressors, error) {
	mapper := e.dev.Mapper()
	near1, near1OK := mapper.AdjacentRow(row, -1)
	near2, near2OK := mapper.AdjacentRow(row, +1)
	up, down := rows.pages[[2]int{bank, near1}], rows.pages[[2]int{bank, near2}]
	upOK, downOK := near1OK && len(up) > 0, near2OK && len(down) > 0
	switch e.cfg.Mode {
	case DoubleSided, ManySided:
		if !upOK || !downOK {
			return Aggressors{}, fmt.Errorf("rowhammer: no double-sided aggressors for row %d", row)
		}
		agg := Aggressors{VictimRow: row, Bank: bank, Upper: up[0], Lower: down[0], Mode: e.cfg.Mode}
		if e.cfg.Mode == DoubleSided {
			return agg, nil
		}
		// Decoys: rows far enough from the victim (distance > 3) to add no
		// disturbance, only TRR tracker pressure, by ascending row so a
		// given layout always yields the same decoy set.
		for _, key := range rows.bank(bank) {
			if len(agg.Decoys) >= e.cfg.Decoys {
				break
			}
			if dr := key[1] - row; dr < -3 || dr > 3 {
				agg.Decoys = append(agg.Decoys, rows.pages[key][0])
			}
		}
		if len(agg.Decoys) < e.cfg.Decoys {
			return Aggressors{}, fmt.Errorf("rowhammer: fewer than %d decoy rows available in bank %d",
				e.cfg.Decoys, bank)
		}
		return agg, nil
	default:
		// Single-sided: one adjacent row plus a far conflict row.
		var near vm.VirtAddr
		switch {
		case upOK:
			near = up[0]
		case downOK:
			near = down[0]
		default:
			return Aggressors{}, fmt.Errorf("rowhammer: no adjacent aggressor for row %d", row)
		}
		// The far row is the lowest-numbered same-bank row outside the
		// victim's neighbourhood.
		for _, key := range rows.bank(bank) {
			if key[1] == row || (near1OK && key[1] == near1) || (near2OK && key[1] == near2) {
				continue
			}
			return Aggressors{VictimRow: row, Bank: bank, Upper: near, Lower: rows.pages[key][0], Mode: SingleSided}, nil
		}
		return Aggressors{}, fmt.Errorf("rowhammer: no conflict row in bank %d", bank)
	}
}

// Hammer executes one hammer run on the aggressor set: n rounds of
// alternating activations (the access-flush-access loop of Kim et al.).
// Many-sided runs interleave the decoy rows into every round, keeping the
// TRR tracker saturated.
func (e *Engine) Hammer(agg Aggressors, n int) error {
	vas := append(e.hammerVAs[:0], agg.Upper, agg.Lower)
	vas = append(vas, agg.Decoys...)
	e.hammerVAs = vas
	if err := e.proc.HammerLoop(vas, n); err != nil {
		return err
	}
	e.st.Pairsentries++
	e.st.Activations += uint64(n * (2 + len(agg.Decoys)))
	return nil
}

// HammerDefault runs Hammer with the configured budget.
func (e *Engine) HammerDefault(agg Aggressors) error {
	return e.Hammer(agg, e.cfg.PairHammerCount)
}
