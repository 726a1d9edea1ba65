// Package dram models a DRAM subsystem at the granularity the ExplFrame
// attack needs: physical addresses map onto channel/DIMM/rank/bank/row/column
// coordinates, banks have open-row (row buffer) semantics, and cells carry a
// disturbance model so that repeated activation of a row — Rowhammer — can
// flip bits in physically adjacent rows.
//
// The paper's testbed is commodity DDR3; this package substitutes a
// parametric simulator whose statistics follow the shapes reported by
// Kim et al. (ISCA 2014): no flips below a per-cell activation threshold
// within one refresh window, a weak-cell population with configurable
// density, and strongly reproducible per-cell behaviour.
package dram

import "fmt"

// Geometry describes the topology of the memory system.  The defaults model
// a single-channel, single-DIMM, single-rank module with 8 banks — a small
// but structurally faithful DDR3 part.
type Geometry struct {
	Channels int `json:"channels"`  // memory channels on the controller
	DIMMs    int `json:"dimms"`     // DIMMs per channel
	Ranks    int `json:"ranks"`     // ranks per DIMM
	Banks    int `json:"banks"`     // banks per rank
	Rows     int `json:"rows"`      // rows per bank
	RowBytes int `json:"row_bytes"` // bytes per row (columns * device width)
}

// DefaultGeometry returns a 256 MiB single-rank part: 8 banks x 4096 rows x
// 8 KiB rows.  Small enough for fast simulation, large enough that the buddy
// allocator's zone structure is non-trivial.
func DefaultGeometry() Geometry {
	return Geometry{
		Channels: 1,
		DIMMs:    1,
		Ranks:    1,
		Banks:    8,
		Rows:     4096,
		RowBytes: 8192,
	}
}

// TotalBytes returns the capacity of the described memory system.
func (g Geometry) TotalBytes() uint64 {
	return uint64(g.Channels) * uint64(g.DIMMs) * uint64(g.Ranks) *
		uint64(g.Banks) * uint64(g.Rows) * uint64(g.RowBytes)
}

// NumBankGroups returns the number of globally distinct banks
// (channel x DIMM x rank x bank).
func (g Geometry) NumBankGroups() int {
	return g.Channels * g.DIMMs * g.Ranks * g.Banks
}

// maxModuleBytes caps a module's capacity at 16 GiB, twice the largest
// module the repository simulates.  A device and the kernel above it
// allocate bookkeeping in proportion to capacity up front, so a larger
// geometry would exhaust the host's memory instead of failing validation.
const maxModuleBytes = 16 << 30

// Validate reports whether the geometry is usable: every dimension positive
// and a power of two (required by the address interleaving), and the
// module no larger than 16 GiB.
func (g Geometry) Validate() error {
	switch {
	case g.Channels <= 0, g.DIMMs <= 0, g.Ranks <= 0, g.Banks <= 0, g.Rows <= 0, g.RowBytes <= 0:
		return fmt.Errorf("dram: geometry dimensions must be positive: %+v", g)
	}
	// Summing the dimensions' logarithms sizes the module without the
	// overflow TotalBytes' product can hit.
	var logBytes uint
	for _, v := range []int{g.Channels, g.DIMMs, g.Ranks, g.Banks, g.Rows, g.RowBytes} {
		if v&(v-1) != 0 {
			return fmt.Errorf("dram: geometry dimensions must be powers of two, got %d", v)
		}
		logBytes += log2(v)
	}
	if logBytes > log2(maxModuleBytes) {
		return fmt.Errorf("dram: geometry of 2^%d bytes exceeds the %d GiB module cap", logBytes, maxModuleBytes>>30)
	}
	return nil
}

// Addr identifies one byte in DRAM by its topological coordinates.
type Addr struct {
	Channel int
	DIMM    int
	Rank    int
	Bank    int
	Row     int
	Col     int // byte offset within the row
}

// String renders the address in a compact ch/dimm/rank/bank/row/col form.
func (a Addr) String() string {
	return fmt.Sprintf("ch%d.d%d.r%d.b%d.row%d.col%d", a.Channel, a.DIMM, a.Rank, a.Bank, a.Row, a.Col)
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
