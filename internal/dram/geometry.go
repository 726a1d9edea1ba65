// Package dram models a DRAM subsystem at the granularity the ExplFrame
// attack needs: physical addresses map onto bank/row/column coordinates,
// banks have open-row (row buffer) semantics, and cells carry a
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

// Geometry describes the topology of one single-rank module: the attack
// needs only the bank and row under a page, so channels, DIMMs and ranks
// are not modelled.  The defaults describe 8 banks — a small but
// structurally faithful DDR3 part.
type Geometry struct {
	Banks    int `json:"banks"`     // banks in the module
	Rows     int `json:"rows"`      // rows per bank
	RowBytes int `json:"row_bytes"` // bytes per row (columns * device width)
}

// DefaultGeometry returns a 256 MiB single-rank part: 8 banks x 4096 rows x
// 8 KiB rows.  Small enough for fast simulation, large enough that the buddy
// allocator's zone structure is non-trivial.
func DefaultGeometry() Geometry {
	return Geometry{Banks: 8, Rows: 4096, RowBytes: 8192}
}

// TotalBytes returns the capacity of the described memory system.
func (g Geometry) TotalBytes() uint64 {
	return uint64(g.Banks) * uint64(g.Rows) * uint64(g.RowBytes)
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
	case g.Banks <= 0, g.Rows <= 0, g.RowBytes <= 0:
		return fmt.Errorf("dram: geometry dimensions must be positive: %+v", g)
	}
	// Summing the dimensions' logarithms sizes the module without the
	// overflow TotalBytes' product can hit.
	var logBytes uint
	for _, v := range []int{g.Banks, g.Rows, g.RowBytes} {
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
	Bank int
	Row  int
	Col  int // byte offset within the row
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
