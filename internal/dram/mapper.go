package dram

import (
	"fmt"
	"sort"
)

// Mapper kind names accepted by NewNamedMapper (and machine specs).
const (
	// MapperLinear is the classic layout with bank bits XOR-ed against the
	// low row bits only.
	MapperLinear = "linear"
	// MapperXORFold is the Intel-style bank function: bank bits XOR-folded
	// from several row-bit windows.
	MapperXORFold = "xor-fold"
)

// mapperKinds maps kind names onto the bank function's XOR tap count: the
// number of bank-width row windows folded into the bank index.  "" aliases
// linear so zero-valued configs keep their historical meaning.
//
//   - linear (1 tap): bank bits XOR-ed against the low row bits only
//     ("bank permutation" or rank/bank hashing, as used by real memory
//     controllers and reverse engineered by the DRAMA work).  The XOR
//     spreads sequential rows across banks, which is what makes
//     same-bank/different-row aggressor pairs non-trivial to find — the
//     property the Rowhammer templating step has to work around.
//   - xor-fold (3 taps): the multi-window function DRAMA recovered from
//     Intel memory controllers (and DDR4 bank-group interleaving).
//     Sequential physical rows scatter across banks in a longer-period
//     pattern, so the set of addresses that share a bank — what an
//     attacker must reverse to hammer at all — is differently shaped while
//     row adjacency stays physical.
var mapperKinds = map[string]int{
	"":            1,
	MapperLinear:  1,
	MapperXORFold: 3,
}

// Mapper converts between flat physical addresses and DRAM coordinates.
// Real memory controllers implement wildly different layouts (DRAMA
// reverse-engineered XOR bank functions on Intel, linear layouts on
// low-end SoCs), and the attack surface of ExplFrame — which rows are
// adjacent, which addresses collide in a bank — is a function of exactly
// this mapping.  Every kind shares the layout (least to most significant)
//
//	[ col | channel | dimm | rank | bank | row ]
//
// and differs only in the bank permutation: bank = bankRaw XOR fold(row),
// where fold XORs the kind's tap count of bank-width row windows.  Any
// fold of the row alone keeps the mapping bijective (for a fixed row it is
// an XOR with a constant), so a new kind is one mapperKinds entry.
//
// The device layer relies on two contracts:
//
//   - Bijectivity: ToPhys(ToDRAM(pa)) == pa for every pa within the
//     geometry (TestMapperRoundTrip pins this for every registered kind).
//   - Column bits lowest: the low log2(RowBytes) bits of a physical address
//     are the column, so a contiguous physical range decomposes into
//     whole-row segments (Device.rearmRange and the bulk read/write paths
//     scan per row, not per byte).
//
// Addr.Row is always the physical row index inside a bank: rows r-1 and
// r+1 are the electrically adjacent neighbours that Rowhammer disturbs.
// Kinds differ in how physical addresses land on (bank, row), never in
// what "adjacent" means; AdjacentRow exposes that adjacency to the
// attacker-side toolkit so row selection needs no raw index arithmetic.
type Mapper struct {
	g        Geometry
	taps     int
	colBits  uint
	chBits   uint
	dimmBits uint
	rankBits uint
	bankBits uint
	rowBits  uint
}

// NewNamedMapper builds the mapper kind registered under name for the
// geometry; the empty name selects the linear mapper.
func NewNamedMapper(name string, g Geometry) (*Mapper, error) {
	taps, ok := mapperKinds[name]
	if !ok {
		return nil, fmt.Errorf("dram: unknown mapper %q (known: %v)", name, MapperNames())
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &Mapper{
		g:        g,
		taps:     taps,
		colBits:  log2(g.RowBytes),
		chBits:   log2(g.Channels),
		dimmBits: log2(g.DIMMs),
		rankBits: log2(g.Ranks),
		bankBits: log2(g.Banks),
		rowBits:  log2(g.Rows),
	}, nil
}

// MapperNames returns the registered mapper kind names, sorted.
func MapperNames() []string {
	out := make([]string, 0, len(mapperKinds)-1)
	for n := range mapperKinds {
		if n != "" {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Geometry returns the geometry the mapper was built for.
func (m *Mapper) Geometry() Geometry { return m.g }

// fold is the bank permutation: the XOR of the first taps bank-width
// windows of the row index.
func (m *Mapper) fold(row int) int {
	f := 0
	for i := 0; i < m.taps; i++ {
		f ^= row >> (uint(i) * m.bankBits)
	}
	return f & (m.g.Banks - 1)
}

// take pops the low bits of *pa as one coordinate field.
func take(pa *uint64, bits uint) int {
	v := int(*pa & (1<<bits - 1))
	*pa >>= bits
	return v
}

// ToDRAM maps a flat physical address to DRAM coordinates.  Addresses
// beyond the geometry wrap (callers stay in range; the wrap keeps the
// function total for property tests).
func (m *Mapper) ToDRAM(pa uint64) Addr {
	var a Addr
	a.Col = take(&pa, m.colBits)
	a.Channel = take(&pa, m.chBits)
	a.DIMM = take(&pa, m.dimmBits)
	a.Rank = take(&pa, m.rankBits)
	bankRaw := take(&pa, m.bankBits)
	a.Row = take(&pa, m.rowBits)
	a.Bank = bankRaw ^ m.fold(a.Row)
	return a
}

// ToPhys is the inverse of ToDRAM.
func (m *Mapper) ToPhys(a Addr) uint64 {
	pa := uint64(a.Row)
	pa = pa<<m.bankBits | uint64(a.Bank^m.fold(a.Row))
	pa = pa<<m.rankBits | uint64(a.Rank)
	pa = pa<<m.dimmBits | uint64(a.DIMM)
	pa = pa<<m.chBits | uint64(a.Channel)
	return pa<<m.colBits | uint64(a.Col)
}

// BankGroup returns a dense index identifying the (channel, dimm, rank,
// bank) tuple of the address; rows within one bank group share a row
// buffer and disturb each other.
func (m *Mapper) BankGroup(a Addr) int {
	idx := a.Channel
	idx = idx*m.g.DIMMs + a.DIMM
	idx = idx*m.g.Ranks + a.Rank
	idx = idx*m.g.Banks + a.Bank
	return idx
}

// AdjacentRow returns the row index at the given signed distance from row,
// and whether it exists within the bank (false past either edge).
func (m *Mapper) AdjacentRow(row, delta int) (int, bool) {
	r := row + delta
	if r < 0 || r >= m.g.Rows {
		return 0, false
	}
	return r, true
}
