package dram

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultGeometryValid(t *testing.T) {
	g := DefaultGeometry()
	if err := g.Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
	if got, want := g.TotalBytes(), uint64(256<<20); got != want {
		t.Fatalf("TotalBytes = %d, want %d", got, want)
	}
}

func TestGeometryValidateRejectsNonPowerOfTwo(t *testing.T) {
	g := DefaultGeometry()
	g.Rows = 3000
	if err := g.Validate(); err == nil {
		t.Fatal("expected error for non-power-of-two rows")
	}
	g = DefaultGeometry()
	g.Banks = 0
	if err := g.Validate(); err == nil {
		t.Fatal("expected error for zero banks")
	}
	g = DefaultGeometry()
	g.RowBytes = -8
	if err := g.Validate(); err == nil {
		t.Fatal("expected error for negative row bytes")
	}
}

// The module is capped at 16 GiB, sized without the overflow TotalBytes
// can hit: 2^64 bytes wraps the product to zero.
func TestGeometryValidateCapsModuleSize(t *testing.T) {
	g := Geometry{Banks: 8, Rows: 1 << 18, RowBytes: 8192}
	if err := g.Validate(); err != nil {
		t.Fatalf("16 GiB module rejected: %v", err)
	}
	for _, g := range []Geometry{
		{Banks: 8, Rows: 1 << 19, RowBytes: 8192},
		{Banks: 8, Rows: 1 << 33, RowBytes: 8192},
		{Banks: 1 << 16, Rows: 1 << 32, RowBytes: 1 << 16},
	} {
		err := g.Validate()
		if err == nil || !strings.Contains(err.Error(), "module cap") {
			t.Fatalf("%+v (TotalBytes %d): want the module cap error, got %v", g, g.TotalBytes(), err)
		}
	}
}

// Round-trip and in-range properties for every registered mapper kind live
// in mapper_test.go (TestMapperRoundTrip); the quick-check below keeps the
// historical linear-mapper coordinate coverage.
func TestMapperCoordinatesInRange(t *testing.T) {
	g := DefaultGeometry()
	m, err := NewNamedMapper(MapperLinear, g)
	if err != nil {
		t.Fatal(err)
	}
	f := func(pa uint64) bool {
		pa %= g.TotalBytes()
		a := m.ToDRAM(pa)
		return a.Bank >= 0 && a.Bank < g.Banks &&
			a.Row >= 0 && a.Row < g.Rows &&
			a.Col >= 0 && a.Col < g.RowBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Adjacent physical bytes within a row must stay in the same row: the column
// bits are the lowest bits of the address.
func TestMapperColumnLocality(t *testing.T) {
	g := DefaultGeometry()
	m, _ := NewNamedMapper(MapperLinear, g)
	base := uint64(12345) * uint64(g.RowBytes)
	a0 := m.ToDRAM(base)
	for off := 1; off < g.RowBytes; off *= 2 {
		a := m.ToDRAM(base + uint64(off))
		if a.Row != a0.Row || a.Bank != a0.Bank {
			t.Fatalf("offset %d left the row: %v vs %v", off, a, a0)
		}
	}
}

// The bank permutation must spread consecutive rows across banks: walking the
// row index at a fixed raw address region should not keep the same bank.
func TestMapperBankPermutationSpreads(t *testing.T) {
	g := DefaultGeometry()
	m, _ := NewNamedMapper(MapperLinear, g)
	seen := map[int]bool{}
	for row := 0; row < g.Banks; row++ {
		pa := m.ToPhys(Addr{Row: row, Bank: 0})
		back := m.ToDRAM(pa)
		if back.Row != row {
			t.Fatalf("row mismatch: got %d want %d", back.Row, row)
		}
		seen[back.Bank] = true
	}
	if len(seen) != 1 {
		// ToPhys(bank=0) then ToDRAM must return bank 0 — i.e. permutation
		// is consistent, not identity on raw bits.
		t.Fatalf("ToPhys/ToDRAM disagree on bank: %v", seen)
	}
	// Raw sequential row-stride addresses should hit multiple banks.
	rowStride := uint64(g.RowBytes) * uint64(g.Banks) // row increments above bank bits
	_ = rowStride
	banks := map[int]bool{}
	for i := 0; i < g.Banks; i++ {
		pa := uint64(i) * uint64(g.RowBytes) * uint64(g.Banks) * 1 // vary row bits
		banks[m.ToDRAM(pa).Bank] = true
	}
	if len(banks) < 2 {
		t.Fatalf("bank permutation does not spread rows across banks: %v", banks)
	}
}

func TestSameBankRow(t *testing.T) {
	g := DefaultGeometry()
	m, _ := NewNamedMapper(MapperLinear, g)
	a := m.ToDRAM(4096 * 777)
	pa := m.SameBankRow(a, a.Row+1, 0)
	b := m.ToDRAM(pa)
	if b.Bank != a.Bank {
		t.Fatalf("SameBankRow changed bank: %v vs %v", b, a)
	}
	if b.Row != a.Row+1 {
		t.Fatalf("SameBankRow row = %d, want %d", b.Row, a.Row+1)
	}
	if b.Col != 0 {
		t.Fatalf("SameBankRow col = %d, want 0", b.Col)
	}
}

func TestAddrString(t *testing.T) {
	a := Addr{Bank: 3, Row: 42, Col: 17}
	if got := a.String(); got != "b3.row42.col17" {
		t.Fatalf("Addr.String() = %q", got)
	}
}
