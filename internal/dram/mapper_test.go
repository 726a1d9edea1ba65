package dram

import (
	"testing"

	"explframe/internal/stats"
)

// mapperTestGeometries covers the shapes the built-in machine profiles use
// plus a multi-channel/multi-rank part that exercises every bit field.
var mapperTestGeometries = []Geometry{
	DefaultGeometry(),
	{Channels: 1, DIMMs: 1, Ranks: 1, Banks: 4, Rows: 1024, RowBytes: 8192},
	{Channels: 1, DIMMs: 1, Ranks: 1, Banks: 16, Rows: 8192, RowBytes: 4096},
	{Channels: 2, DIMMs: 2, Ranks: 2, Banks: 8, Rows: 512, RowBytes: 2048},
}

// Every registered mapper must be a bijection on the address space:
// ToPhys(ToDRAM(pa)) == pa over random in-range addresses, with coordinates
// staying inside the geometry.  This is the mapper contract the device
// layer's data integrity stands on.
func TestMapperRoundTrip(t *testing.T) {
	for _, name := range MapperNames() {
		for _, g := range mapperTestGeometries {
			m, err := NewNamedMapper(name, g)
			if err != nil {
				t.Fatalf("NewNamedMapper(%q, %+v): %v", name, g, err)
			}
			rng := stats.NewRNG(42)
			total := g.TotalBytes()
			for i := 0; i < 20000; i++ {
				pa := rng.Uint64() % total
				a := m.ToDRAM(pa)
				if a.Channel >= g.Channels || a.DIMM >= g.DIMMs || a.Rank >= g.Ranks ||
					a.Bank >= g.Banks || a.Row >= g.Rows || a.Col >= g.RowBytes {
					t.Fatalf("%s/%+v: ToDRAM(%#x) = %+v out of geometry", name, g, pa, a)
				}
				if back := m.ToPhys(a); back != pa {
					t.Fatalf("%s/%+v: ToPhys(ToDRAM(%#x)) = %#x", name, g, pa, back)
				}
			}
		}
	}
}

// A sampled contiguous window must map to exactly as many distinct
// coordinates as it has addresses — bijectivity, not merely a right
// inverse.
func TestMapperBijectiveWindow(t *testing.T) {
	const window = 1 << 16
	for _, name := range MapperNames() {
		for _, g := range mapperTestGeometries {
			m, err := NewNamedMapper(name, g)
			if err != nil {
				t.Fatal(err)
			}
			base := g.TotalBytes()/2 - window/2
			seen := make(map[Addr]bool, window)
			for off := uint64(0); off < window; off++ {
				a := m.ToDRAM(base + off)
				if seen[a] {
					t.Fatalf("%s/%+v: coordinate %v hit twice within one window", name, g, a)
				}
				seen[a] = true
			}
		}
	}
}

// AdjacentRow must express physical neighbourhood: symmetric around the
// starting row, identity at distance zero and closed at the bank edges.
func TestMapperAdjacentRow(t *testing.T) {
	for _, name := range MapperNames() {
		m, err := NewNamedMapper(name, DefaultGeometry())
		if err != nil {
			t.Fatal(err)
		}
		rows := m.Geometry().Rows
		if r, ok := m.AdjacentRow(10, 0); !ok || r != 10 {
			t.Fatalf("%s: AdjacentRow(10, 0) = %d, %v", name, r, ok)
		}
		if r, ok := m.AdjacentRow(10, +1); !ok || r != 11 {
			t.Fatalf("%s: AdjacentRow(10, +1) = %d, %v", name, r, ok)
		}
		if r, ok := m.AdjacentRow(11, -1); !ok || r != 10 {
			t.Fatalf("%s: AdjacentRow(11, -1) = %d, %v", name, r, ok)
		}
		if _, ok := m.AdjacentRow(0, -1); ok {
			t.Fatalf("%s: AdjacentRow(0, -1) exists past the bank edge", name)
		}
		if _, ok := m.AdjacentRow(rows-1, +1); ok {
			t.Fatalf("%s: AdjacentRow(last, +1) exists past the bank edge", name)
		}
	}
}

// The XOR-folded mapper must actually differ from the linear one (same
// geometry, different bank for some addresses) while keeping column bits
// lowest — the contract the device's bulk paths rely on.
func TestXORFoldDiffersFromLinear(t *testing.T) {
	g := Geometry{Channels: 1, DIMMs: 1, Ranks: 1, Banks: 16, Rows: 8192, RowBytes: 4096}
	lin, err := NewNamedMapper(MapperLinear, g)
	if err != nil {
		t.Fatal(err)
	}
	xf, err := NewNamedMapper(MapperXORFold, g)
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	rng := stats.NewRNG(7)
	for i := 0; i < 10000; i++ {
		pa := rng.Uint64() % g.TotalBytes()
		la, xa := lin.ToDRAM(pa), xf.ToDRAM(pa)
		if la.Row != xa.Row || la.Col != xa.Col {
			t.Fatalf("row/col bits must agree between mappers: %#x -> %v vs %v", pa, la, xa)
		}
		if la.Bank != xa.Bank {
			differs = true
		}
		// Column bits lowest: advancing within one row only moves Col.
		if xa.Col+1 < g.RowBytes {
			next := xf.ToDRAM(pa + 1)
			if next.Row != xa.Row || next.Bank != xa.Bank || next.Col != xa.Col+1 {
				t.Fatalf("column bits not lowest: %#x -> %v, +1 -> %v", pa, xa, next)
			}
		}
	}
	if !differs {
		t.Fatal("xor-fold mapper never diverges from the linear bank permutation")
	}
}

// Unknown mapper kinds must be rejected with the known list.
func TestNewNamedMapperUnknown(t *testing.T) {
	if _, err := NewNamedMapper("strided", DefaultGeometry()); err == nil {
		t.Fatal("NewNamedMapper accepted an unknown kind")
	}
	g := DefaultGeometry()
	m, err := NewNamedMapper("", g)
	if err != nil {
		t.Fatalf("empty kind should alias linear, got %v", err)
	}
	linear, err := NewNamedMapper(MapperLinear, g)
	if err != nil {
		t.Fatal(err)
	}
	for pa := uint64(0); pa < g.TotalBytes(); pa += g.TotalBytes()/4096 + 4095 {
		if m.ToDRAM(pa) != linear.ToDRAM(pa) {
			t.Fatalf("empty kind maps %#x to %v, linear to %v", pa, m.ToDRAM(pa), linear.ToDRAM(pa))
		}
	}
}

// FuzzMapperRoundTrip lets the fuzzer hunt for round-trip violations in
// every registered mapper at once.
func FuzzMapperRoundTrip(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(4095))
	f.Add(uint64(1 << 27))
	g := DefaultGeometry()
	names := MapperNames()
	mappers := make([]*Mapper, 0, len(names))
	for _, name := range names {
		m, err := NewNamedMapper(name, g)
		if err != nil {
			f.Fatal(err)
		}
		mappers = append(mappers, m)
	}
	f.Fuzz(func(t *testing.T, pa uint64) {
		pa %= g.TotalBytes()
		for i, m := range mappers {
			if back := m.ToPhys(m.ToDRAM(pa)); back != pa {
				t.Fatalf("%s: ToPhys(ToDRAM(%#x)) = %#x", names[i], pa, back)
			}
		}
	})
}

// SameBankRow and BankGroup must agree for every mapper: the relocated
// address stays in the same bank group with the requested row and column.
func TestMapperSameBankRow(t *testing.T) {
	for _, name := range MapperNames() {
		m, err := NewNamedMapper(name, DefaultGeometry())
		if err != nil {
			t.Fatal(err)
		}
		a := m.ToDRAM(4096 * 777)
		pa := m.SameBankRow(a, a.Row+1, 5)
		b := m.ToDRAM(pa)
		if m.BankGroup(b) != m.BankGroup(a) {
			t.Fatalf("%s: SameBankRow left the bank group: %v vs %v", name, b, a)
		}
		if b.Row != a.Row+1 || b.Col != 5 {
			t.Fatalf("%s: SameBankRow landed at %v", name, b)
		}
	}
}

// TestMapperKnownAnswers pins the bank function of both mapper kinds on
// the default geometry and the ddr4 machine's geometry.  Bijectivity and
// "xor-fold differs from linear" both survive a wrong tap count; these
// fixed (pa -> bank, row, col) answers do not.  On these single-channel,
// single-rank geometries BankGroup equals Bank.
func TestMapperKnownAnswers(t *testing.T) {
	ddr4 := Geometry{Channels: 1, DIMMs: 1, Ranks: 1, Banks: 16, Rows: 8192, RowBytes: 4096}
	cases := []struct {
		kind           string
		g              Geometry
		pa             uint64
		bank, row, col int
	}{
		{MapperLinear, DefaultGeometry(), 0x0, 0, 0, 0},
		{MapperLinear, DefaultGeometry(), 0x2000, 1, 0, 0},
		{MapperLinear, DefaultGeometry(), 0xbadf00d, 2, 2989, 4109},
		{MapperLinear, DefaultGeometry(), 0xd2e3f41, 7, 3374, 8001},
		{MapperLinear, DefaultGeometry(), 0x5a5a5a5, 0, 1445, 1445},
		{MapperLinear, DefaultGeometry(), 0x3579bdf, 3, 855, 7135},
		{MapperLinear, DefaultGeometry(), 0xc0ffee0, 0, 3087, 7904},
		{MapperLinear, DefaultGeometry(), 0xffff000, 0, 4095, 4096},
		{MapperLinear, ddr4, 0x0, 0, 0, 0},
		{MapperLinear, ddr4, 0x2000, 2, 0, 0},
		{MapperLinear, ddr4, 0xbadf00d, 2, 2989, 13},
		{MapperLinear, ddr4, 0x1d2e3f41, 13, 7470, 3905},
		{MapperLinear, ddr4, 0x5a5a5a5, 15, 1445, 1445},
		{MapperLinear, ddr4, 0x13579bdf, 14, 4951, 3039},
		{MapperLinear, ddr4, 0xc0ffee0, 0, 3087, 3808},
		{MapperLinear, ddr4, 0x1ffff000, 0, 8191, 0},
		{MapperXORFold, DefaultGeometry(), 0x0, 0, 0, 0},
		{MapperXORFold, DefaultGeometry(), 0x2000, 1, 0, 0},
		{MapperXORFold, DefaultGeometry(), 0xbadf00d, 1, 2989, 4109},
		{MapperXORFold, DefaultGeometry(), 0xd2e3f41, 6, 3374, 8001},
		{MapperXORFold, DefaultGeometry(), 0x5a5a5a5, 2, 1445, 1445},
		{MapperXORFold, DefaultGeometry(), 0x3579bdf, 4, 855, 7135},
		{MapperXORFold, DefaultGeometry(), 0xc0ffee0, 1, 3087, 7904},
		{MapperXORFold, DefaultGeometry(), 0xffff000, 0, 4095, 4096},
		{MapperXORFold, ddr4, 0x0, 0, 0, 0},
		{MapperXORFold, ddr4, 0x2000, 2, 0, 0},
		{MapperXORFold, ddr4, 0xbadf00d, 3, 2989, 13},
		{MapperXORFold, ddr4, 0x1d2e3f41, 2, 7470, 3905},
		{MapperXORFold, ddr4, 0x5a5a5a5, 0, 1445, 1445},
		{MapperXORFold, ddr4, 0x13579bdf, 8, 4951, 3039},
		{MapperXORFold, ddr4, 0xc0ffee0, 12, 3087, 3808},
		{MapperXORFold, ddr4, 0x1ffff000, 0, 8191, 0},
	}
	for _, c := range cases {
		m, err := NewNamedMapper(c.kind, c.g)
		if err != nil {
			t.Fatal(err)
		}
		want := Addr{Bank: c.bank, Row: c.row, Col: c.col}
		got := m.ToDRAM(c.pa)
		if got != want {
			t.Errorf("%s/%d banks: ToDRAM(%#x) = %v, want %v", c.kind, c.g.Banks, c.pa, got, want)
		}
		if bg := m.BankGroup(got); bg != c.bank {
			t.Errorf("%s/%d banks: BankGroup(ToDRAM(%#x)) = %d, want %d", c.kind, c.g.Banks, c.pa, bg, c.bank)
		}
	}
}
