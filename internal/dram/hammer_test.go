package dram_test

import (
	"bytes"
	"reflect"
	"testing"

	"explframe/internal/dram"
	"explframe/internal/machine"
	"explframe/internal/stats"
)

// The differential tests below pin Device.HammerLoop to its definition: the
// reference loop of ActivateRow per address per round.  Both devices start
// from the same seed and receive the same operations; after every hammer
// call their counters and flip logs must agree, and at the end so must the
// backing bytes, every row's disturbance bits, the weak cells' state and the
// next RNG draw.

// newDevice builds a device with flip logging on.
func newDevice(t testing.TB, mapper string, g dram.Geometry, fm dram.FaultModel, seed uint64) *dram.Device {
	t.Helper()
	m, err := dram.NewNamedMapper(mapper, g)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dram.NewDeviceWithMapper(m, fm, seed)
	if err != nil {
		t.Fatal(err)
	}
	d.EnableFlipLog()
	return d
}

// devicePair builds two identical devices with flip logging on.
func devicePair(t testing.TB, mapper string, g dram.Geometry, fm dram.FaultModel, seed uint64) (ref, fast *dram.Device) {
	t.Helper()
	return newDevice(t, mapper, g, fm, seed), newDevice(t, mapper, g, fm, seed)
}

// aggressorSet is one hammer pattern around a victim row.
type aggressorSet struct {
	name string
	pas  []uint64
}

// aggressorSets returns double-sided, single-sided, many-sided (decoys in
// the victim's bank and in another bank, a repeated row) and all-row-hit
// patterns around the victim address.  The victim row must leave room for
// rows victim-8 .. victim+16.
func aggressorSets(m *dram.Mapper, victim dram.Addr) []aggressorSet {
	g := m.Geometry()
	row := func(dr, col int) uint64 { return m.SameBankRow(victim, victim.Row+dr, col) }
	other := victim
	other.Bank = (victim.Bank + 1) % g.Banks
	return []aggressorSet{
		{"double-sided", []uint64{row(-1, 0), row(+1, 0)}},
		{"single-sided", []uint64{row(-1, 0), row(+16, 0)}},
		{"many-sided", []uint64{row(-1, 0), row(+1, 0), row(+1, 64), row(+9, 0), m.ToPhys(other), row(-7, 0), row(+13, 0)}},
		{"row-hits", []uint64{row(-1, 0), row(-1, 8)}},
	}
}

// prepareVictim writes a mixed bit pattern over the victim's neighbourhood
// so both true and anti cells flip observably.
func prepareVictim(m *dram.Mapper, victim dram.Addr, devs ...*dram.Device) {
	pattern := bytes.Repeat([]byte{0x5a}, m.Geometry().RowBytes)
	for dr := -3; dr <= 3; dr++ {
		pa := m.SameBankRow(victim, victim.Row+dr, 0)
		for _, d := range devs {
			d.WriteRangeNoActivate(pa, pattern)
		}
	}
}

// hammerBoth issues one hammer call of rounds rounds on both devices — the
// loop under test on fast, the per-activation reference on ref — and
// compares the observable results.
func hammerBoth(t testing.TB, ref, fast *dram.Device, pas []uint64, rounds int) {
	t.Helper()
	addrs := make([]dram.Addr, len(pas))
	for i, pa := range pas {
		addrs[i] = fast.Mapper().ToDRAM(pa)
	}
	fast.HammerLoop(addrs, rounds)
	for r := 0; r < rounds; r++ {
		for _, pa := range pas {
			ref.ActivateRow(pa)
		}
	}
	if got, want := fast.Stats(), ref.Stats(); got != want {
		t.Fatalf("after %d rounds: stats %+v, want %+v", rounds, got, want)
	}
	if got, want := fast.DrainFlipLog(), ref.DrainFlipLog(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after %d rounds: flip log %v, want %v", rounds, got, want)
	}
}

// writeByte stores v at pa the way a CPU store reaches DRAM: open the row,
// then write the byte (re-arming its cells).
func writeByte(d *dram.Device, pa uint64, v byte) {
	d.ActivateRow(pa)
	d.WriteRangeNoActivate(pa, []byte{v})
}

// compareDevices checks the state the public counters do not cover.
func compareDevices(t testing.TB, ref, fast *dram.Device) {
	t.Helper()
	got, want := fast.SnapshotState(), ref.SnapshotState()
	for i := range want.Disturb {
		if got.Disturb[i] != want.Disturb[i] {
			t.Fatalf("row state %d: disturbance bits %#x, want %#x", i, got.Disturb[i], want.Disturb[i])
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("device state differs (min thresholds, open rows, refresh counter or backing bytes)")
	}
	if g, w := fast.WeakCellsInRange(0, fast.Size()), ref.WeakCellsInRange(0, ref.Size()); !reflect.DeepEqual(g, w) {
		t.Fatalf("weak-cell state differs")
	}
	if g, w := fast.NextDraw(), ref.NextDraw(); g != w {
		t.Fatalf("next RNG draw %#x, want %#x", g, w)
	}
}

// victimCell picks the first weak cell with room for every aggressor set.
func victimCell(t testing.TB, d *dram.Device) dram.Addr {
	t.Helper()
	rows := d.Geometry().Rows
	for _, wc := range d.WeakCellsInRange(0, d.Size()) {
		if wc.Row >= 8 && wc.Row < rows-16 {
			return d.Mapper().ToDRAM(d.PhysOfWeakCell(wc))
		}
	}
	t.Fatal("no weak cell away from the bank edges")
	return dram.Addr{}
}

// TestHammerLoopMatchesReference runs every aggressor pattern on every
// registered machine's geometry, mapper and fault model for more than two
// refresh windows, split into hammer calls of uneven length with a re-arming
// victim write between them.
func TestHammerLoopMatchesReference(t *testing.T) {
	for _, name := range machine.Names() {
		ms := machine.MustGet(name)
		fm := ms.FaultModel
		if testing.Short() {
			// The race-detector run keeps the windows short; the full run
			// uses the machine's own interval.
			fm.RefreshInterval /= 16
		}
		probe := newDevice(t, ms.MapperName(), ms.Geometry, fm, 1)
		victim := victimCell(t, probe)
		for _, set := range aggressorSets(probe.Mapper(), victim) {
			t.Run(name+"/"+set.name, func(t *testing.T) {
				t.Parallel()
				ref, fast := devicePair(t, ms.MapperName(), ms.Geometry, fm, 1)
				prepareVictim(ref.Mapper(), victim, ref, fast)
				victimPA := ref.Mapper().ToPhys(victim)
				total := int(3 * fm.RefreshInterval / uint64(len(set.pas)))
				for _, rounds := range []int{1, 2, 3, total / 7, total / 3, total - total/7 - total/3 - 6} {
					hammerBoth(t, ref, fast, set.pas, rounds)
					writeByte(ref, victimPA, 0x5a)
					writeByte(fast, victimPA, 0x5a)
				}
				if acts := ref.Stats().Activations; set.name != "row-hits" && acts < 2*fm.RefreshInterval {
					t.Fatalf("only %d activations; the run must span two refresh windows of %d", acts, fm.RefreshInterval)
				}
				compareDevices(t, ref, fast)
			})
		}
	}
}

// FuzzHammerLoopEquivalence explores fault models around every registered
// machine's — short refresh windows, low thresholds, other neighbour
// weights — on a reduced geometry with a planted victim cell, and random
// splits of the rounds into hammer calls.
func FuzzHammerLoopEquivalence(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint8(0), uint16(5000), uint16(3000), uint16(400), uint8(0))
	f.Add(uint8(1), uint64(2), uint8(1), uint16(9000), uint16(700), uint16(90), uint8(20))
	f.Add(uint8(2), uint64(3), uint8(2), uint16(20000), uint16(4096), uint16(1000), uint8(0))
	f.Add(uint8(3), uint64(4), uint8(3), uint16(300), uint16(64), uint16(8), uint8(33))
	f.Add(uint8(4), uint64(5), uint8(2), uint16(6000), uint16(1500), uint16(250), uint8(0))
	names := machine.Names()
	f.Fuzz(func(t *testing.T, mi uint8, seed uint64, setIdx uint8, rounds, refresh, threshold uint16, weight uint8) {
		ms := machine.MustGet(names[int(mi)%len(names)])
		fm := ms.FaultModel
		fm.RefreshInterval = 32 + uint64(refresh)%8192
		fm.BaseThreshold = 4 + int(threshold)%1024
		if weight > 0 {
			fm.NeighbourWeight = float64(weight%101) / 100
		}
		g := ms.Geometry
		g.Rows = 256
		ref, fast := devicePair(t, ms.MapperName(), g, fm, seed)
		rng := stats.NewRNG(seed)
		victim := dram.Addr{Bank: rng.Intn(g.Banks), Row: 8 + rng.Intn(g.Rows-24), Col: rng.Intn(g.RowBytes)}
		m := ref.Mapper()
		cell := dram.WeakCell{
			Bank: victim.Bank, Row: victim.Row, ByteInRow: victim.Col,
			Bit: uint8(rng.Intn(8)), Threshold: fm.BaseThreshold + rng.Intn(fm.BaseThreshold+1), FlipTo: uint8(rng.Intn(2)),
		}
		ref.PlantWeakCell(cell)
		fast.PlantWeakCell(cell)
		prepareVictim(m, victim, ref, fast)
		sets := aggressorSets(m, victim)
		set := sets[int(setIdx)%len(sets)]
		for left := 1 + int(rounds); left > 0; {
			n := 1 + rng.Intn(left)
			hammerBoth(t, ref, fast, set.pas, n)
			left -= n
			if rng.Intn(2) == 0 {
				pa := m.ToPhys(victim)
				writeByte(ref, pa, 0x5a)
				writeByte(fast, pa, 0x5a)
			}
		}
		compareDevices(t, ref, fast)
	})
}
