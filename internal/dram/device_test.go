package dram

import (
	"reflect"
	"testing"
)

func testDevice(t *testing.T, model FaultModel, seed uint64) *Device {
	t.Helper()
	g := Geometry{Banks: 8, Rows: 512, RowBytes: 4096}
	d, err := NewDevice(g, model, seed)
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	return d
}

func TestDeviceReadWriteRoundTrip(t *testing.T) {
	d := testDevice(t, DefaultFaultModel(), 1)
	for pa := uint64(0); pa < 4096; pa += 97 {
		writeByte(d, pa, byte(pa%251))
	}
	for pa := uint64(0); pa < 4096; pa += 97 {
		if got := readByte(d, pa); got != byte(pa%251) {
			t.Fatalf("Read(%d) = %d, want %d", pa, got, byte(pa%251))
		}
	}
}

func TestDeviceRowBufferHits(t *testing.T) {
	d := testDevice(t, DefaultFaultModel(), 1)
	readByte(d, 0)
	before, state := d.Stats(), d.SnapshotState()
	// Same row: col bits are low, so nearby addresses stay in the row.
	readByte(d, 1)
	readByte(d, 2)
	after := d.Stats()
	if after.Activations != before.Activations {
		t.Fatalf("same-row accesses caused activations: %d -> %d", before.Activations, after.Activations)
	}
	// Both were row-buffer hits: no neighbour disturbed, nothing counted
	// towards the refresh window, the same row left open.
	if !reflect.DeepEqual(d.SnapshotState(), state) {
		t.Fatal("row-buffer hits changed the device state")
	}
}

func TestDeviceRowConflictActivates(t *testing.T) {
	d := testDevice(t, DefaultFaultModel(), 1)
	m := d.Mapper()
	a := m.ToDRAM(0)
	paSameBankNextRow := m.SameBankRow(a, a.Row+1, 0)
	readByte(d, 0)
	before := d.Stats().Activations
	readByte(d, paSameBankNextRow)
	readByte(d, 0)
	if got := d.Stats().Activations - before; got != 2 {
		t.Fatalf("row conflicts should activate, got %d activations, want 2", got)
	}
}

// Hammering two rows adjacent to a victim row must flip a planted weak cell
// once the activation count passes its threshold, and must not flip before.
func TestDeviceHammerFlipsPlantedCell(t *testing.T) {
	model := DefaultFaultModel()
	model.WeakCellDensity = 0 // plant manually for a deterministic test
	model.FlipReliability = 1
	d := testDevice(t, model, 7)

	victim := Addr{Bank: 2, Row: 100, Col: 10}
	d.PlantWeakCell(WeakCell{Bank: victim.Bank, Row: 100, ByteInRow: 10, Bit: 3, Threshold: 1000, FlipTo: 0})

	victimPA := d.mapper.ToPhys(victim)
	writeByte(d, victimPA, 0xFF) // bit 3 is 1, the failure polarity flips it to 0

	// Double-sided: alternate rows 99 and 101 in the same bank.
	up := d.mapper.SameBankRow(victim, 99, 0)
	down := d.mapper.SameBankRow(victim, 101, 0)

	for i := 0; i < 499; i++ { // 499 activations per aggressor < threshold
		d.ActivateRow(up)
		d.ActivateRow(down)
	}
	if got := peekByte(d, victimPA); got != 0xFF {
		t.Fatalf("cell flipped below threshold: %#x", got)
	}
	for i := 0; i < 10; i++ {
		d.ActivateRow(up)
		d.ActivateRow(down)
	}
	if got := peekByte(d, victimPA); got != 0xFF&^(1<<3) {
		t.Fatalf("cell did not flip above threshold: %#x", got)
	}
	if d.Stats().BitFlips != 1 {
		t.Fatalf("BitFlips = %d, want 1", d.Stats().BitFlips)
	}
}

// A flip must only manifest when the cell holds its vulnerable polarity.
func TestDeviceFlipPolarity(t *testing.T) {
	model := DefaultFaultModel()
	model.WeakCellDensity = 0
	model.FlipReliability = 1
	d := testDevice(t, model, 7)

	victim := Addr{Bank: 1, Row: 50, Col: 5}
	d.PlantWeakCell(WeakCell{Bank: victim.Bank, Row: 50, ByteInRow: 5, Bit: 0, Threshold: 100, FlipTo: 0})

	victimPA := d.mapper.ToPhys(victim)
	writeByte(d, victimPA, 0x00) // bit already 0: a 1->0 cell has nothing to flip

	up := d.mapper.SameBankRow(victim, 49, 0)
	down := d.mapper.SameBankRow(victim, 51, 0)
	for i := 0; i < 200; i++ {
		d.ActivateRow(up)
		d.ActivateRow(down)
	}
	if got := peekByte(d, victimPA); got != 0 {
		t.Fatalf("0->? flip observed on a 1->0 cell: %#x", got)
	}
	if d.Stats().BitFlips != 0 {
		t.Fatalf("BitFlips = %d, want 0", d.Stats().BitFlips)
	}
}

// Refresh resets disturbance accumulation: hammering split across a refresh
// must not flip, hammering within a window must.
func TestDeviceRefreshResetsDisturbance(t *testing.T) {
	model := DefaultFaultModel()
	model.WeakCellDensity = 0
	model.FlipReliability = 1
	model.RefreshInterval = 1500 // activations per refresh window
	d := testDevice(t, model, 7)

	victim := Addr{Bank: 3, Row: 200, Col: 0}
	d.PlantWeakCell(WeakCell{Bank: victim.Bank, Row: 200, ByteInRow: 0, Bit: 7, Threshold: 1000, FlipTo: 0})
	victimPA := d.mapper.ToPhys(victim)
	writeByte(d, victimPA, 0x80)

	up := d.mapper.SameBankRow(victim, 199, 0)
	down := d.mapper.SameBankRow(victim, 201, 0)
	// Each double-sided pair contributes 2 disturbance units to the victim
	// row.  400 pairs = 800 < threshold 1000; a refresh between two such
	// bursts must prevent the flip even though the total crosses 1000.
	for i := 0; i < 400; i++ {
		d.ActivateRow(up)
		d.ActivateRow(down)
	}
	d.Refresh()
	for i := 0; i < 400; i++ {
		d.ActivateRow(up)
		d.ActivateRow(down)
	}
	if got := peekByte(d, victimPA); got != 0x80 {
		t.Fatalf("flip across refresh boundary should not happen: %#x", got)
	}
	// Control: the same total inside one window flips.
	d.Refresh()
	for i := 0; i < 600; i++ {
		d.ActivateRow(up)
		d.ActivateRow(down)
	}
	if got := peekByte(d, victimPA); got != 0 {
		t.Fatalf("flip within one window expected: %#x", got)
	}
}

// A row's disturbance is its weighted activation count, not a running float
// sum: with NeighbourWeight 0.2 ten distance-two activations reach a
// threshold of 2 (ten float additions of 0.2 stop at 1.9999999999999998),
// and the same near and far counts reach a threshold in whatever order they
// arrive.
func TestDeviceDisturbanceIsWeightedCount(t *testing.T) {
	// flipAt activates the given rows in order, each followed by a conflict
	// on a distant row so that every aggressor activation opens its row, and
	// returns the 1-based aggressor activation that flips a threshold-2 cell
	// planted at row 100 (0 if none does).
	flipAt := func(rows ...int) int {
		model := DefaultFaultModel()
		model.WeakCellDensity = 0
		model.FlipReliability = 1
		model.NeighbourWeight = 0.2
		d := testDevice(t, model, 7)
		victim := Addr{Bank: 4, Row: 100, Col: 20}
		d.PlantWeakCell(WeakCell{Bank: victim.Bank, Row: 100, ByteInRow: 20, Bit: 2, Threshold: 2, FlipTo: 0})
		victimPA := d.mapper.ToPhys(victim)
		writeByte(d, victimPA, 0xFF)
		away := d.mapper.SameBankRow(victim, 200, 0)
		for i, row := range rows {
			d.ActivateRow(d.mapper.SameBankRow(victim, row, 0))
			if d.Stats().BitFlips > 0 {
				return i + 1
			}
			d.ActivateRow(away)
		}
		return 0
	}

	far := make([]int, 12)
	for i := range far {
		far[i] = 102
	}
	if got := flipAt(far...); got != 10 {
		t.Errorf("distance-two activations: flip on activation %d, want 10", got)
	}
	// One near and five far activations: level 1 + 5*0.2 = 2 in any order.
	for _, order := range [][]int{
		{101, 102, 102, 102, 102, 102},
		{102, 102, 102, 102, 102, 101},
		{102, 102, 99, 102, 102, 102},
	} {
		if got := flipAt(order...); got != len(order) {
			t.Errorf("order %v: flip on activation %d, want %d", order, got, len(order))
		}
	}
}

// Rewriting a flipped cell restores it and re-arms the weak cell.
func TestDeviceRewriteRearmsCell(t *testing.T) {
	model := DefaultFaultModel()
	model.WeakCellDensity = 0
	model.FlipReliability = 1
	d := testDevice(t, model, 7)

	victim := Addr{Bank: 0, Row: 128, Col: 64}
	d.PlantWeakCell(WeakCell{Bank: victim.Bank, Row: 128, ByteInRow: 64, Bit: 1, Threshold: 500, FlipTo: 0})
	victimPA := d.mapper.ToPhys(victim)

	hammer := func() {
		up := d.mapper.SameBankRow(victim, 127, 0)
		down := d.mapper.SameBankRow(victim, 129, 0)
		for i := 0; i < 600; i++ {
			d.ActivateRow(up)
			d.ActivateRow(down)
		}
	}

	writeByte(d, victimPA, 0xFF)
	hammer()
	if got := peekByte(d, victimPA); got != 0xFF&^(1<<1) {
		t.Fatalf("first hammer did not flip: %#x", got)
	}
	writeByte(d, victimPA, 0xFF) // rewrite re-arms
	d.Refresh()
	hammer()
	if got := peekByte(d, victimPA); got != 0xFF&^(1<<1) {
		t.Fatalf("second hammer did not flip after rewrite: %#x", got)
	}
	if d.Stats().BitFlips != 2 {
		t.Fatalf("BitFlips = %d, want 2", d.Stats().BitFlips)
	}
}

func TestDeviceFlipLog(t *testing.T) {
	model := DefaultFaultModel()
	model.WeakCellDensity = 0
	model.FlipReliability = 1
	d := testDevice(t, model, 7)
	d.EnableFlipLog()

	victim := Addr{Bank: 5, Row: 300, Col: 33}
	d.PlantWeakCell(WeakCell{Bank: victim.Bank, Row: 300, ByteInRow: 33, Bit: 6, Threshold: 400, FlipTo: 0})
	victimPA := d.mapper.ToPhys(victim)
	writeByte(d, victimPA, 0xFF)

	up := d.mapper.SameBankRow(victim, 299, 0)
	down := d.mapper.SameBankRow(victim, 301, 0)
	for i := 0; i < 500; i++ {
		d.ActivateRow(up)
		d.ActivateRow(down)
	}
	log := d.DrainFlipLog()
	if len(log) != 1 {
		t.Fatalf("flip log has %d entries, want 1", len(log))
	}
	if log[0].Phys != victimPA || log[0].Bit != 6 || log[0].From != 1 {
		t.Fatalf("unexpected flip record: %+v", log[0])
	}
	if got := d.DrainFlipLog(); len(got) != 0 {
		t.Fatalf("DrainFlipLog did not clear: %d entries", len(got))
	}
}

func TestDeviceWeakCellPlacementDeterministic(t *testing.T) {
	model := DefaultFaultModel()
	model.WeakCellDensity = 1e-5
	d1 := testDevice(t, model, 42)
	d2 := testDevice(t, model, 42)
	if d1.WeakCellCount() != d2.WeakCellCount() {
		t.Fatalf("weak cell counts differ: %d vs %d", d1.WeakCellCount(), d2.WeakCellCount())
	}
	if d1.WeakCellCount() == 0 {
		t.Fatal("expected some weak cells at density 1e-5")
	}
	a := d1.WeakCellsInRange(0, d1.Size())
	b := d2.WeakCellsInRange(0, d2.Size())
	if len(a) != len(b) {
		t.Fatalf("weak cell sets differ in size: %d vs %d", len(a), len(b))
	}
	// Different seed should (at this density) give a different placement.
	d3 := testDevice(t, model, 43)
	c := d3.WeakCellsInRange(0, d3.Size())
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same && len(a) > 0 {
		t.Fatal("different seeds produced identical weak cell placement")
	}
}

func TestDeviceWeakCellsInRange(t *testing.T) {
	model := DefaultFaultModel()
	model.WeakCellDensity = 1e-5
	d := testDevice(t, model, 11)
	all := d.WeakCellsInRange(0, d.Size())
	if len(all) != d.WeakCellCount() {
		t.Fatalf("full-range query returned %d cells, device has %d", len(all), d.WeakCellCount())
	}
	for _, wc := range all {
		pa := d.PhysOfWeakCell(wc)
		if pa >= d.Size() {
			t.Fatalf("weak cell physical address out of range: %d", pa)
		}
		got := d.WeakCellsInRange(pa, pa+1)
		found := false
		for _, g := range got {
			if g == wc {
				found = true
			}
		}
		if !found {
			t.Fatalf("point query at %d missed weak cell %+v", pa, wc)
		}
	}
}

func TestNewDeviceRejectsBadConfig(t *testing.T) {
	g := DefaultGeometry()
	m := DefaultFaultModel()
	m.RefreshInterval = 0
	if _, err := NewDevice(g, m, 1); err == nil {
		t.Fatal("expected error for zero refresh interval")
	}
	bad := g
	bad.Rows = 1000
	if _, err := NewDevice(bad, DefaultFaultModel(), 1); err == nil {
		t.Fatal("expected error for invalid geometry")
	}
}
