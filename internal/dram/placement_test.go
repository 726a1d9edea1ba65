package dram

import (
	"fmt"
	"reflect"
	"testing"

	"explframe/internal/stats"
)

// placeWeakCellsByMap is the placement placeWeakCells replaced, kept as
// its oracle: one draw at a time into a map-deduplicated key space, each
// cell appended to its row's state as the row first appears.
func (d *Device) placeWeakCellsByMap() {
	totalBits := float64(d.geom.TotalBytes()) * 8
	expected := totalBits * d.model.WeakCellDensity
	n := int(expected)
	if d.rng.Float64() < expected-float64(n) {
		n++
	}
	banks := d.geom.Banks
	totalKeys := uint64(banks) * uint64(d.geom.Rows) * uint64(d.geom.RowBytes) * 8
	occupied := make(map[uint64]struct{}, n)
	for i := 0; i < n; i++ {
		wc := WeakCell{
			Bank:      d.rng.Intn(banks),
			Row:       d.rng.Intn(d.geom.Rows),
			ByteInRow: d.rng.Intn(d.geom.RowBytes),
			Bit:       uint8(d.rng.Intn(8)),
		}
		key := (uint64(d.rowIndex(wc.Bank, wc.Row))*uint64(d.geom.RowBytes)+uint64(wc.ByteInRow))*8 + uint64(wc.Bit)
		for {
			if _, dup := occupied[key]; !dup {
				occupied[key] = struct{}{}
				break
			}
			key = (key + 1) % totalKeys
			wc.Bit = uint8(key % 8)
			wc.ByteInRow = int(key / 8 % uint64(d.geom.RowBytes))
			ri := int(key / 8 / uint64(d.geom.RowBytes))
			wc.Bank = ri / d.geom.Rows
			wc.Row = ri % d.geom.Rows
		}
		wc.FlipTo = uint8(d.rng.Intn(2))
		spread := 1 + d.rng.Float64()*d.model.ThresholdSpread
		wc.Threshold = int(float64(d.model.BaseThreshold) * spread)
		idx := d.rowIndex(wc.Bank, wc.Row)
		if d.rowIdx[idx] < 0 {
			d.rowIdx[idx] = int32(len(d.rowStates))
			d.rowStates = append(d.rowStates, rowState{minThr: inf})
		}
		rs := &d.rowStates[d.rowIdx[idx]]
		rs.cells = append(rs.cells, wc)
		if t := float64(wc.Threshold); t < rs.minThr {
			rs.minThr = t
		}
	}
}

// PlacementMismatch builds a device for (m, model, seed) and places the
// same population again with the oracle.  It describes the first
// difference in rowIdx, rowStates (order, every cell field, minThr)
// or the next RNG draw, or returns "" when they all agree.
func PlacementMismatch(m *Mapper, model FaultModel, seed uint64) (string, error) {
	d, err := NewDeviceWithMapper(m, model, seed)
	if err != nil {
		return "", err
	}
	o := &Device{geom: d.geom, model: model, rng: stats.NewRNG(seed), rowIdx: make([]int32, len(d.rowIdx))}
	for i := range o.rowIdx {
		o.rowIdx[i] = -1
	}
	o.placeWeakCellsByMap()
	for i := range d.rowIdx {
		if d.rowIdx[i] != o.rowIdx[i] {
			return fmt.Sprintf("rowIdx[%d] = %d, oracle %d", i, d.rowIdx[i], o.rowIdx[i]), nil
		}
	}
	if len(d.rowStates) != len(o.rowStates) {
		return fmt.Sprintf("%d row states, oracle %d", len(d.rowStates), len(o.rowStates)), nil
	}
	for si := range d.rowStates {
		if !reflect.DeepEqual(d.rowStates[si], o.rowStates[si]) {
			return fmt.Sprintf("rowStates[%d] = %+v, oracle %+v", si, d.rowStates[si], o.rowStates[si]), nil
		}
	}
	if a, b := d.rng.Uint64(), o.rng.Uint64(); a != b {
		return fmt.Sprintf("next draw %#x, oracle %#x", a, b), nil
	}
	return "", nil
}

// Planting into a row whose cells sit in the placement slab must not write
// into the next row's cells: each row's slice is capacity-clamped, so the
// append moves the row out of the slab instead.
func TestPlantWeakCellLeavesNextRowIntact(t *testing.T) {
	g := Geometry{Banks: 2, Rows: 64, RowBytes: 1024}
	model := DefaultFaultModel()
	model.WeakCellDensity = 1e-3
	d, err := NewDevice(g, model, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.rowStates) < 2 {
		t.Fatalf("want at least two weak-cell rows, got %d", len(d.rowStates))
	}
	// Row states are laid out in the slab in order, so row 1's cells
	// directly follow row 0's.
	first, next := &d.rowStates[0], &d.rowStates[1]
	before := append([]WeakCell(nil), first.cells...)
	nextBefore := append([]WeakCell(nil), next.cells...)
	planted := WeakCell{Bank: before[0].Bank, Row: before[0].Row, ByteInRow: 1, Bit: 5, Threshold: 10, FlipTo: 1}
	d.PlantWeakCell(planted)
	if !reflect.DeepEqual(next.cells, nextBefore) {
		t.Fatalf("next row's cells changed:\n got %+v\nwant %+v", next.cells, nextBefore)
	}
	if want := append(before, planted); !reflect.DeepEqual(first.cells, want) {
		t.Fatalf("planted row:\n got %+v\nwant %+v", first.cells, want)
	}
	if d.WeakCellCount() != len(d.WeakCellsInRange(0, d.Size())) {
		t.Fatalf("WeakCellCount %d, cells in range %d", d.WeakCellCount(), len(d.WeakCellsInRange(0, d.Size())))
	}
}
