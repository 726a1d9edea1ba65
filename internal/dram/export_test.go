package dram

import "math"

// DeviceState is the internal state HammerLoop must leave exactly as the
// stepped loop would, beyond what the public accessors expose.
type DeviceState struct {
	// Disturb holds every weak-cell row's near and far activation counts,
	// in row-state order.
	Disturb [][2]uint64
	// MinThr holds every weak-cell row's cached lowest armed threshold bits.
	MinThr       []uint64
	OpenRow      []int
	SinceRefresh uint64
	// Chunks holds the materialised backing store (nil for untouched chunks).
	Chunks [][]byte
}

// SnapshotState captures the device's internal state for differential tests.
func (d *Device) SnapshotState() DeviceState {
	s := DeviceState{
		OpenRow:      append([]int(nil), d.openRow...),
		SinceRefresh: d.sinceRefresh,
		Chunks:       d.data.chunks,
	}
	for _, rs := range d.rowStates {
		s.Disturb = append(s.Disturb, [2]uint64{rs.near, rs.far})
		s.MinThr = append(s.MinThr, math.Float64bits(rs.minThr))
	}
	return s
}

// NextDraw draws the device RNG's next value, advancing it.
func (d *Device) NextDraw() uint64 { return d.rng.Uint64() }

// NewDevice builds a device on the linear address mapper.
func NewDevice(g Geometry, model FaultModel, seed uint64) (*Device, error) {
	m, err := NewNamedMapper(MapperLinear, g)
	if err != nil {
		return nil, err
	}
	return NewDeviceWithMapper(m, model, seed)
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geom }

// Size returns the capacity in bytes.
func (d *Device) Size() uint64 { return d.data.size }

// WeakCellCount returns the number of weak cells placed in the device.
func (d *Device) WeakCellCount() int {
	n := 0
	for _, rs := range d.rowStates {
		n += len(rs.cells)
	}
	return n
}

// EnableFlipLog turns on recording of every flip the device produces.
func (d *Device) EnableFlipLog() { d.flipLogEnabled = true }

// DrainFlipLog returns and clears the accumulated flip log.
func (d *Device) DrainFlipLog() []Flip {
	log := d.flipLog
	d.flipLog = nil
	return log
}

// MaterializedBytes reports how much backing storage the device has
// actually allocated.  A freshly built multi-GiB device sits near zero;
// the number grows chunk by chunk as distinguishing writes land.
func (d *Device) MaterializedBytes() uint64 { return d.data.materializedBytes() }

// materializeAll forces every chunk into existence, turning the store into
// the dense array it replaced: the sparse/dense equivalence property runs
// identical workloads against a fresh store and a fully materialised one.
func (s *store) materializeAll() {
	for ci := range s.chunks {
		s.chunkFor(uint64(ci) * storeChunkBytes)
	}
}

// materializedBytes reports how much backing memory the store has actually
// allocated.
func (s *store) materializedBytes() uint64 {
	var total uint64
	for _, c := range s.chunks {
		total += uint64(len(c))
	}
	return total
}

// WeakCellsInRange reports the weak cells whose physical byte address falls
// in [lo, hi): the oracle the templating step has to earn by hammering.
func (d *Device) WeakCellsInRange(lo, hi uint64) []WeakCell {
	var out []WeakCell
	for idx, si := range d.rowIdx {
		if si < 0 {
			continue
		}
		bank := idx / d.geom.Rows
		row := idx % d.geom.Rows
		for _, wc := range d.rowStates[si].cells {
			pa := d.mapper.ToPhys(Addr{Bank: bank, Row: row, Col: wc.ByteInRow})
			if pa >= lo && pa < hi {
				out = append(out, wc)
			}
		}
	}
	return out
}

// PhysOfWeakCell returns the physical byte address of a weak cell.
func (d *Device) PhysOfWeakCell(wc WeakCell) uint64 {
	return d.mapper.ToPhys(Addr{Bank: wc.Bank, Row: wc.Row, Col: wc.ByteInRow})
}

// SameBankRow returns the physical address of (row, col) within the same
// bank as the given address.
func (m *Mapper) SameBankRow(a Addr, row, col int) uint64 {
	a.Row = row
	a.Col = col
	return m.ToPhys(a)
}
