package dram

import "math"

// DeviceState is the internal state HammerLoop must leave exactly as the
// stepped loop would, beyond what the public accessors expose.
type DeviceState struct {
	// Disturb holds every weak-cell row's accumulator bits, in row-state order.
	Disturb []uint64
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
		s.Disturb = append(s.Disturb, math.Float64bits(rs.disturb))
		s.MinThr = append(s.MinThr, math.Float64bits(rs.minThr))
	}
	return s
}

// NextDraw draws the device RNG's next value, advancing it.
func (d *Device) NextDraw() uint64 { return d.rng.Uint64() }
