package dram

import (
	"testing"

	"explframe/internal/stats"
)

// Data integrity property: under arbitrary activation storms, only bytes
// containing weak cells may ever deviate from what was written — sound
// cells never corrupt spontaneously.
func TestActivationStormOnlyFlipsWeakCells(t *testing.T) {
	g := Geometry{Banks: 4, Rows: 256, RowBytes: 2048}
	model := FaultModel{
		WeakCellDensity: 5e-5,
		BaseThreshold:   500,
		ThresholdSpread: 1.0,
		NeighbourWeight: 0.25,
		RefreshInterval: 1 << 20,
		FlipReliability: 1.0,
	}
	d, err := NewDevice(g, model, 123)
	if err != nil {
		t.Fatal(err)
	}
	// Write a position-dependent pattern everywhere (bypassing activation
	// to keep the storm the only disturbance source).
	size := d.Size()
	for pa := uint64(0); pa < size; pa++ {
		pokeByte(d, pa, byte(pa*7+3))
	}
	// Record where weak cells live.
	weakBytes := map[uint64]bool{}
	for _, wc := range d.WeakCellsInRange(0, size) {
		weakBytes[d.PhysOfWeakCell(wc)] = true
	}

	rng := stats.NewRNG(5)
	for i := 0; i < 300000; i++ {
		d.ActivateRow((rng.Uint64() >> 1) % size)
	}

	deviations := 0
	for pa := uint64(0); pa < size; pa++ {
		if peekByte(d, pa) != byte(pa*7+3) {
			if !weakBytes[pa] {
				t.Fatalf("sound byte %d corrupted", pa)
			}
			deviations++
		}
	}
	if deviations == 0 {
		t.Fatal("storm flipped nothing despite low thresholds (model suspiciously inert)")
	}
	if d.Stats().BitFlips == 0 {
		t.Fatal("flip counter not incremented")
	}
}

// Device behaviour must be a pure function of (geometry, model, seed) and
// the operation sequence.
func TestDeviceDeterminism(t *testing.T) {
	run := func() (DeviceStats, []byte) {
		g := Geometry{Banks: 4, Rows: 256, RowBytes: 2048}
		model := DefaultFaultModel()
		model.WeakCellDensity = 1e-4
		model.BaseThreshold = 400
		model.FlipReliability = 0.9 // exercises the RNG path too
		d, err := NewDevice(g, model, 99)
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(7)
		for pa := uint64(0); pa < d.Size(); pa += 64 {
			pokeByte(d, pa, 0xFF)
		}
		for i := 0; i < 100000; i++ {
			d.ActivateRow((rng.Uint64() >> 1) % d.Size())
		}
		sample := make([]byte, 0, 4096)
		for pa := uint64(0); pa < d.Size(); pa += 1024 {
			sample = append(sample, peekByte(d, pa))
		}
		return d.Stats(), sample
	}
	s1, d1 := run()
	s2, d2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("data diverged at sample %d", i)
		}
	}
}
