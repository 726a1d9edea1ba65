package dram_test

import (
	"math"
	"testing"

	"explframe/internal/dram"
	"explframe/internal/machine"
)

// maxFuzzCells caps a fuzzed placement's cell count, so the scaled-up
// densities on the largest machines stay cheap while still colliding.
const maxFuzzCells = 1 << 17

// FuzzWeakCellPlacement pins the slab placement to the map-based oracle
// over every registered machine's geometry, mapper and fault model, with
// densities scaled up to 128x (capped at maxFuzzCells cells) so that
// collisions and probe chains occur: cells, row order, per-row order, the
// cell count and the next RNG draw must all agree.
func FuzzWeakCellPlacement(f *testing.F) {
	names := machine.Names()
	for i := range names {
		f.Add(uint8(i), uint64(i+1), uint8(0))
		f.Add(uint8(i), uint64(100+i), uint8(7))
	}
	f.Fuzz(func(t *testing.T, mi uint8, seed uint64, scale uint8) {
		ms := machine.MustGet(names[int(mi)%len(names)])
		m, err := dram.NewNamedMapper(ms.MapperName(), ms.Geometry)
		if err != nil {
			t.Fatal(err)
		}
		fm := ms.FaultModel
		bits := float64(ms.Geometry.TotalBytes()) * 8
		fm.WeakCellDensity = math.Min(fm.WeakCellDensity*float64(uint64(1)<<(scale%8)), maxFuzzCells/bits)
		checkPlacement(t, m, fm, seed)
	})
}

// A module with every bit (or nearly every bit) weak makes every later
// draw collide, with probe chains running across rows, banks and the
// key-space wrap.
func TestWeakCellPlacementSaturated(t *testing.T) {
	g := dram.Geometry{Banks: 2, Rows: 4, RowBytes: 16}
	m, err := dram.NewNamedMapper(dram.MapperLinear, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, density := range []float64{0.01, 0.3, 0.9, 0.999, 1} {
		for seed := uint64(1); seed <= 4; seed++ {
			fm := dram.DefaultFaultModel()
			fm.WeakCellDensity = density
			checkPlacement(t, m, fm, seed)
		}
	}
}

func checkPlacement(t *testing.T, m *dram.Mapper, fm dram.FaultModel, seed uint64) {
	t.Helper()
	diff, err := dram.PlacementMismatch(m, fm, seed)
	if err != nil {
		t.Fatal(err)
	}
	if diff != "" {
		t.Fatalf("density %g seed %d: placement differs from the oracle: %s", fm.WeakCellDensity, seed, diff)
	}
}

// maxDeviceAllocs bounds NewDeviceWithMapper's allocation count: a fixed
// handful of slices whatever the weak-cell population.
const maxDeviceAllocs = 16

// Building the fast profile's device makes the same small number of
// allocations at its density and at a tenth of it: the count does not
// grow with the cells.
func TestNewDeviceAllocsIndependentOfCellCount(t *testing.T) {
	ms := machine.MustGet("fast")
	m, err := dram.NewNamedMapper(ms.MapperName(), ms.Geometry)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(fm dram.FaultModel) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := dram.NewDeviceWithMapper(m, fm, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	full := allocs(ms.FaultModel)
	tenth := ms.FaultModel
	tenth.WeakCellDensity /= 10
	sparse := allocs(tenth)
	t.Logf("%.0f allocations at full density, %.0f at a tenth", full, sparse)
	if full > maxDeviceAllocs {
		t.Errorf("NewDeviceWithMapper(fast) makes %.0f allocations; want at most %d", full, maxDeviceAllocs)
	}
	if full != sparse {
		t.Errorf("allocations depend on the cell count: %.0f at full density, %.0f at a tenth", full, sparse)
	}
}
