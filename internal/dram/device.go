package dram

import (
	"fmt"
	"math"

	"explframe/internal/stats"
)

// FaultModel parameterises the disturbance (Rowhammer) behaviour of a Device.
// The defaults are calibrated so that flip statistics follow the shapes
// reported for DDR3 by Kim et al. (ISCA 2014): nothing flips below an
// activation threshold inside one refresh window, then the flip count grows
// quickly with the hammer count; weak cells are rare and individually highly
// reproducible.
type FaultModel struct {
	// WeakCellDensity is the probability that any given bit is a weak cell.
	// Kim et al. observe between ~1e-7 and ~1e-4 depending on the module;
	// the default favours the vulnerable end so experiments finish quickly.
	WeakCellDensity float64 `json:"weak_cell_density"`

	// BaseThreshold is the minimum number of adjacent-row activations within
	// one refresh window needed to flip the weakest cell.  Real DDR3 parts
	// show first flips around 139K activations (pre-TRR); the simulator
	// scales this down so a "hammer" is cheap while preserving ordering.
	BaseThreshold int `json:"base_threshold"`

	// ThresholdSpread is the multiplicative range of per-cell thresholds:
	// cell thresholds are distributed in [BaseThreshold, BaseThreshold*(1+Spread)].
	ThresholdSpread float64 `json:"threshold_spread"`

	// NeighbourWeight is the fraction of disturbance contributed to rows at
	// distance two (rows at distance one receive weight 1.0).  Double-sided
	// hammering works because both neighbours at distance one contribute.
	NeighbourWeight float64 `json:"neighbour_weight"`

	// RefreshInterval is the number of row activations (per device,
	// modelling elapsed time) after which a distributed refresh sweep
	// completes and all disturbance counts reset.
	RefreshInterval uint64 `json:"refresh_interval"`

	// FlipReliability is the probability that crossing the threshold
	// actually flips the cell in a given window; values below 1 model cells
	// that flip only on some hammer attempts.
	FlipReliability float64 `json:"flip_reliability"`

	// TRR configures the Target Row Refresh mitigation (disabled by
	// default, matching the paper's pre-TRR DDR3 setting).
	TRR TRRConfig `json:"trr,omitempty"`

	// ECC selects the error-correction model (none by default).
	ECC ECCMode `json:"ecc,omitempty"`
}

// DefaultFaultModel returns the calibrated fault model described above.
func DefaultFaultModel() FaultModel {
	return FaultModel{
		WeakCellDensity: 2e-6,
		BaseThreshold:   20000,
		ThresholdSpread: 1.5,
		NeighbourWeight: 0.25,
		RefreshInterval: 2_000_000,
		FlipReliability: 0.98,
	}
}

// WeakCell records one disturbance-vulnerable bit.
type WeakCell struct {
	Bank      int // dense bank-group index
	Row       int
	ByteInRow int
	Bit       uint8 // bit index within the byte, 0..7
	Threshold int   // activations within a refresh window needed to flip
	FlipTo    uint8 // 0 => true cell (1->0), 1 => anti cell (0->1)
	flipped   bool  // discharged in the current arm cycle
	held      bool  // reliability roll failed for this window
	corrupted bool  // the flip changed stored data (observable), for ECC
}

// Flip describes one observed bit flip: the physical byte address, the bit
// index within the byte and the bit's original value.  Only tests read the
// flip log, the record the hammer-loop equivalence tests compare.
type Flip struct {
	Phys uint64 //doclint:keep the hammer-loop equivalence tests compare the flip log
	Bit  uint8  //doclint:keep the hammer-loop equivalence tests compare the flip log
	From uint8  //doclint:keep the hammer-loop equivalence tests compare the flip log
}

// rowState is the disturbance state of one row that holds weak cells.
// Rows without weak cells cannot flip and carry no state at all: the
// per-row arrays the hammer loop walks are sized by the weak-cell
// population, not the geometry, so a multi-GiB device stays cheap.
type rowState struct {
	cells []WeakCell // a capacity-clamped window of the placement slab
	// near and far count the activations of rows at distance one and two
	// in the current refresh window; level turns them into disturbance.
	near, far uint64
	// minThr caches the lowest threshold among cells that can still fire
	// (neither flipped nor held); +Inf when none can.  The hammer loop
	// consults it to skip the per-cell scan for the bulk of activations,
	// which sit below every active threshold.
	minThr float64
}

// Device is a simulated DRAM module: a sparse chunk-granular byte store
// plus per-row disturbance state.  It is not safe for concurrent use; the
// kernel layer serialises access, matching a single memory controller.
type Device struct {
	geom   Geometry
	mapper *Mapper
	model  FaultModel
	data   *store

	// rowIdx maps the dense (bankGroup, row) index bg*Rows+row to an index
	// into rowStates, or -1 for rows without weak cells.  One int32 per row
	// is the only geometry-proportional cost of the disturbance model; the
	// states themselves are packed into rowStates, sized by the weak-cell
	// population.  The two-level layout keeps the hammer loop's per-
	// activation lookup a pair of array reads — allocation- and hash-free.
	rowIdx    []int32
	rowStates []rowState
	dirty     []int32 // rowStates indices with non-zero counts, for cheap refresh

	// openRow tracks the row buffer per bank group; an access to a
	// different row precharges and activates, which is what disturbs
	// neighbours.
	openRow []int

	rng *stats.RNG

	// trr holds the per-bank-group Target Row Refresh samplers when the
	// mitigation is enabled.
	trr []trrState

	// hammer is HammerLoop's per-call plan, kept on the device so repeated
	// hammer bursts (the attack's steady state) allocate nothing; single is
	// the resolved target of ActivateRow.
	hammer hammerPlan
	single aggressor

	sinceRefresh   uint64
	stats          DeviceStats
	flipLog        []Flip
	flipLogEnabled bool
}

// DeviceStats aggregates activity counters for reporting.
type DeviceStats struct {
	Activations uint64
	BitFlips    uint64
}

// NewDeviceWithMapper builds a device around an explicit address mapper —
// the machine-profile hook that makes DRAM topology a first-class axis.
// The mapper fixes the geometry; weak-cell placement depends only on
// (geometry, model, seed), so two devices differing in mapper alone hold
// the same weak-cell population at the same (bank, row, byte) coordinates
// and differ purely in which physical addresses reach them.
func NewDeviceWithMapper(m *Mapper, model FaultModel, seed uint64) (*Device, error) {
	g := m.Geometry()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if model.RefreshInterval == 0 {
		return nil, fmt.Errorf("dram: refresh interval must be positive")
	}
	nRows := g.NumBankGroups() * g.Rows
	d := &Device{
		geom:    g,
		mapper:  m,
		model:   model,
		data:    newStore(g.TotalBytes()),
		rowIdx:  make([]int32, nRows),
		openRow: make([]int, g.NumBankGroups()),
		rng:     stats.NewRNG(seed),
	}
	for i := range d.openRow {
		d.openRow[i] = -1
	}
	for i := range d.rowIdx {
		d.rowIdx[i] = -1
	}
	d.placeWeakCells()
	d.initTRR()
	return d, nil
}

// level is the disturbance of near and far activations: distance-one rows
// weigh 1.0, distance-two rows NeighbourWeight.  The level is a function of
// the two counts alone, so it does not depend on activation order, and
// integer counts add up exactly however many rounds are added at once.
func (d *Device) level(near, far uint64) float64 {
	return float64(near) + d.model.NeighbourWeight*float64(far)
}

// inf is the sentinel minThr value for rows with no cell able to fire.
var inf = math.Inf(1)

// recomputeMinThr refreshes the cached minimum active threshold of a row
// state after any cell's flipped/held state changed.
func (d *Device) recomputeMinThr(si int32) {
	rs := &d.rowStates[si]
	m := inf
	for i := range rs.cells {
		wc := &rs.cells[i]
		if wc.flipped || wc.held {
			continue
		}
		if t := float64(wc.Threshold); t < m {
			m = t
		}
	}
	rs.minThr = m
}

// rowIndex returns the dense index of (bankGroup, row).
func (d *Device) rowIndex(bg, row int) int { return bg*d.geom.Rows + row }

// cellsAt returns the weak cells of the dense row index (nil for rows
// without any).
func (d *Device) cellsAt(idx int) []WeakCell {
	si := d.rowIdx[idx]
	if si < 0 {
		return nil
	}
	return d.rowStates[si].cells
}

// placeWeakCells draws the weak-cell population.  The expected number of weak
// cells is density * totalBits; placement is uniform over (bank, row, byte,
// bit) and thresholds uniform over the configured spread.  Two cells are
// never placed on the same bit: colliding cells would cancel each other's
// data flips while both counted as corrupted, inflating ECC-uncorrectable
// statistics.  A collision moves to the next free bit in row-major order
// (open addressing) instead of consuming extra draws from the generator, so
// the placement stream is identical whether or not any collision occurred:
// every non-colliding cell keeps the position it had before collisions were
// handled at all, and a colliding cell stays adjacent to its twin.
//
// The cells live in one slab, grouped by row: rowStates are numbered in
// order of each row's first cell, each row's cells keep their draw order,
// and each row's cells slice is capacity-clamped so PlantWeakCell's append
// reallocates instead of overwriting the next row.  The allocation count
// is fixed whatever the cell count, which keeps a per-trial machine cheap.
func (d *Device) placeWeakCells() {
	totalBits := float64(d.geom.TotalBytes()) * 8
	expected := totalBits * d.model.WeakCellDensity
	// Deterministic rounding of the expectation: the fractional part
	// becomes one extra cell with matching probability.
	n := int(expected)
	if d.rng.Float64() < expected-float64(n) {
		n++
	}
	if n == 0 {
		return
	}
	banks := d.geom.NumBankGroups()
	rowBytes := uint64(d.geom.RowBytes)
	totalKeys := uint64(banks) * uint64(d.geom.Rows) * rowBytes * 8
	occupied := newKeySet(n)
	// Draw pass: cells land in the slab in draw order, and dest[i] records
	// cell i's rowStates index, numbered by first appearance.
	slab := make([]WeakCell, n)
	dest := make([]int32, n)
	states := int32(0)
	for i := range slab {
		wc := &slab[i]
		bank := d.rng.Intn(banks)
		row := d.rng.Intn(d.geom.Rows)
		col := d.rng.Intn(d.geom.RowBytes)
		bit := d.rng.Intn(8)
		key := (uint64(d.rowIndex(bank, row))*rowBytes+uint64(col))*8 + uint64(bit)
		for !occupied.add(key) {
			key = (key + 1) % totalKeys
		}
		ri := int(key / 8 / rowBytes)
		wc.Bank, wc.Row = ri/d.geom.Rows, ri%d.geom.Rows
		wc.ByteInRow, wc.Bit = int(key/8%rowBytes), uint8(key%8)
		wc.FlipTo = uint8(d.rng.Intn(2))
		spread := 1 + d.rng.Float64()*d.model.ThresholdSpread
		wc.Threshold = int(float64(d.model.BaseThreshold) * spread)
		if d.rowIdx[ri] < 0 {
			d.rowIdx[ri] = states
			states++
		}
		dest[i] = d.rowIdx[ri]
	}
	// Counting sort by state, stable in draw order.  After the prefix sum
	// end[s] is state s's first slab slot; handing each cell its slot in
	// dest moves end[s] on to the state's end.
	end := make([]int32, states+1)
	for _, si := range dest {
		end[si+1]++
	}
	for si := int32(1); si <= states; si++ {
		end[si] += end[si-1]
	}
	for i, si := range dest {
		dest[i] = end[si]
		end[si]++
	}
	// Apply the permutation in place, one cycle at a time.
	for i := range slab {
		for j := dest[i]; j != int32(i); j = dest[i] {
			slab[i], slab[j] = slab[j], slab[i]
			dest[i], dest[j] = dest[j], j
		}
	}
	d.rowStates = make([]rowState, states)
	lo := int32(0)
	for si := range d.rowStates {
		rs := &d.rowStates[si]
		hi := end[si]
		rs.cells = slab[lo:hi:hi]
		lo = hi
		d.recomputeMinThr(int32(si))
	}
}

// keySet is an open-addressed set of placement keys sized for a known
// number of insertions: the O(n) occupancy structure placeWeakCells uses in
// place of a map.  Slots hold key+1, so zero marks an empty slot.
type keySet struct {
	slots []uint64
	shift uint
}

// newKeySet sizes the table to at least twice n slots, a power of two.
func newKeySet(n int) keySet {
	size, shift := 2, uint(63)
	for size < 2*n {
		size <<= 1
		shift--
	}
	return keySet{slots: make([]uint64, size), shift: shift}
}

// add inserts key and reports whether it was absent.
func (s keySet) add(key uint64) bool {
	mask := uint64(len(s.slots) - 1)
	for h := (key * 0x9e3779b97f4a7c15) >> s.shift; ; h = (h + 1) & mask {
		switch s.slots[h] {
		case 0:
			s.slots[h] = key + 1
			return true
		case key + 1:
			return false
		}
	}
}

// PlantWeakCell inserts a specific weak cell; test and characterisation
// hook for deterministic scenarios.
//
//doclint:keep rowhammer and kernel tests plant a known cell to make one flip deterministic
func (d *Device) PlantWeakCell(wc WeakCell) {
	idx := d.rowIndex(wc.Bank, wc.Row)
	if d.rowIdx[idx] < 0 {
		d.rowIdx[idx] = int32(len(d.rowStates))
		d.rowStates = append(d.rowStates, rowState{})
	}
	si := d.rowIdx[idx]
	d.rowStates[si].cells = append(d.rowStates[si].cells, wc)
	d.recomputeMinThr(si)
}

// Mapper returns the address mapper for this device.
func (d *Device) Mapper() *Mapper { return d.mapper }

// Stats returns a copy of the activity counters.
func (d *Device) Stats() DeviceStats { return d.stats }

// neighbour is one weak-cell row an activation disturbs, resolved to its
// rowStates index.
type neighbour struct {
	si  int32
	row int
	far bool // distance two, else distance one
}

// aggressor is an activation target with its bank group and the weak-cell
// rows it disturbs resolved: distance 1 (weight 1.0) then distance 2
// (NeighbourWeight), lower side first.  Rows past the bank edge or without
// weak cells are dropped — they carry no counts and cannot flip.
type aggressor struct {
	bg, row int
	nb      [4]neighbour
	n       int
	// steadyHit reports whether the activation is a row-buffer hit in every
	// round after the first of a hammer loop (set by planHammer only).
	steadyHit bool
}

// resolve fills ag for (bankGroup, row).
func (d *Device) resolve(ag *aggressor, bg, row int) {
	ag.bg, ag.row, ag.n = bg, row, 0
	d.addNeighbour(ag, row-1, false)
	d.addNeighbour(ag, row+1, false)
	if d.model.NeighbourWeight > 0 {
		d.addNeighbour(ag, row-2, true)
		d.addNeighbour(ag, row+2, true)
	}
}

func (d *Device) addNeighbour(ag *aggressor, row int, far bool) {
	if row < 0 || row >= d.geom.Rows {
		return
	}
	if si := d.rowIdx[ag.bg*d.geom.Rows+row]; si >= 0 {
		ag.nb[ag.n] = neighbour{si: si, row: row, far: far}
		ag.n++
	}
}

// open activates the resolved target's row after a row-buffer conflict,
// charging disturbance to its neighbours (the hammering primitive).  Every
// access the device models is a row-buffer hit, which changes nothing, or
// an open.
func (d *Device) open(ag *aggressor) {
	d.openRow[ag.bg] = ag.row
	d.stats.Activations++
	d.sinceRefresh++

	if d.trr != nil {
		d.trrObserve(ag.bg, ag.row)
	}
	for i := range ag.nb[:ag.n] {
		nb := &ag.nb[i]
		d.disturb(ag.bg, nb.row, nb.si, nb.far)
	}
	if d.sinceRefresh >= d.model.RefreshInterval {
		d.Refresh()
	}
}

// disturb counts one near or far activation against the weak-cell row
// (bg, row) held in rowStates[si] and fires every still-armed cell its
// level reaches.
func (d *Device) disturb(bg, row int, si int32, far bool) {
	rs := &d.rowStates[si]
	if rs.near|rs.far == 0 {
		d.dirty = append(d.dirty, si)
	}
	if far {
		rs.far++
	} else {
		rs.near++
	}
	acc := d.level(rs.near, rs.far)
	if acc < rs.minThr {
		// No still-armed cell can cross yet (or none is left armed):
		// skip the per-cell scan, which the hammer loop hits millions of
		// times below the onset.
		return
	}
	changed := false
	for i := range rs.cells {
		wc := &rs.cells[i]
		if wc.flipped || wc.held {
			continue
		}
		if acc >= float64(wc.Threshold) {
			if d.model.FlipReliability < 1 && !d.rng.Bool(d.model.FlipReliability) {
				// The cell held this window; it gets a fresh chance after
				// the next refresh.
				wc.held = true
				changed = true
				continue
			}
			d.flipCell(bg, row, wc)
			changed = true
		}
	}
	if changed {
		d.recomputeMinThr(si)
	}
}

// flipCell applies a disturbance flip to the backing store.
func (d *Device) flipCell(bg, row int, wc *WeakCell) {
	a := d.addrOfCell(bg, row, wc.ByteInRow)
	phys := d.mapper.ToPhys(a)
	cur := (d.data.load(phys) >> wc.Bit) & 1
	wc.flipped = true
	if cur == wc.FlipTo {
		// The cell already holds its failure polarity; nothing observable
		// flips, but the cell is now discharged until rewritten.
		return
	}
	d.data.xor(phys, 1<<wc.Bit)
	wc.corrupted = true
	d.stats.BitFlips++
	if d.flipLogEnabled {
		d.flipLog = append(d.flipLog, Flip{Phys: phys, Bit: wc.Bit, From: cur})
	}
}

// addrOfCell reconstructs the full Addr of a weak cell's byte.  Bank group
// indices are dense products of (channel, dimm, rank, bank).
func (d *Device) addrOfCell(bg, row, col int) Addr {
	bank := bg % d.geom.Banks
	bg /= d.geom.Banks
	rank := bg % d.geom.Ranks
	bg /= d.geom.Ranks
	dimm := bg % d.geom.DIMMs
	bg /= d.geom.DIMMs
	return Addr{Channel: bg, DIMM: dimm, Rank: rank, Bank: bank, Row: row, Col: col}
}

// Refresh completes a refresh sweep: disturbance counts reset and
// cells that held get a fresh window.  Flipped cells stay flipped — refresh
// restores charge to whatever value the cell currently holds, it does not
// correct errors.
func (d *Device) Refresh() {
	for _, si := range d.dirty {
		d.refreshRow(si)
	}
	d.dirty = d.dirty[:0]
	d.sinceRefresh = 0
	// The TRR sampler also resets on the refresh sweep, as REF commands do
	// on real devices.
	for i := range d.trr {
		d.trr[i].entries = d.trr[i].entries[:0]
	}
}

// refreshRow recharges one weak-cell row: its disturbance counts reset and
// cells that held get a fresh window.
func (d *Device) refreshRow(si int32) {
	rs := &d.rowStates[si]
	rs.near, rs.far = 0, 0
	for i := range rs.cells {
		rs.cells[i].held = false
	}
	d.recomputeMinThr(si)
}

// ReadRangeNoActivate copies [pa, pa+len(out)) into out, bypassing the
// activation model (callers that model timing open the row with ActivateRow
// first).  With ECC enabled the copy is corrected: the code sits on the
// datapath, not the timing model.
func (d *Device) ReadRangeNoActivate(pa uint64, out []byte) {
	d.data.read(pa, out)
	if d.model.ECC == ECCSecDed && len(out) > 0 {
		d.eccCorrectRange(pa, out)
	}
}

// eccCorrectRange applies SEC-DED over every aligned 64-bit word the copied
// range overlaps.  A word with exactly one observably flipped bit is
// corrected (the bit is restored if its byte was copied); with two or more
// the raw, corrupted bytes are returned.  It is the device's only SEC-DED
// routine; each copied corrupted cell rescans its row's few weak cells for
// others in its word.
func (d *Device) eccCorrectRange(pa uint64, out []byte) {
	lo, hi := pa, pa+uint64(len(out))
	rowBytes := uint64(d.geom.RowBytes)
	for base := lo &^ (rowBytes - 1); base < hi; base += rowBytes {
		a := d.mapper.ToDRAM(base)
		cells := d.cellsAt(d.rowIndex(d.mapper.BankGroup(a), a.Row))
		for _, wc := range cells {
			cellPA := base + uint64(wc.ByteInRow)
			if !wc.corrupted || cellPA < lo || cellPA >= hi {
				continue
			}
			inWord := 0
			for _, other := range cells {
				if other.corrupted && other.ByteInRow&^7 == wc.ByteInRow&^7 {
					inWord++
				}
			}
			if inWord == 1 {
				out[cellPA-lo] ^= 1 << wc.Bit
			}
		}
	}
}

// WriteRangeNoActivate stores data at [pa, pa+len(data)) bypassing the
// activation model (callers that model timing open the row with ActivateRow
// first).  Writing a cell re-charges it: any flip recorded for a written
// byte is cleared, making the cell vulnerable again in a later window (this
// is what makes templating non-destructive and flips reproducible).
func (d *Device) WriteRangeNoActivate(pa uint64, data []byte) {
	d.data.write(pa, data)
	d.rearmRange(pa, pa+uint64(len(data)))
}

// ZeroNoActivate clears [pa, pa+n), bypassing the activation model; the
// kernel's page zeroing uses it.  Zeroing untouched memory materialises
// nothing, which is what makes demand-paging a multi-GiB mapping near-free.
func (d *Device) ZeroNoActivate(pa, n uint64) {
	d.data.zero(pa, n)
	d.rearmRange(pa, pa+n)
}

// rearmRange clears the discharged state of weak cells whose byte falls in
// the physical range [lo, hi); it is the device's only re-arm routine.  The
// mapper keeps column bits lowest, so a contiguous physical range decomposes
// into whole-row segments with contiguous column spans, one weak-cell scan
// per row.
func (d *Device) rearmRange(lo, hi uint64) {
	rowBytes := uint64(d.geom.RowBytes)
	for base := lo &^ (rowBytes - 1); base < hi; base += rowBytes {
		a := d.mapper.ToDRAM(base)
		si := d.rowIdx[d.rowIndex(d.mapper.BankGroup(a), a.Row)]
		if si < 0 {
			continue
		}
		colLo, colHi := 0, int(rowBytes)
		if base < lo {
			colLo = int(lo - base)
		}
		if base+rowBytes > hi {
			colHi = int(hi - base)
		}
		changed := false
		cells := d.rowStates[si].cells
		for i := range cells {
			wc := &cells[i]
			if wc.ByteInRow >= colLo && wc.ByteInRow < colHi {
				changed = changed || wc.flipped
				wc.flipped = false
				wc.corrupted = false
			}
		}
		if changed {
			d.recomputeMinThr(si)
		}
	}
}

// ActivateRow opens the row containing pa: a row-buffer hit if it is
// already open, otherwise an activation that disturbs its neighbours.  It
// is the hammer primitive and the timing half of every access the kernel
// makes; the range operations above move the data.
func (d *Device) ActivateRow(pa uint64) {
	a := d.mapper.ToDRAM(pa)
	bg := d.mapper.BankGroup(a)
	if d.openRow[bg] == a.Row {
		return
	}
	d.resolve(&d.single, bg, a.Row)
	d.open(&d.single)
}
