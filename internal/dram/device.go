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
	// completes and all disturbance accumulators reset.
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

// Flip describes one observed bit flip.
type Flip struct {
	Phys uint64 // physical byte address
	Bit  uint8  // bit index within the byte
	From uint8  // original bit value
}

// rowState is the disturbance state of one row that holds weak cells.
// Rows without weak cells cannot flip and carry no state at all: the
// per-row arrays the hammer loop walks are sized by the weak-cell
// population, not the geometry, so a multi-GiB device stays cheap.
type rowState struct {
	cells []*WeakCell
	// disturb is the accumulated disturbance in the current refresh window.
	disturb float64
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
	mapper AddressMapper
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
	dirty     []int32 // rowStates indices with non-zero disturbance, for cheap refresh
	weakCount int

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
	// the resolved target of activate.
	hammer hammerPlan
	single aggressor

	sinceRefresh   uint64
	stats          DeviceStats
	flipLog        []Flip
	flipLogEnabled bool
}

// DeviceStats aggregates activity counters for reporting.
type DeviceStats struct {
	Reads            uint64
	Writes           uint64
	Activations      uint64
	RowHits          uint64
	Refreshes        uint64
	BitFlips         uint64
	TRRRefreshes     uint64
	ECCCorrected     uint64
	ECCUncorrectable uint64
}

// NewDevice builds a device with the given geometry and fault model, placing
// weak cells deterministically from the seed.  The linear address mapper is
// used; NewDeviceWithMapper selects a different one.
func NewDevice(g Geometry, model FaultModel, seed uint64) (*Device, error) {
	m, err := NewMapper(g)
	if err != nil {
		return nil, err
	}
	return NewDeviceWithMapper(m, model, seed)
}

// NewDeviceWithMapper builds a device around an explicit address mapper —
// the machine-profile hook that makes DRAM topology a first-class axis.
// The mapper fixes the geometry; weak-cell placement depends only on
// (geometry, model, seed), so two devices differing in mapper alone hold
// the same weak-cell population at the same (bank, row, byte) coordinates
// and differ purely in which physical addresses reach them.
func NewDeviceWithMapper(m AddressMapper, model FaultModel, seed uint64) (*Device, error) {
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

// inf is the sentinel minThr value for rows with no cell able to fire.
var inf = math.Inf(1)

// recomputeMinThr refreshes the cached minimum active threshold of a row
// state after any cell's flipped/held state changed.
func (d *Device) recomputeMinThr(si int32) {
	rs := &d.rowStates[si]
	m := inf
	for _, wc := range rs.cells {
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

// stateFor returns the rowStates index for the dense row index, creating
// the state on first use (weak-cell placement and PlantWeakCell).
func (d *Device) stateFor(idx int) int32 {
	si := d.rowIdx[idx]
	if si < 0 {
		si = int32(len(d.rowStates))
		d.rowStates = append(d.rowStates, rowState{minThr: inf})
		d.rowIdx[idx] = si
	}
	return si
}

// cellsAt returns the weak cells of the dense row index (nil for rows
// without any).
func (d *Device) cellsAt(idx int) []*WeakCell {
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
func (d *Device) placeWeakCells() {
	totalBits := float64(d.geom.TotalBytes()) * 8
	expected := totalBits * d.model.WeakCellDensity
	// Deterministic rounding of the expectation: the fractional part
	// becomes one extra cell with matching probability.
	n := int(expected)
	if d.rng.Float64() < expected-float64(n) {
		n++
	}
	if n > 0 {
		d.rowStates = make([]rowState, 0, n)
	}
	banks := d.geom.NumBankGroups()
	totalKeys := uint64(banks) * uint64(d.geom.Rows) * uint64(d.geom.RowBytes) * 8
	occupied := make(map[uint64]struct{}, n)
	for i := 0; i < n; i++ {
		wc := &WeakCell{
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
		si := d.stateFor(d.rowIndex(wc.Bank, wc.Row))
		rs := &d.rowStates[si]
		rs.cells = append(rs.cells, wc)
		if t := float64(wc.Threshold); t < rs.minThr {
			rs.minThr = t
		}
		d.weakCount++
	}
}

// PlantWeakCell inserts a specific weak cell; test and characterisation
// hook for deterministic scenarios.
func (d *Device) PlantWeakCell(wc WeakCell) {
	c := wc
	si := d.stateFor(d.rowIndex(c.Bank, c.Row))
	d.rowStates[si].cells = append(d.rowStates[si].cells, &c)
	d.weakCount++
	d.recomputeMinThr(si)
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geom }

// Mapper returns the address mapper for this device.
func (d *Device) Mapper() AddressMapper { return d.mapper }

// Model returns the fault model in use.
func (d *Device) Model() FaultModel { return d.model }

// Stats returns a copy of the activity counters.
func (d *Device) Stats() DeviceStats { return d.stats }

// WeakCellCount returns the number of weak cells placed in the device.
func (d *Device) WeakCellCount() int { return d.weakCount }

// EnableFlipLog turns on recording of every flip the device produces.
func (d *Device) EnableFlipLog() { d.flipLogEnabled = true }

// DrainFlipLog returns and clears the accumulated flip log.
func (d *Device) DrainFlipLog() []Flip {
	log := d.flipLog
	d.flipLog = nil
	return log
}

// Size returns the capacity in bytes.
func (d *Device) Size() uint64 { return d.data.size }

// MaterializedBytes reports how much backing storage the device has
// actually allocated.  A freshly built multi-GiB device sits near zero;
// the number grows chunk by chunk as distinguishing writes land.
func (d *Device) MaterializedBytes() uint64 { return d.data.materializedBytes() }

// activate opens the row containing a (Read, Write and ActivateRow).
func (d *Device) activate(a Addr) {
	bg := d.mapper.BankGroup(a)
	if d.rowHit(bg, a.Row) {
		return
	}
	d.resolve(&d.single, bg, a.Row)
	d.open(&d.single)
}

// neighbour is one weak-cell row an activation disturbs, resolved to its
// rowStates index.
type neighbour struct {
	si  int32
	row int
	w   float64
}

// aggressor is an activation target with its bank group and the weak-cell
// rows it disturbs resolved: distance 1 (weight 1.0) then distance 2
// (NeighbourWeight), lower side first.  Rows past the bank edge or without
// weak cells are dropped — they carry no accumulator and cannot flip.
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
	d.addNeighbour(ag, row-1, 1.0)
	d.addNeighbour(ag, row+1, 1.0)
	if w := d.model.NeighbourWeight; w > 0 {
		d.addNeighbour(ag, row-2, w)
		d.addNeighbour(ag, row+2, w)
	}
}

func (d *Device) addNeighbour(ag *aggressor, row int, w float64) {
	if row < 0 || row >= d.geom.Rows {
		return
	}
	if si := d.rowIdx[ag.bg*d.geom.Rows+row]; si >= 0 {
		ag.nb[ag.n] = neighbour{si: si, row: row, w: w}
		ag.n++
	}
}

// rowHit reports, and counts, an access to the row already open in bank
// group bg's row buffer.  Every access the device models goes through
// rowHit and, when it is not a hit, open.
func (d *Device) rowHit(bg, row int) bool {
	if d.openRow[bg] != row {
		return false
	}
	d.stats.RowHits++
	return true
}

// open activates the resolved target's row after a row-buffer conflict,
// charging disturbance to its neighbours (the hammering primitive).
func (d *Device) open(ag *aggressor) {
	d.openRow[ag.bg] = ag.row
	d.stats.Activations++
	d.sinceRefresh++

	if d.trr != nil {
		d.trrObserve(ag.bg, ag.row)
	}
	for i := range ag.nb[:ag.n] {
		nb := &ag.nb[i]
		d.disturb(ag.bg, nb.row, nb.si, nb.w)
	}
	if d.sinceRefresh >= d.model.RefreshInterval {
		d.Refresh()
	}
}

// disturb adds w to the accumulator of the weak-cell row (bg, row) held in
// rowStates[si] and fires every still-armed cell the total reaches.
func (d *Device) disturb(bg, row int, si int32, w float64) {
	rs := &d.rowStates[si]
	if rs.disturb == 0 {
		d.dirty = append(d.dirty, si)
	}
	rs.disturb += w
	acc := rs.disturb
	if acc < rs.minThr {
		// No still-armed cell can cross yet (or none is left armed):
		// skip the per-cell scan, which the hammer loop hits millions of
		// times below the onset.
		return
	}
	changed := false
	for _, wc := range rs.cells {
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

// Refresh completes a refresh sweep: disturbance accumulators reset and
// cells that held get a fresh window.  Flipped cells stay flipped — refresh
// restores charge to whatever value the cell currently holds, it does not
// correct errors.
func (d *Device) Refresh() {
	for _, si := range d.dirty {
		d.rowStates[si].disturb = 0
		for _, wc := range d.rowStates[si].cells {
			wc.held = false
		}
		d.recomputeMinThr(si)
	}
	d.dirty = d.dirty[:0]
	d.sinceRefresh = 0
	d.stats.Refreshes++
	// The TRR sampler also resets on the refresh sweep, as REF commands do
	// on real devices.
	for i := range d.trr {
		d.trr[i].entries = d.trr[i].entries[:0]
	}
}

// Read returns the byte at physical address pa, activating its row.  With
// ECC enabled, single observable flips in the containing 64-bit word are
// corrected on the fly.
func (d *Device) Read(pa uint64) byte {
	a := d.mapper.ToDRAM(pa)
	d.activate(a)
	d.stats.Reads++
	v := d.data.load(pa)
	if d.model.ECC == ECCSecDed {
		v = d.eccCorrect(pa, v)
	}
	return v
}

// Write stores a byte at physical address pa, activating its row.  Writing a
// cell re-charges it: any flip recorded for that cell is cleared, making the
// cell vulnerable again in a later window (this is what makes templating
// non-destructive and flips reproducible).
func (d *Device) Write(pa uint64, v byte) {
	a := d.mapper.ToDRAM(pa)
	d.activate(a)
	d.stats.Writes++
	d.data.set(pa, v)
	d.rearm(a)
}

// rearm clears the discharged state of weak cells in the written byte.
func (d *Device) rearm(a Addr) {
	si := d.rowIdx[d.rowIndex(d.mapper.BankGroup(a), a.Row)]
	if si < 0 {
		return
	}
	changed := false
	for _, wc := range d.rowStates[si].cells {
		if wc.ByteInRow == a.Col {
			changed = changed || wc.flipped
			wc.flipped = false
			wc.corrupted = false
		}
	}
	if changed {
		d.recomputeMinThr(si)
	}
}

// ReadNoActivate returns the byte at pa without touching the row buffer or
// disturbance model.  The kernel uses it for bulk inspection (e.g. page
// zeroing) where modelling every access would swamp the statistics.  ECC
// correction still applies: the code sits on the datapath, not the timing
// model.
func (d *Device) ReadNoActivate(pa uint64) byte {
	v := d.data.load(pa)
	if d.model.ECC == ECCSecDed {
		v = d.eccCorrect(pa, v)
	}
	return v
}

// WriteNoActivate stores a byte bypassing the activation model, clearing any
// flip record for the cell (same semantics as Write).
func (d *Device) WriteNoActivate(pa uint64, v byte) {
	d.data.set(pa, v)
	a := d.mapper.ToDRAM(pa)
	d.rearm(a)
}

// ReadRangeNoActivate copies [pa, pa+len(out)) into out, bypassing the
// activation model.  With ECC enabled the copy is corrected with the same
// data and counter semantics as per-byte eccCorrect calls over the range,
// but at one weak-cell scan per covered row instead of one per byte.
func (d *Device) ReadRangeNoActivate(pa uint64, out []byte) {
	d.data.read(pa, out)
	if d.model.ECC == ECCSecDed && len(out) > 0 {
		d.eccCorrectRange(pa, out)
	}
}

// eccCorrectRange applies SEC-DED over the copied range.  eccCorrect counts
// one event per byte read from a word holding observable flips; the bulk
// form adds the same totals word by word.
func (d *Device) eccCorrectRange(pa uint64, out []byte) {
	lo, hi := pa, pa+uint64(len(out))
	rowBytes := uint64(d.geom.RowBytes)
	var words map[uint64][]*WeakCell // word base pa -> corrupted cells
	for base := lo &^ (rowBytes - 1); base < hi; base += rowBytes {
		a := d.mapper.ToDRAM(base)
		for _, wc := range d.cellsAt(d.rowIndex(d.mapper.BankGroup(a), a.Row)) {
			if !wc.corrupted {
				continue
			}
			wordBase := base + uint64(wc.ByteInRow&^7)
			if wordBase+8 <= lo || wordBase >= hi {
				continue
			}
			if words == nil {
				words = make(map[uint64][]*WeakCell)
			}
			words[wordBase] = append(words[wordBase], wc)
		}
	}
	for wordBase, cells := range words {
		overlapLo, overlapHi := wordBase, wordBase+8
		if overlapLo < lo {
			overlapLo = lo
		}
		if overlapHi > hi {
			overlapHi = hi
		}
		read := overlapHi - overlapLo
		if len(cells) == 1 {
			d.stats.ECCCorrected += read
			cellPA := wordBase + uint64(cells[0].ByteInRow&7)
			if cellPA >= lo && cellPA < hi {
				out[cellPA-lo] ^= 1 << cells[0].Bit
			}
			continue
		}
		d.stats.ECCUncorrectable += read
	}
}

// WriteRangeNoActivate stores data at [pa, pa+len(data)) bypassing the
// activation model, with the same re-arm semantics as per-byte
// WriteNoActivate but one row scan per covered row instead of one per byte.
func (d *Device) WriteRangeNoActivate(pa uint64, data []byte) {
	d.data.write(pa, data)
	d.rearmRange(pa, pa+uint64(len(data)))
}

// FillNoActivate stores n copies of v at [pa, pa+n), bypassing the
// activation model; the kernel's page zeroing uses it.  Zero fills over
// untouched memory materialise nothing, which is what makes demand-paging
// a multi-GiB mapping near-free.
func (d *Device) FillNoActivate(pa, n uint64, v byte) {
	d.data.fill(pa, n, v)
	d.rearmRange(pa, pa+n)
}

// rearmRange clears the discharged state of weak cells whose byte falls in
// the physical range [lo, hi).  The mapper keeps column bits lowest, so a
// contiguous physical range decomposes into whole-row segments with
// contiguous column spans — one weak-cell scan per row replaces the per-byte
// scan of rearm.
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
		for _, wc := range d.rowStates[si].cells {
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

// ActivateRow explicitly opens the row containing pa; this is the hammer
// primitive (a read with the result discarded).
func (d *Device) ActivateRow(pa uint64) {
	d.activate(d.mapper.ToDRAM(pa))
}

// WeakCellsInRange reports the weak cells whose physical byte address falls
// in [lo, hi).  Test and characterisation helper; a real attacker cannot
// call this, the Rowhammer templating step discovers the same information.
func (d *Device) WeakCellsInRange(lo, hi uint64) []WeakCell {
	var out []WeakCell
	for idx, si := range d.rowIdx {
		if si < 0 {
			continue
		}
		bg := idx / d.geom.Rows
		row := idx % d.geom.Rows
		for _, wc := range d.rowStates[si].cells {
			pa := d.mapper.ToPhys(d.addrOfCell(bg, row, wc.ByteInRow))
			if pa >= lo && pa < hi {
				out = append(out, *wc)
			}
		}
	}
	return out
}

// PhysOfWeakCell returns the physical byte address of a weak cell.
func (d *Device) PhysOfWeakCell(wc WeakCell) uint64 {
	return d.mapper.ToPhys(d.addrOfCell(wc.Bank, wc.Row, wc.ByteInRow))
}
