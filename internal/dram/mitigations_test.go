package dram

import "testing"

// trrDevice builds a device with a planted weak cell and TRR enabled.
func trrDevice(t *testing.T, trr TRRConfig, ecc ECCMode) (*Device, Addr, uint64) {
	t.Helper()
	g := Geometry{Channels: 1, DIMMs: 1, Ranks: 1, Banks: 8, Rows: 512, RowBytes: 4096}
	model := DefaultFaultModel()
	model.WeakCellDensity = 0
	model.FlipReliability = 1
	model.TRR = trr
	model.ECC = ecc
	d, err := NewDevice(g, model, 7)
	if err != nil {
		t.Fatal(err)
	}
	victim := Addr{Bank: 2, Row: 100, Col: 10}
	d.PlantWeakCell(WeakCell{Bank: d.mapper.BankGroup(victim), Row: 100, ByteInRow: 10, Bit: 3, Threshold: 1000, FlipTo: 0})
	pa := d.mapper.ToPhys(victim)
	writeByte(d, pa, 0xFF)
	return d, victim, pa
}

// doubleSided hammers rows victim±1 for n pairs.
func doubleSided(d *Device, victim Addr, n int) {
	up := d.mapper.SameBankRow(victim, victim.Row-1, 0)
	down := d.mapper.SameBankRow(victim, victim.Row+1, 0)
	for i := 0; i < n; i++ {
		d.ActivateRow(up)
		d.ActivateRow(down)
	}
}

// TRR with a tracker big enough for both aggressors must protect the cell:
// the neighbour refresh clears disturbance before the threshold is reached.
func TestTRRBlocksDoubleSided(t *testing.T) {
	trr := TRRConfig{Enabled: true, TrackerSize: 8, Threshold: 200}
	d, victim, pa := trrDevice(t, trr, ECCNone)
	doubleSided(d, victim, 3000) // 3x the cell threshold
	if got := peekByte(d, pa); got != 0xFF {
		t.Fatalf("cell flipped despite TRR: %#x", got)
	}
	// TRR fired: each targeted refresh zeroes the victim row's
	// disturbance, so it never holds the two aggressors' threshold count.
	rs := d.rowStates[d.rowIdx[d.rowIndex(d.mapper.BankGroup(victim), victim.Row)]]
	if rs.near+rs.far >= 2*uint64(trr.Threshold) {
		t.Fatalf("TRR never fired: victim row disturbance near %d far %d", rs.near, rs.far)
	}
	// Control: without TRR the same hammering flips.
	d2, victim2, pa2 := trrDevice(t, TRRConfig{}, ECCNone)
	doubleSided(d2, victim2, 3000)
	if got := peekByte(d2, pa2); got != 0xFF&^(1<<3) {
		t.Fatalf("control cell did not flip: %#x", got)
	}
}

// Many-sided access patterns with more rows than the tracker evict the true
// aggressors before they reach the TRR threshold, so the flip lands anyway
// (the TRRespass bypass).
func TestManySidedBypassesTRR(t *testing.T) {
	trr := TRRConfig{Enabled: true, TrackerSize: 4, Threshold: 200}
	d, victim, pa := trrDevice(t, trr, ECCNone)

	up := d.mapper.SameBankRow(victim, victim.Row-1, 0)
	down := d.mapper.SameBankRow(victim, victim.Row+1, 0)
	// 8 decoy rows, far from the victim, same bank.
	var decoys []uint64
	for i := 0; i < 8; i++ {
		decoys = append(decoys, d.mapper.SameBankRow(victim, victim.Row+50+4*i, 0))
	}
	for i := 0; i < 1100; i++ {
		d.ActivateRow(up)
		d.ActivateRow(down)
		for _, dec := range decoys {
			d.ActivateRow(dec)
		}
	}
	if got := peekByte(d, pa); got != 0xFF&^(1<<3) {
		t.Fatalf("many-sided pattern failed to flip under TRR: %#x", got)
	}
}

// ECC corrects a single observable flip on every read.
func TestECCCorrectsSingleFlip(t *testing.T) {
	d, victim, pa := trrDevice(t, TRRConfig{}, ECCSecDed)
	doubleSided(d, victim, 1200)
	// The raw array is corrupted...
	if raw := d.data.load(pa); raw != 0xFF&^(1<<3) {
		t.Fatalf("raw cell not flipped: %#x", raw)
	}
	// ...but reads with and without a row activation return corrected data.
	if got := peekByte(d, pa); got != 0xFF {
		t.Fatalf("read without activation not corrected: %#x", got)
	}
	if got := readByte(d, pa); got != 0xFF {
		t.Fatalf("read after activation not corrected: %#x", got)
	}
	// The correction sits on the read path: the array keeps the flip.
	if raw := d.data.load(pa); raw != 0xFF&^(1<<3) {
		t.Fatalf("read wrote the correction back: raw %#x", raw)
	}
}

// Two observable flips in the same 64-bit word defeat SEC-DED.
func TestECCDoubleFlipUncorrectable(t *testing.T) {
	g := Geometry{Channels: 1, DIMMs: 1, Ranks: 1, Banks: 8, Rows: 512, RowBytes: 4096}
	model := DefaultFaultModel()
	model.WeakCellDensity = 0
	model.FlipReliability = 1
	model.ECC = ECCSecDed
	d, err := NewDevice(g, model, 7)
	if err != nil {
		t.Fatal(err)
	}
	victim := Addr{Bank: 1, Row: 60, Col: 16} // word-aligned
	bg := d.mapper.BankGroup(victim)
	d.PlantWeakCell(WeakCell{Bank: bg, Row: 60, ByteInRow: 16, Bit: 1, Threshold: 800, FlipTo: 0})
	d.PlantWeakCell(WeakCell{Bank: bg, Row: 60, ByteInRow: 19, Bit: 6, Threshold: 900, FlipTo: 0})
	pa := d.mapper.ToPhys(victim)
	for off := uint64(0); off < 8; off++ {
		writeByte(d, pa+off, 0xFF)
	}
	doubleSided(d, victim, 1000)
	if got := peekByte(d, pa); got != 0xFF&^(1<<1) {
		t.Fatalf("double flip should be uncorrectable: %#x", got)
	}
	if got := peekByte(d, pa+3); got != 0xFF&^(1<<6) {
		t.Fatalf("second flip should be visible: %#x", got)
	}
	// Every byte of the word comes back raw.
	for off := uint64(0); off < 8; off++ {
		if got, raw := peekByte(d, pa+off), d.data.load(pa+off); got != raw {
			t.Fatalf("byte %d of an uncorrectable word reads %#x, raw %#x", off, got, raw)
		}
	}
}

// A flip in another byte of the word must not garble the requested byte
// while ECC considers it correctable.
func TestECCCorrectionIsByteAccurate(t *testing.T) {
	d, victim, pa := trrDevice(t, TRRConfig{}, ECCSecDed)
	doubleSided(d, victim, 1200)
	// Byte pa is flipped and corrected; byte pa+1 is clean and must stay so.
	if got := peekByte(d, pa+1); got != 0 {
		t.Fatalf("adjacent byte disturbed by correction: %#x", got)
	}
	_ = victim
}

// Rewriting a corrected cell clears the ECC bookkeeping.
func TestECCRearmOnWrite(t *testing.T) {
	d, victim, pa := trrDevice(t, TRRConfig{}, ECCSecDed)
	doubleSided(d, victim, 1200)
	writeByte(d, pa, 0xAB)
	if got := readByte(d, pa); got != 0xAB {
		t.Fatalf("write-after-flip read back %#x", got)
	}
	for _, wc := range d.WeakCellsInRange(pa, pa+1) {
		if wc.corrupted {
			t.Fatal("clean cell still marked for correction")
		}
	}
	_ = victim
}

// The TRR sampler resets at refresh, like REF-synchronised samplers.
func TestTRRTrackerResetsOnRefresh(t *testing.T) {
	trr := TRRConfig{Enabled: true, TrackerSize: 8, Threshold: 1 << 30} // never fires
	d, victim, _ := trrDevice(t, trr, ECCNone)
	doubleSided(d, victim, 10)
	bg := d.mapper.BankGroup(victim)
	if len(d.trr[bg].entries) == 0 {
		t.Fatal("tracker empty after hammering")
	}
	d.Refresh()
	if len(d.trr[bg].entries) != 0 {
		t.Fatal("tracker survived refresh")
	}
}
