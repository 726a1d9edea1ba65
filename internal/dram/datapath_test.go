package dram

import (
	"bytes"
	"testing"
)

// The device's data surface is ranges only (ReadRangeNoActivate,
// WriteRangeNoActivate, ZeroNoActivate), with timing modelled separately by
// ActivateRow.  The helpers below give tests byte access over that
// surface: readByte and writeByte open the row first, as a CPU access that
// misses the cache does; peekByte and pokeByte bypass the activation model.

func readByte(d *Device, pa uint64) byte {
	d.ActivateRow(pa)
	return peekByte(d, pa)
}

func writeByte(d *Device, pa uint64, v byte) {
	d.ActivateRow(pa)
	pokeByte(d, pa, v)
}

func peekByte(d *Device, pa uint64) byte {
	var b [1]byte
	d.ReadRangeNoActivate(pa, b[:])
	return b[0]
}

func pokeByte(d *Device, pa uint64, v byte) {
	d.WriteRangeNoActivate(pa, []byte{v})
}

// eccOracle is an independent per-byte model of the read datapath: the
// byte a read of pa must return and how SEC-DED treats its word.  With
// SEC-DED it scans the aligned 64-bit word holding pa for corrupted cells:
// exactly one is corrected (its bit restored when it sits in pa's byte)
// and reports corrected; two or more leave the raw byte and report
// uncorrectable.  It reads device state without changing it.
func eccOracle(d *Device, pa uint64) (v byte, corrected, uncorrectable uint64) {
	v = d.data.load(pa)
	if d.model.ECC != ECCSecDed {
		return v, 0, 0
	}
	wordBase := pa &^ 7
	a := d.mapper.ToDRAM(wordBase)
	var flips []*WeakCell
	cells := d.cellsAt(d.rowIndex(d.mapper.BankGroup(a), a.Row))
	for i := range cells {
		wc := &cells[i]
		if wc.corrupted && wc.ByteInRow >= a.Col && wc.ByteInRow < a.Col+8 {
			flips = append(flips, wc)
		}
	}
	switch len(flips) {
	case 0:
		return v, 0, 0
	case 1:
		if uint64(flips[0].ByteInRow-a.Col) == pa-wordBase {
			v ^= 1 << flips[0].Bit
		}
		return v, 1, 0
	default:
		return v, 0, 1
	}
}

// oracleRead reads [pa, pa+len(out)) into out with ReadRangeNoActivate and
// fails t unless every byte equals eccOracle applied byte by byte.  It
// returns how many bytes the oracle found in a corrected word and in an
// uncorrectable one.
func oracleRead(t testing.TB, d *Device, pa uint64, out []byte) (corrected, uncorrectable uint64) {
	t.Helper()
	want := make([]byte, len(out))
	for i := range want {
		v, c, u := eccOracle(d, pa+uint64(i))
		want[i] = v
		corrected += c
		uncorrectable += u
	}
	d.ReadRangeNoActivate(pa, out)
	if !bytes.Equal(out, want) {
		i := 0
		for out[i] == want[i] {
			i++
		}
		t.Fatalf("range [%d,%d): byte %d reads %#x, oracle %#x", pa, pa+uint64(len(out)), pa+uint64(i), out[i], want[i])
	}
	return corrected, uncorrectable
}

// FuzzDeviceDatapath runs the randomised datapath workload of
// TestSparseDenseObservationalEquivalence over fuzzed seeds with ECC and
// TRR each on or off, on a reduced geometry.  Every read must agree with
// eccOracle, and a sparse and a fully materialised device must stay
// observationally identical.
func FuzzDeviceDatapath(f *testing.F) {
	f.Add(uint64(1), false, false)
	f.Add(uint64(2), true, false)
	f.Add(uint64(3), false, true)
	f.Add(uint64(4), true, true)
	g := Geometry{Channels: 1, DIMMs: 1, Ranks: 1, Banks: 2, Rows: 256, RowBytes: 2048}
	f.Fuzz(func(t *testing.T, seed uint64, ecc, trr bool) {
		model := DefaultFaultModel()
		model.WeakCellDensity = 1e-4
		model.FlipReliability = 1
		if ecc {
			model.ECC = ECCSecDed
		}
		if trr {
			model.TRR = TRRConfig{Enabled: true, TrackerSize: 2, Threshold: 150}
		}
		checkSparseDense(t, g, model, seed, 300)
	})
}
