package dram

import (
	"bytes"
	"runtime"
	"testing"

	"explframe/internal/stats"
)

// --- store unit tests ------------------------------------------------------

func TestStoreBasics(t *testing.T) {
	s := newStore(3*storeChunkBytes + 100) // deliberately ragged tail
	if got := s.materializedBytes(); got != 0 {
		t.Fatalf("fresh store materialised %d bytes", got)
	}
	// Reads of untouched memory return zero and materialise nothing.
	if v := s.load(storeChunkBytes + 5); v != 0 {
		t.Fatalf("untouched load = %#x", v)
	}
	buf := []byte{0xDE, 0xAD}
	s.read(2*storeChunkBytes-1, buf)
	if buf[0] != 0 || buf[1] != 0 {
		t.Fatalf("untouched read did not zero the buffer: %v", buf)
	}
	// Zero writes over untouched memory are elided...
	s.write(0, []byte{0})
	s.write(storeChunkBytes, make([]byte, 300))
	s.zero(2*storeChunkBytes, 400)
	if got := s.materializedBytes(); got != 0 {
		t.Fatalf("zero writes materialised %d bytes", got)
	}
	// ...while distinguishing writes materialise exactly one chunk.
	s.write(storeChunkBytes+7, []byte{0x5A})
	if got := s.materializedBytes(); got != storeChunkBytes {
		t.Fatalf("materialised %d bytes, want one chunk (%d)", got, storeChunkBytes)
	}
	if v := s.load(storeChunkBytes + 7); v != 0x5A {
		t.Fatalf("read-back %#x", v)
	}
	// The tail chunk is sized to the store, not the chunk granule.
	s.write(3*storeChunkBytes+99, []byte{1})
	if got := s.materializedBytes(); got != storeChunkBytes+100 {
		t.Fatalf("tail chunk: materialised %d bytes, want %d", got, storeChunkBytes+100)
	}
	if v := s.load(3*storeChunkBytes + 99); v != 1 {
		t.Fatalf("tail read-back %#x", v)
	}
}

func TestStoreCrossChunkRanges(t *testing.T) {
	const size = 4 * storeChunkBytes
	s := newStore(size)
	dense := make([]byte, size)
	rng := stats.NewRNG(11)

	// Random writes/zero fills mirrored into a plain array, then random reads
	// compared — ranges chosen to straddle chunk boundaries often.
	for i := 0; i < 500; i++ {
		pa := uint64(rng.Intn(size - 1))
		n := uint64(rng.Intn(3*storeChunkBytes)) + 1
		if pa+n > size {
			n = size - pa
		}
		switch rng.Intn(3) {
		case 0:
			data := make([]byte, n)
			rng.Bytes(data)
			if rng.Intn(4) == 0 { // exercise the all-zero elision path too
				for j := range data {
					data[j] = 0
				}
			}
			s.write(pa, data)
			copy(dense[pa:], data)
		case 1:
			s.zero(pa, n)
			clear(dense[pa : pa+n])
		case 2:
			got := make([]byte, n)
			rng.Bytes(got) // dirty the buffer: read must fully overwrite
			s.read(pa, got)
			if !bytes.Equal(got, dense[pa:pa+n]) {
				t.Fatalf("iteration %d: read mismatch at %d+%d", i, pa, n)
			}
		}
	}
	for pa := uint64(0); pa < size; pa++ {
		if s.load(pa) != dense[pa] {
			t.Fatalf("final sweep: byte %d is %#x, want %#x", pa, s.load(pa), dense[pa])
		}
	}
}

// --- sparse vs dense observational equivalence -----------------------------

// equivalenceWorkload drives one device through ops randomised datapath
// operations — one-byte reads and writes with and without ActivateRow,
// range reads, writes and zero fills, hammering and refreshes — and returns a
// digest of every observable output (read values, stats, weak cells, flip
// log).  Every read is checked against eccOracle on the way.
func equivalenceWorkload(t testing.TB, d *Device, seed uint64, ops int) []byte {
	t.Helper()
	rng := stats.NewRNG(seed)
	size := int(d.Size())
	d.EnableFlipLog()
	var log bytes.Buffer

	// A hammer target with its aggressor rows, derived from two planted
	// weak cells in one 64-bit word so flips actually occur during the
	// workload: one hammer burst flips the true cell alone (a correctable
	// word), two in one refresh window flip the anti cell too when its bit
	// holds 0 (an uncorrectable word).
	victim := Addr{Bank: 1, Row: 200, Col: 50}
	bg := d.mapper.BankGroup(victim)
	d.PlantWeakCell(WeakCell{Bank: bg, Row: 200, ByteInRow: 50, Bit: 2, Threshold: 600, FlipTo: 0})
	d.PlantWeakCell(WeakCell{Bank: bg, Row: 200, ByteInRow: 53, Bit: 6, Threshold: 900, FlipTo: 1})
	victimPA := d.mapper.ToPhys(victim)
	writeByte(d, victimPA, 0xFF)
	up := d.mapper.SameBankRow(victim, victim.Row-1, 0)
	down := d.mapper.SameBankRow(victim, victim.Row+1, 0)

	var one [1]byte
	for i := 0; i < ops; i++ {
		pa := uint64(rng.Intn(size))
		switch rng.Intn(4) {
		case 0:
			// The victim's word and its neighbours: reads meet corrected
			// and uncorrectable words, writes re-arm the planted cells.
			pa = victimPA&^7 - 8 + uint64(rng.Intn(24))
		case 1:
			// The rest of the hammered neighbourhood.
			row := victim.Row - 2 + rng.Intn(5)
			pa = d.mapper.SameBankRow(victim, row, rng.Intn(d.geom.RowBytes))
		}
		switch rng.Intn(9) {
		case 0:
			d.ActivateRow(pa)
			oracleRead(t, d, pa, one[:])
			log.WriteByte(one[0])
		case 1:
			writeByte(d, pa, byte(rng.Intn(256)))
		case 2:
			oracleRead(t, d, pa, one[:])
			log.WriteByte(one[0])
		case 3:
			pokeByte(d, pa, byte(rng.Intn(256)))
		case 4:
			n := rng.Intn(9000) + 1
			if int(pa)+n > size {
				n = size - int(pa)
			}
			buf := make([]byte, n)
			rng.Bytes(buf) // read must overwrite stale contents
			oracleRead(t, d, pa, buf)
			log.Write(buf)
		case 5:
			n := rng.Intn(5000) + 1
			if int(pa)+n > size {
				n = size - int(pa)
			}
			buf := make([]byte, n)
			if rng.Intn(2) == 0 {
				rng.Bytes(buf)
			}
			d.WriteRangeNoActivate(pa, buf)
		case 6:
			n := uint64(rng.Intn(5000) + 1)
			if pa+n > uint64(size) {
				n = uint64(size) - pa
			}
			d.ZeroNoActivate(pa, n)
		case 7:
			for k := 0; k < 300; k++ {
				d.ActivateRow(up)
				d.ActivateRow(down)
			}
		case 8:
			d.Refresh()
		}
	}

	st := d.Stats()
	for _, v := range []uint64{st.Activations, st.BitFlips} {
		for s := 0; s < 64; s += 8 {
			log.WriteByte(byte(v >> s))
		}
	}
	for _, f := range d.DrainFlipLog() {
		log.WriteByte(byte(f.Phys))
		log.WriteByte(byte(f.Phys >> 8))
		log.WriteByte(f.Bit)
		log.WriteByte(f.From)
	}
	for _, wc := range d.WeakCellsInRange(0, d.Size()) {
		log.WriteByte(byte(wc.Row))
		log.WriteByte(byte(wc.ByteInRow))
		log.WriteByte(wc.Bit)
	}
	// Full-memory dump: the two devices must agree byte for byte.
	dump := make([]byte, 4096)
	for pa := uint64(0); pa < uint64(size); pa += uint64(len(dump)) {
		d.ReadRangeNoActivate(pa, dump)
		log.Write(dump)
	}
	return log.Bytes()
}

// checkSparseDense runs equivalenceWorkload on a sparse device and on a
// fully materialised (dense) one built from the same seed, and fails t
// unless the two digests are identical.
func checkSparseDense(t testing.TB, g Geometry, model FaultModel, seed uint64, ops int) {
	t.Helper()
	build := func(materialize bool) *Device {
		d, err := NewDevice(g, model, seed)
		if err != nil {
			t.Fatal(err)
		}
		if materialize {
			d.data.materializeAll()
			if got, want := d.MaterializedBytes(), d.Size(); got != want {
				t.Fatalf("materializeAll left %d of %d bytes unbacked", got, want)
			}
		}
		return d
	}
	sparse := equivalenceWorkload(t, build(false), seed, ops)
	dense := equivalenceWorkload(t, build(true), seed, ops)
	if !bytes.Equal(sparse, dense) {
		i := 0
		for i < len(sparse) && i < len(dense) && sparse[i] == dense[i] {
			i++
		}
		t.Fatalf("sparse and dense devices diverge (first difference at digest byte %d of %d/%d)",
			i, len(sparse), len(dense))
	}
}

// A sparse device and a fully materialised (dense) device must be
// observationally identical under an arbitrary workload: every read value,
// every counter, every flip.  Run with and without mitigations so the ECC
// path is covered too.
func TestSparseDenseObservationalEquivalence(t *testing.T) {
	g := Geometry{Channels: 1, DIMMs: 1, Ranks: 1, Banks: 4, Rows: 512, RowBytes: 4096}
	cases := []struct {
		name string
		mut  func(*FaultModel)
	}{
		{"plain", func(*FaultModel) {}},
		{"ecc", func(m *FaultModel) { m.ECC = ECCSecDed }},
		{"trr", func(m *FaultModel) { m.TRR = TRRConfig{Enabled: true, TrackerSize: 2, Threshold: 150} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			model := DefaultFaultModel()
			model.WeakCellDensity = 1e-4
			model.FlipReliability = 1 // keep the device RNG stream workload-independent
			tc.mut(&model)
			checkSparseDense(t, g, model, 42, 2000)
		})
	}
}

// Range reads (ReadRangeNoActivate + eccCorrectRange) must agree with the
// per-byte SEC-DED oracle on random ranges over correctable and
// uncorrectable words: a one-cell word reads back corrected, a multi-cell
// word raw.
func TestReadRangeMatchesPerByte(t *testing.T) {
	g := Geometry{Channels: 1, DIMMs: 1, Ranks: 1, Banks: 4, Rows: 512, RowBytes: 4096}
	model := DefaultFaultModel()
	model.WeakCellDensity = 0
	model.FlipReliability = 1
	model.ECC = ECCSecDed
	d, err := NewDevice(g, model, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Two corrupted cells: one alone in its word (correctable), two sharing
	// a word elsewhere (uncorrectable).
	plant := func(a Addr, bit uint8, thr int) {
		d.PlantWeakCell(WeakCell{Bank: d.mapper.BankGroup(a), Row: a.Row, ByteInRow: a.Col, Bit: bit, Threshold: thr, FlipTo: 0})
		writeByte(d, d.mapper.ToPhys(a), 0xFF)
	}
	plant(Addr{Bank: 0, Row: 100, Col: 64}, 3, 500)
	plant(Addr{Bank: 0, Row: 100, Col: 130}, 1, 500)
	plant(Addr{Bank: 0, Row: 100, Col: 133}, 6, 550)
	for i := 0; i < 700; i++ {
		d.ActivateRow(d.mapper.ToPhys(Addr{Bank: 0, Row: 99, Col: 0}))
		d.ActivateRow(d.mapper.ToPhys(Addr{Bank: 0, Row: 101, Col: 0}))
	}
	if d.Stats().BitFlips < 3 {
		t.Fatalf("setup did not flip all cells: %+v", d.Stats())
	}

	rowPA := d.mapper.ToPhys(Addr{Bank: 0, Row: 100, Col: 0})
	rng := stats.NewRNG(3)
	size := int(d.Size())
	var corrected, uncorrectable uint64
	for i := 0; i < 400; i++ {
		pa := uint64(rng.Intn(size))
		if i%2 == 0 {
			// Half the ranges start near the flipped words so both
			// outcomes are exercised, not just clean memory.
			pa = rowPA + uint64(rng.Intn(256))
		}
		n := rng.Intn(2*d.geom.RowBytes) + 1
		if i%4 == 0 {
			n = rng.Intn(16) + 1
		}
		if int(pa)+n > size {
			n = size - int(pa)
		}
		buf := make([]byte, n)
		rng.Bytes(buf)
		c, u := oracleRead(t, d, pa, buf)
		corrected += c
		uncorrectable += u
	}
	if corrected == 0 || uncorrectable == 0 {
		t.Fatalf("ranges never covered both a correctable and an uncorrectable word: %d and %d bytes", corrected, uncorrectable)
	}
}

// Constructing a device for a multi-GiB machine must not materialise the
// module: an 8 GiB geometry with the default weak-cell population and no
// writes may grow the heap by less than 64 MiB.
func TestLargeDeviceConstructionIsSparse(t *testing.T) {
	g := Geometry{Channels: 1, DIMMs: 1, Ranks: 1, Banks: 16, Rows: 1 << 16, RowBytes: 8192}
	if got := g.TotalBytes(); got != 8<<30 {
		t.Fatalf("geometry is %d bytes, want 8 GiB", got)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, err := NewDevice(g, DefaultFaultModel(), 1)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	grew := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(64 << 20); grew >= limit {
		t.Errorf("NewDevice for 8 GiB allocated %d MiB; want < %d MiB", grew>>20, limit>>20)
	}
	if got := d.MaterializedBytes(); got != 0 {
		t.Errorf("untouched device materialised %d bytes of backing store", got)
	}
	// Sanity: the device still behaves like memory.
	pa := d.Size() - 1
	if v := peekByte(d, pa); v != 0 {
		t.Errorf("untouched byte reads %#x, want 0", v)
	}
	pokeByte(d, pa, 0xA5)
	if v := peekByte(d, pa); v != 0xA5 {
		t.Errorf("read-back %#x, want 0xA5", v)
	}
}
