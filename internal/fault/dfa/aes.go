package dfa

import (
	"bytes"
	"fmt"

	"explframe/internal/cipher/aes"
	"explframe/internal/fault"
)

// This file is the Piret–Quisquater analyzer for AES-128: a transient fault
// confined to one state byte at the input of round 9 (between the
// MixColumns of rounds 8 and 9) constrains the four last-round key bytes of
// one MixColumns column, and two well-placed faults per column pin the key.
// The equations enumerate every fault row and value, so they never consume
// the fault's position — which is why the whole single-byte ladder
// (precise-bit through a width-1 random byte) collapses onto the same
// analysis and key-space curve for AES.

// mixCoeff[r][i] is the MixColumns coefficient multiplying a fault in row r
// as it lands in row i of the column: column 'r' of the MixColumns matrix.
var mixCoeff = [4][4]byte{
	{0x02, 0x01, 0x01, 0x03},
	{0x03, 0x02, 0x01, 0x01},
	{0x01, 0x03, 0x02, 0x01},
	{0x01, 0x01, 0x03, 0x02},
}

// mixMul[c][x] is aes.GFMul(x, c) for the MixColumns coefficients c = 1, 2, 3.
var mixMul [4][256]byte

// epsRow[r] is a row whose MixColumns coefficient in column r is 1: the
// input difference there is the fault value eps itself.
var epsRow [4]int

// invSbox is a package copy of the inverse S-box.
var invSbox = aes.InvSBox()

// columnPositions[c] lists the ciphertext byte indices whose final-round
// inputs come from MixColumns column c of round 9: state indices 4c..4c+3
// routed through the last ShiftRows.
var columnPositions [4][4]int

// aesColumnSpace is the full candidate space of one unconstrained column
// quadruple: 256^4 last-round key byte combinations.
const aesColumnSpace = float64(1 << 32)

func init() {
	for c := 1; c < 4; c++ {
		for x := 0; x < 256; x++ {
			mixMul[c][x] = aes.GFMul(byte(x), byte(c))
		}
	}
	for r := 0; r < 4; r++ {
		epsRow[r] = bytes.IndexByte(mixCoeff[r][:], 1)
	}
	for c := 0; c < 4; c++ {
		for r := 0; r < 4; r++ {
			columnPositions[c][r] = aes.InvShiftRowsIndex(4*c + r)
		}
	}
}

// quad is a candidate for the 4 last-round key bytes of one column.  A
// pair admits quad k when some fault row r and post-SubBytes fault value
// eps != 0 explain every byte difference of the column:
//
//	S^-1(c_i ^ k_i) ^ S^-1(c*_i ^ k_i) == eps * mixCoeff[r][i]   (i = 0..3)
//
// where c_i, c*_i are the correct and faulty ciphertext bytes of row i.
type quad [4]byte

// rowBuckets groups the 256 guesses of one key byte by the input
// difference S^-1(c ^ k) ^ S^-1(c* ^ k) they imply — a counting sort, so
// every (r, eps) hypothesis reads its per-byte solutions without a scan.
type rowBuckets struct {
	// start[d] is where the guesses implying difference d begin in keys;
	// start[256] closes the last bucket.
	start [257]uint16
	// keys holds the 256 guesses, ascending within each bucket.
	keys [256]byte
}

// fill buckets the key guesses for one correct/faulty byte pair.
func (rb *rowBuckets) fill(c, cs byte) {
	var diff [256]byte
	var count [256]uint16
	for k := 0; k < 256; k++ {
		d := invSbox[c^byte(k)] ^ invSbox[cs^byte(k)]
		diff[k] = d
		count[d]++
	}
	var at uint16
	for d := 0; d < 256; d++ {
		rb.start[d] = at
		at += count[d]
	}
	rb.start[256] = at
	next := rb.start
	for k := 0; k < 256; k++ {
		rb.keys[next[diff[k]]] = byte(k)
		next[diff[k]]++
	}
}

// solutions lists the key guesses that imply input difference d.
func (rb *rowBuckets) solutions(d byte) []byte {
	return rb.keys[rb.start[d]:rb.start[int(d)+1]]
}

// columnQuads returns the key quadruples one pair admits for a column,
// given the column's correct and faulty ciphertext bytes in row order, in
// the deterministic (r, eps, k0..k3) order of the hypotheses.  Distinct
// (r, eps) hypotheses imply distinct difference vectors, and a quadruple
// fixes its difference vector, so no quadruple is listed twice.
func columnQuads(c, cs [4]byte) []quad {
	var rows [4]rowBuckets
	for i := range rows {
		rows[i].fill(c[i], cs[i])
	}
	total := 0
	for r := 0; r < 4; r++ {
		for e := 1; e < 256; e++ {
			_, n := hypothesis(&rows, r, byte(e))
			total += n
		}
	}
	out := make([]quad, 0, total)
	for r := 0; r < 4; r++ {
		for e := 1; e < 256; e++ {
			ks, n := hypothesis(&rows, r, byte(e))
			if n == 0 {
				continue
			}
			for _, k0 := range ks[0] {
				for _, k1 := range ks[1] {
					for _, k2 := range ks[2] {
						for _, k3 := range ks[3] {
							out = append(out, quad{k0, k1, k2, k3})
						}
					}
				}
			}
		}
	}
	return out
}

// hypothesis returns the per-row key solutions under fault row r and
// fault value e, and how many quadruples they combine into.
func hypothesis(rows *[4]rowBuckets, r int, e byte) (ks [4][]byte, n int) {
	n = 1
	for i := range rows {
		ks[i] = rows[i].solutions(mixMul[mixCoeff[r][i]][e])
		n *= len(ks[i])
	}
	return ks, n
}

// admits reports whether a column whose correct and faulty ciphertext
// bytes are c, cs admits key quadruple q: the O(1) membership test that
// filters a column's survivors, equivalent to q appearing in
// columnQuads(c, cs).
func (q quad) admits(c, cs [4]byte) bool {
	var d [4]byte
	for i := range d {
		d[i] = invSbox[c[i]^q[i]] ^ invSbox[cs[i]^q[i]]
	}
	for r := 0; r < 4; r++ {
		e := d[epsRow[r]]
		if e != 0 &&
			d[0] == mixMul[mixCoeff[r][0]][e] && d[1] == mixMul[mixCoeff[r][1]][e] &&
			d[2] == mixMul[mixCoeff[r][2]][e] && d[3] == mixMul[mixCoeff[r][3]][e] {
			return true
		}
	}
	return false
}

// aesAnalyzer is the Piret–Quisquater analyzer for "aes-128".
type aesAnalyzer struct{}

// Cipher returns the analyzed cipher's registry name.
func (aesAnalyzer) Cipher() string { return "aes-128" }

// DefaultRound is 9: the fault must land between the MixColumns of rounds
// 8 and 9 for the equations to hold.
func (aesAnalyzer) DefaultRound() int { return 9 }

// Ladder lists the supported models strongest-first.  The rungs are flat
// for AES — the analysis never uses the position, so every byte-confined
// fault yields the same key-space curve.
func (aesAnalyzer) Ladder() []fault.Model {
	return []fault.Model{
		fault.New(fault.PreciseBit),
		fault.New(fault.Nibble),
		fault.New(fault.PreciseByte),
		fault.New(fault.RandomBytes),
	}
}

// Supports accepts any fault confined to a single state byte at round 9;
// wider random faults can straddle two MixColumns columns, outside the
// single-fault equations.
func (aesAnalyzer) Supports(m fault.Model) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if m.Kind == fault.RandomBytes && m.Width > 1 {
		return fmt.Errorf("%w: a %d-byte random fault can straddle MixColumns columns; aes-128 needs a single-byte-confined fault", ErrUnsupportedModel, m.Width)
	}
	return nil
}

// Begin opens a Piret–Quisquater session: one candidate list per column,
// built from the first pair that touches the column and filtered in place
// by every later one.  Pairs whose fault landed in other columns
// contribute nothing to a column, so mixed-position pair sets work.
func (a aesAnalyzer) Begin(m fault.Model) (Session, error) {
	if err := a.Supports(m); err != nil {
		return nil, err
	}
	return &aesSession{}, nil
}

// Analyze runs a session over all the pairs.
func (a aesAnalyzer) Analyze(pairs []Pair, m fault.Model) (*Result, error) {
	return analyze(a, pairs, m)
}

// aesSession is the incremental Piret–Quisquater analysis.
type aesSession struct {
	// n counts the pairs added.
	n int
	// err is the first Add failure.
	err error
	// touched[c] reports whether some pair constrained column c; cols[c]
	// is then its surviving candidates, possibly none.
	touched [4]bool
	cols    [4][]quad
}

// Add intersects each column the pair touches with the pair's candidates.
func (s *aesSession) Add(p Pair) error {
	if s.err != nil {
		return s.err
	}
	if s.err = checkPair(s.n, p, "aes-128", aes.BlockSize); s.err != nil {
		return s.err
	}
	s.n++
	for col, pos := range columnPositions {
		var c, cs [4]byte
		for i, b := range pos {
			c[i], cs[i] = p.Correct[b], p.Faulty[b]
		}
		if c == cs {
			continue // no difference: no information about this column
		}
		if !s.touched[col] {
			s.touched[col] = true
			s.cols[col] = columnQuads(c, cs)
			continue
		}
		kept := s.cols[col][:0]
		for _, q := range s.cols[col] {
			if q.admits(c, cs) {
				kept = append(kept, q)
			}
		}
		s.cols[col] = kept
	}
	return nil
}

// Result reports the per-column candidate counts and, once every column is
// down to one quadruple, the last-round and master keys.
func (s *aesSession) Result() (*Result, error) {
	if s.err != nil {
		return nil, s.err
	}
	res := &Result{Remaining: make([]float64, 4)}
	unique := true
	for c := 0; c < 4; c++ {
		switch {
		case !s.touched[c]:
			res.Remaining[c] = aesColumnSpace // untouched column: full space
			unique = false
		case len(s.cols[c]) == 0:
			return nil, fmt.Errorf("%w: column %d", ErrNoCandidates, c)
		default:
			res.Remaining[c] = float64(len(s.cols[c]))
			if len(s.cols[c]) > 1 {
				unique = false
			}
		}
	}
	res.KeySpaceBits = spaceBits(res.Remaining)
	if !unique {
		return res, nil
	}
	var k10 [16]byte
	for c := 0; c < 4; c++ {
		for r := 0; r < 4; r++ {
			k10[columnPositions[c][r]] = s.cols[c][0][r]
		}
	}
	master := aes.RecoverMasterFromLastRound(k10)
	res.LastRoundKey = append([]byte(nil), k10[:]...)
	res.Master = append([]byte(nil), master[:]...)
	res.Unique = true
	return res, nil
}
