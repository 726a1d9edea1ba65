package dfa

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"

	"explframe/internal/cipher/lilliput"
	"explframe/internal/cipher/registry"
	"explframe/internal/fault"
)

// This file is the round-29 ladder analyzer for the LILLIPUT-style SPN,
// after "From Precise to Random: A Systematic DFA of LILLIPUT" (PAPERS.md).
//
// A transient fault delta at the entry of round 29 passes AddRoundKey
// unchanged, so the round-29 S-box sees input difference d_j at each
// faulted nibble j and emits some output difference e_j.  PLayer scatters
// the four bits of e_j into four distinct nibbles of the round-30 S-box
// input (13 is invertible mod 64), so with u = InvPLayer(ct) and k' =
// InvPLayer(K31), each affected nibble m satisfies
//
//	InvS(u_m ^ k'_m) ^ InvS(u*_m ^ k'_m) == mask_m
//
// where mask_m collects the e-bits PLayer routed into nibble m.  The
// analyzer enumerates every fault hypothesis the model leaves open —
// which nibbles were hit and with what S-output difference — requires the
// hypothesis to light exactly the observed affected set, and intersects
// the per-nibble key candidates across pairs.  More precision (a pinned
// bit, a DDT-filtered input difference, a known position) means fewer
// hypotheses, tighter candidate sets, and fewer pairs to a unique key:
// the precise-to-random ladder.
var (
	// lilInvS is a package copy of the inverse S-box.
	lilInvS = lilliput.InvSBox()
	// lilTargets[j][b] is where PLayer sends bit b of source nibble j:
	// uint64 bit 4j+b lands at lilliput.Engine.Perm[4j+b].
	lilTargets [16][4]struct{ nib, bit int }
	// lilTMask[j][e] is the set of target nibbles (as a 16-bit mask) lit by
	// source nibble j emitting S-output difference e.
	lilTMask [16][16]uint16
	// lilSpan[by] is the widest target set reachable from uint64 byte by
	// (source nibbles 2by and 2by+1) — a cheap byte-subset prefilter.
	lilSpan [8]uint16
	// lilDDT[d][e] counts S-box input/output difference transitions; a
	// precise-bit fault pins d and filters e through it.
	lilDDT [16][16]int
)

func init() {
	for j := 0; j < 16; j++ {
		for b := 0; b < 4; b++ {
			p := int(lilliput.Engine.Perm[4*j+b])
			lilTargets[j][b] = struct{ nib, bit int }{p / 4, p % 4}
		}
		for e := 0; e < 16; e++ {
			var m uint16
			for b := 0; b < 4; b++ {
				if e>>uint(b)&1 != 0 {
					m |= 1 << uint(lilTargets[j][b].nib)
				}
			}
			lilTMask[j][e] = m
		}
	}
	for by := 0; by < 8; by++ {
		lilSpan[by] = lilTMask[2*by][0xF] | lilTMask[2*by+1][0xF]
	}
	sb := lilliput.SBox()
	for x := byte(0); x < 16; x++ {
		for d := byte(0); d < 16; d++ {
			lilDDT[d][sb[x]^sb[x^d]]++
		}
	}
}

// lilliputAnalyzer is the ladder analyzer for "lilliput-80".
type lilliputAnalyzer struct{}

// Cipher returns the analyzed cipher's registry name.
func (lilliputAnalyzer) Cipher() string { return "lilliput-80" }

// DefaultRound is 29 (Rounds-1): the fault must precede exactly two S-box
// layers for the differential above to hold.
func (lilliputAnalyzer) DefaultRound() int { return lilliput.Rounds - 1 }

// Ladder lists the supported models strongest-first: the paper's
// precise-to-random descent.
func (lilliputAnalyzer) Ladder() []fault.Model {
	return []fault.Model{
		fault.New(fault.PreciseBit),
		fault.New(fault.Nibble),
		fault.New(fault.PreciseByte),
		fault.New(fault.RandomBytes),
		fault.New(fault.RandomBytes, fault.WithWidth(2)),
	}
}

// Supports accepts the whole ladder up to 2-byte random faults at round 29;
// wider faults leave too many hypotheses for the differential to bite.
func (lilliputAnalyzer) Supports(m fault.Model) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if m.Kind == fault.RandomBytes && m.Width > 2 {
		return fmt.Errorf("%w: a %d-byte random fault leaves too many round-%d hypotheses; lilliput-80 supports width <= 2", ErrUnsupportedModel, m.Width, lilliput.Rounds-1)
	}
	return nil
}

// Begin opens a session that intersects per-nibble candidate masks for
// k' = InvPLayer(K31) pair by pair.
func (a lilliputAnalyzer) Begin(m fault.Model) (Session, error) {
	if err := a.Supports(m); err != nil {
		return nil, err
	}
	s := &lilSession{m: m}
	for i := range s.sets {
		s.sets[i] = 0xFFFF
	}
	return s, nil
}

// Analyze runs a session over all the pairs.
func (a lilliputAnalyzer) Analyze(pairs []Pair, m fault.Model) (*Result, error) {
	return analyze(a, pairs, m)
}

// lilSession is the incremental round-29 ladder analysis.
type lilSession struct {
	m fault.Model
	// n counts the pairs added.
	n int
	// err is the first Add failure.
	err error
	// sets[i] is the candidate mask of k' nibble i.
	sets [16]uint16
	// first keeps the first pair's known plaintext and correct ciphertext
	// for master-key completion.
	first Pair
}

// Add folds one pair's hypotheses into the per-nibble candidate masks.
func (s *lilSession) Add(p Pair) error {
	if s.err != nil {
		return s.err
	}
	if s.err = checkPair(s.n, p, "lilliput-80", lilliput.BlockSize); s.err != nil {
		return s.err
	}
	if err := lilConstrain(&s.sets, p, s.m); err != nil {
		s.err = fmt.Errorf("pair %d: %w", s.n, err)
		return s.err
	}
	if s.n == 0 {
		s.first = Pair{Plaintext: bytes.Clone(p.Plaintext), Correct: bytes.Clone(p.Correct)}
	}
	s.n++
	return nil
}

// Result assembles K31 once every nibble is pinned and completes the
// master key from the first pair's known plaintext.  When the space is
// small but not yet a single point, it finishes by enumerating the
// remaining combinations against that plaintext — the usual DFA end-game.
func (s *lilSession) Result() (*Result, error) {
	if s.err != nil {
		return nil, s.err
	}
	res := &Result{Remaining: make([]float64, 16)}
	unique := true
	var cells [16]byte
	for i, set := range s.sets {
		n := bits.OnesCount16(set)
		res.Remaining[i] = float64(n)
		if n == 1 {
			cells[i] = byte(bits.TrailingZeros16(set))
		} else {
			unique = false
		}
	}
	res.KeySpaceBits = spaceBits(res.Remaining)
	c := registry.MustGet("lilliput-80")
	known := s.first.Plaintext != nil
	if !unique {
		// The DFA end-game: once the differential has squeezed the space
		// down to a handful of combinations, enumerate them against the
		// known plaintext instead of waiting for more faults.
		if lilCombos(&s.sets) <= lilMaxEnumerate && known {
			if master, k31 := lilEnumerate(&s.sets, c, s.first); master != nil {
				res.LastRoundKey = k31
				res.Master = master
				res.Unique = true
				for i := range res.Remaining {
					res.Remaining[i] = 1
				}
				res.KeySpaceBits = 0
			}
		}
		return res, nil
	}
	res.LastRoundKey = c.AssembleLastRoundKey(cells[:])
	res.Unique = true
	if known {
		if master, ok := c.RecoverMaster(res.LastRoundKey, s.first.Plaintext, s.first.Correct, nil); ok {
			res.Master = master
		}
	}
	return res, nil
}

// lilMaxEnumerate bounds the end-game enumeration: each candidate costs one
// RecoverMaster call, a key-sliced search over the 2^16 hidden register
// bits (1024 bitsliced passes) that every wrong candidate runs to the end.
const lilMaxEnumerate = 16

// lilCombos counts candidate combinations across nibbles, saturating just
// above the enumeration bound.
func lilCombos(sets *[16]uint16) int {
	total := 1
	for _, s := range sets {
		total *= bits.OnesCount16(s)
		if total > lilMaxEnumerate {
			return total
		}
	}
	return total
}

// lilEnumerate tests every candidate cell combination against the pair's
// known plaintext and returns the first verified master key and K31.
func lilEnumerate(sets *[16]uint16, c registry.Cipher, p Pair) (master, k31 []byte) {
	var cells [16]byte
	var rec func(i int) ([]byte, []byte)
	rec = func(i int) ([]byte, []byte) {
		if i == 16 {
			key := c.AssembleLastRoundKey(cells[:])
			if m, ok := c.RecoverMaster(key, p.Plaintext, p.Correct, nil); ok {
				return m, key
			}
			return nil, nil
		}
		for k := byte(0); k < 16; k++ {
			if sets[i]>>uint(k)&1 == 0 {
				continue
			}
			cells[i] = k
			if m, key := rec(i + 1); m != nil {
				return m, key
			}
		}
		return nil, nil
	}
	return rec(0)
}

// lilCand is the per-nibble key candidate mask: bit k is set when key
// nibble k solves InvS(u ^ k) ^ InvS(u* ^ k) == d.
func lilCand(u, us, d byte) uint16 {
	var m uint16
	for k := byte(0); k < 16; k++ {
		if lilInvS[(u^k)&0xF]^lilInvS[(us^k)&0xF] == d {
			m |= 1 << uint(k)
		}
	}
	return m
}

// lilConstrain folds one pair's constraints into the per-nibble candidate
// sets, enumerating every fault hypothesis the model leaves open.  The
// caller has checked the pair's ciphertext lengths.
func lilConstrain(sets *[16]uint16, p Pair, m fault.Model) error {
	u := lilliput.Engine.InvPLayer(binary.BigEndian.Uint64(p.Correct))
	us := lilliput.Engine.InvPLayer(binary.BigEndian.Uint64(p.Faulty))
	var un, usn [16]byte
	var affected uint16 // the observed affected nibble set D
	for i := 0; i < 16; i++ {
		un[i] = byte(u >> uint(4*i) & 0xF)
		usn[i] = byte(us >> uint(4*i) & 0xF)
		if un[i] != usn[i] {
			affected |= 1 << uint(i)
		}
	}
	if affected == 0 {
		return fmt.Errorf("%w: fault produced an identical ciphertext", ErrNoCandidates)
	}
	// Candidate masks per (affected nibble, input difference), shared by
	// every hypothesis.
	var candTab [16][16]uint16
	for i := 0; i < 16; i++ {
		if affected>>uint(i)&1 == 0 {
			continue
		}
		for d := 1; d < 16; d++ {
			candTab[i][d] = lilCand(un[i], usn[i], byte(d))
		}
	}
	// Union per-nibble candidates over hypotheses that (a) light exactly
	// the affected set and (b) admit a key for every affected nibble.
	var got [16]uint16
	any := false
	emit := func(assigns [][2]byte) {
		var nibMask [16]byte
		var cover uint16
		for _, as := range assigns {
			j, e := int(as[0]), as[1]
			cover |= lilTMask[j][e]
			for b := 0; b < 4; b++ {
				if e>>uint(b)&1 != 0 {
					t := lilTargets[j][b]
					nibMask[t.nib] |= 1 << uint(t.bit)
				}
			}
		}
		if cover != affected {
			return
		}
		var cand [16]uint16
		for i := 0; i < 16; i++ {
			if affected>>uint(i)&1 == 0 {
				continue
			}
			cand[i] = candTab[i][nibMask[i]]
			if cand[i] == 0 {
				return // hypothesis admits no key at nibble i: impossible
			}
		}
		any = true
		for i := 0; i < 16; i++ {
			got[i] |= cand[i]
		}
	}
	// enumBytes enumerates per-byte S-output difference assignments for a
	// chosen set of uint64 byte indices, every chosen byte faulted
	// (non-zero) and no difference lighting a nibble outside the affected
	// set.
	enumBytes := func(byteSet []int) {
		assigns := make([][2]byte, 0, 2*len(byteSet))
		var rec func(i int)
		rec = func(i int) {
			if i == len(byteSet) {
				emit(assigns)
				return
			}
			j0 := byte(2 * byteSet[i])
			j1 := j0 + 1
			for e0 := byte(0); e0 < 16; e0++ {
				if e0 != 0 && lilTMask[j0][e0]&^affected != 0 {
					continue
				}
				for e1 := byte(0); e1 < 16; e1++ {
					if e0|e1 == 0 {
						continue
					}
					if e1 != 0 && lilTMask[j1][e1]&^affected != 0 {
						continue
					}
					n := len(assigns)
					if e0 != 0 {
						assigns = append(assigns, [2]byte{j0, e0})
					}
					if e1 != 0 {
						assigns = append(assigns, [2]byte{j1, e1})
					}
					rec(i + 1)
					assigns = assigns[:n]
				}
			}
		}
		rec(0)
	}
	switch m.Kind {
	case fault.PreciseBit:
		// Byte-form bit p is uint64 bit 63-p; the input difference at the
		// source nibble is pinned, so the DDT filters the output difference.
		if p.Position < 0 || p.Position >= 8*lilliput.BlockSize {
			return fmt.Errorf("dfa: pair fault bit position %d out of range", p.Position)
		}
		bit := 63 - p.Position
		j, b := bit/4, bit%4
		d := byte(1) << uint(b)
		for e := byte(1); e < 16; e++ {
			if lilDDT[d][e] == 0 {
				continue
			}
			emit([][2]byte{{byte(j), e}})
		}
	case fault.Nibble:
		// Byte-form nibble i is uint64 nibble 15-i; the input difference is
		// unknown, so every non-zero output difference is a hypothesis.
		if p.Position < 0 || p.Position >= 2*lilliput.BlockSize {
			return fmt.Errorf("dfa: pair fault nibble position %d out of range", p.Position)
		}
		j := byte(15 - p.Position)
		for e := byte(1); e < 16; e++ {
			emit([][2]byte{{j, e}})
		}
	case fault.PreciseByte:
		// Byte-form byte B is uint64 byte 7-B; either or both of its
		// nibbles may carry a difference.
		if p.Position < 0 || p.Position >= lilliput.BlockSize {
			return fmt.Errorf("dfa: pair fault byte position %d out of range", p.Position)
		}
		enumBytes([]int{7 - p.Position})
	case fault.RandomBytes:
		// Position unknown: enumerate every Width-subset of bytes whose
		// reachable targets span the affected set.
		width := m.Width
		chosen := make([]int, 0, width)
		var choose func(start, left int)
		choose = func(start, left int) {
			if left == 0 {
				span := uint16(0)
				for _, by := range chosen {
					span |= lilSpan[by]
				}
				if affected&^span != 0 {
					return
				}
				enumBytes(chosen)
				return
			}
			for by := start; by <= 8-left; by++ {
				chosen = append(chosen, by)
				choose(by+1, left-1)
				chosen = chosen[:len(chosen)-1]
			}
		}
		choose(0, width)
	default:
		return fmt.Errorf("%w: kind %q", ErrUnsupportedModel, m.Kind)
	}
	if !any {
		return fmt.Errorf("%w: no fault hypothesis explains the affected nibbles", ErrNoCandidates)
	}
	for i := 0; i < 16; i++ {
		if affected>>uint(i)&1 == 0 {
			continue
		}
		sets[i] &= got[i]
		if sets[i] == 0 {
			return fmt.Errorf("%w: nibble %d", ErrNoCandidates, i)
		}
	}
	return nil
}
