package dfa

import (
	"fmt"

	"explframe/internal/cipher/aes"
	"explframe/internal/fault"
)

// This file keeps the original map-based Piret–Quisquater analysis, which
// rebuilt every pair's candidate set and intersected the sets from scratch
// on each call, as the reference the incremental AES session is held to.

// columnCandidates computes the set of key quadruples for column c
// consistent with one pair: there must exist a fault row r and a
// post-SubBytes fault value eps such that every byte difference matches the
// MixColumns pattern.  It returns nil when the pair shows no difference in
// the column.
func columnCandidates(p Pair, c int) map[quad]bool {
	pos := columnPositions[c]
	diff := false
	for _, i := range pos {
		if p.Correct[i] != p.Faulty[i] {
			diff = true
			break
		}
	}
	if !diff {
		return nil
	}
	out := make(map[quad]bool)
	for r := 0; r < 4; r++ {
		for eps := 1; eps < 256; eps++ {
			var want [4]byte
			for i := 0; i < 4; i++ {
				want[i] = aes.GFMul(byte(eps), mixCoeff[r][i])
			}
			// Per-byte key candidates solving
			//   S^-1(c ^ k) ^ S^-1(c* ^ k) == want[row].
			var perByte [4][]byte
			ok := true
			for row := 0; row < 4; row++ {
				i := pos[row]
				a, b := p.Correct[i], p.Faulty[i]
				var ks []byte
				for k := 0; k < 256; k++ {
					if invSbox[a^byte(k)]^invSbox[b^byte(k)] == want[row] {
						ks = append(ks, byte(k))
					}
				}
				if len(ks) == 0 {
					ok = false
					break
				}
				perByte[row] = ks
			}
			if !ok {
				continue
			}
			for _, k0 := range perByte[0] {
				for _, k1 := range perByte[1] {
					for _, k2 := range perByte[2] {
						for _, k3 := range perByte[3] {
							out[quad{k0, k1, k2, k3}] = true
						}
					}
				}
			}
		}
	}
	return out
}

// aesOracle is the original AES Analyze: per-column candidate maps
// intersected over all the pairs.
func aesOracle(pairs []Pair, m fault.Model) (*Result, error) {
	if err := (aesAnalyzer{}).Supports(m); err != nil {
		return nil, err
	}
	var sets [4]map[quad]bool
	for pi, p := range pairs {
		if err := checkPair(pi, p, "aes-128", aes.BlockSize); err != nil {
			return nil, err
		}
		for c := 0; c < 4; c++ {
			cand := columnCandidates(p, c)
			if cand == nil {
				continue
			}
			if sets[c] == nil {
				sets[c] = cand
				continue
			}
			for q := range sets[c] {
				if !cand[q] {
					delete(sets[c], q)
				}
			}
		}
	}
	res := &Result{Remaining: make([]float64, 4)}
	unique := true
	for c := 0; c < 4; c++ {
		switch {
		case sets[c] == nil:
			res.Remaining[c] = aesColumnSpace
			unique = false
		case len(sets[c]) == 0:
			return nil, fmt.Errorf("%w: column %d", ErrNoCandidates, c)
		default:
			res.Remaining[c] = float64(len(sets[c]))
			if len(sets[c]) > 1 {
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
		for q := range sets[c] {
			for r := 0; r < 4; r++ {
				k10[columnPositions[c][r]] = q[r]
			}
		}
	}
	master := aes.RecoverMasterFromLastRound(k10)
	res.LastRoundKey = append([]byte(nil), k10[:]...)
	res.Master = append([]byte(nil), master[:]...)
	res.Unique = true
	return res, nil
}

// oracle is the from-scratch reference analysis of a pair prefix: the
// map-based intersection above for AES, and a fresh Analyze for LILLIPUT,
// whose per-pair constraint code has a single implementation.
func oracle(cipher string, pairs []Pair, m fault.Model) (*Result, error) {
	if cipher == "aes-128" {
		return aesOracle(pairs, m)
	}
	return MustGet(cipher).Analyze(pairs, m)
}
