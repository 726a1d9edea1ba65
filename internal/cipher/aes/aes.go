// Package aes implements AES-128 from first principles with an
// explicitly faultable SubBytes table.
//
// The ExplFrame victim keeps its S-box in ordinary memory; a Rowhammer bit
// flip in that page turns every subsequent encryption into a persistently
// faulty one (Zhang et al., TCHES 2018 — the paper's reference [12]).  To
// model that, EncryptBlock takes the S-box as an argument: the victim
// re-reads the table from its (simulated) memory for each encryption, so a
// flipped table byte corrupts all later ciphertexts without touching the
// implementation.
//
// The byte-oriented implementation follows FIPS-197 directly; it favours
// auditability over speed, which is the right trade for a fault-analysis
// testbed (the fault maths reference individual S-box lookups).
package aes

import (
	"errors"
	"fmt"
)

// BlockSize is the AES block size in bytes.
const BlockSize = 16

// sbox and invSbox are generated in init from the GF(2^8) inverse and the
// affine transform, then spot-checked; generating rather than transcribing
// removes a whole class of table typos.
var (
	sbox    [256]byte
	invSbox [256]byte
)

// gfMul multiplies two elements of GF(2^8) modulo the AES polynomial x^8 +
// x^4 + x^3 + x + 1.
func gfMul(a, b byte) byte {
	var p byte
	for i := 0; i < 8; i++ {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1b
		}
		b >>= 1
	}
	return p
}

// gfInv returns the multiplicative inverse in GF(2^8), with gfInv(0) = 0.
func gfInv(a byte) byte {
	if a == 0 {
		return 0
	}
	// Brute force is fine at init time and obviously correct.
	for x := 1; x < 256; x++ {
		if gfMul(a, byte(x)) == 1 {
			return byte(x)
		}
	}
	panic("aes: GF(2^8) element without inverse")
}

func init() {
	for i := 0; i < 256; i++ {
		inv := gfInv(byte(i))
		// Affine transform: b ^ rot1(b) ^ rot2(b) ^ rot3(b) ^ rot4(b) ^ 0x63.
		b := inv
		x := inv
		for r := 0; r < 4; r++ {
			x = x<<1 | x>>7
			b ^= x
		}
		b ^= 0x63
		sbox[i] = b
		invSbox[b] = byte(i)
	}
	if sbox[0x00] != 0x63 || sbox[0x53] != 0xed || invSbox[0x63] != 0x00 {
		panic("aes: S-box generation failed self-check")
	}
}

// SBox returns a fresh copy of the canonical S-box; callers that want a
// faultable table place this copy in simulated memory and corrupt it there.
func SBox() [256]byte { return sbox }

// InvSBox returns a fresh copy of the inverse S-box.
func InvSBox() [256]byte { return invSbox }

// rounds is the AES-128 round count.
const rounds = 10

// Schedule holds expanded round keys, one 16-byte round key per round.
type Schedule struct {
	rk [rounds + 1][16]byte
}

// RoundKey returns a copy of round key r (0 = whitening key).
//
//doclint:keep pfa and dfa tests check a recovered last-round key against the schedule's
func (s *Schedule) RoundKey(r int) [16]byte { return s.rk[r] }

// ErrKeySize reports an unsupported key length.
var ErrKeySize = errors.New("aes: key must be 16 bytes")

// rcon are the round constants for key expansion.
var rcon = [...]byte{0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36}

// Expand performs the FIPS-197 AES-128 key expansion using the canonical
// S-box.  Fault analyses assume the schedule was computed before the fault
// landed (round keys live in registers/cache once derived), so expansion
// never uses a faultable table.
func Expand(key []byte) (*Schedule, error) {
	if len(key) != 16 {
		return nil, fmt.Errorf("%w: got %d", ErrKeySize, len(key))
	}
	var w [4 * (rounds + 1)][4]byte
	for i := 0; i < 4; i++ {
		copy(w[i][:], key[4*i:4*i+4])
	}
	for i := 4; i < len(w); i++ {
		t := w[i-1]
		if i%4 == 0 {
			// RotWord + SubWord + Rcon.
			t = [4]byte{sbox[t[1]], sbox[t[2]], sbox[t[3]], sbox[t[0]]}
			t[0] ^= rcon[i/4-1]
		}
		for j := 0; j < 4; j++ {
			w[i][j] = w[i-4][j] ^ t[j]
		}
	}
	s := &Schedule{}
	for r := 0; r <= rounds; r++ {
		for c := 0; c < 4; c++ {
			copy(s.rk[r][4*c:4*c+4], w[4*r+c][:])
		}
	}
	return s, nil
}

// shift is the ShiftRows source table for a column-major state (index =
// 4*col + row, as in FIPS-197): output byte i comes from input byte
// shift[i], i.e. out[4c+r] = in[4((c+r)%4)+r].
var shift = [16]int{0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11}

// invShift is the InvShiftRows source table: out[4c+r] = in[4((c-r)%4)+r].
var invShift = [16]int{0, 13, 10, 7, 4, 1, 14, 11, 8, 5, 2, 15, 12, 9, 6, 3}

// xtime multiplies by x in GF(2^8).
func xtime(b byte) byte {
	if b&0x80 != 0 {
		return b<<1 ^ 0x1b
	}
	return b << 1
}

// mixColumn transforms one 4-byte column in place.
func mixColumn(c []byte) {
	a0, a1, a2, a3 := c[0], c[1], c[2], c[3]
	c[0] = xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3
	c[1] = a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3
	c[2] = a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3)
	c[3] = (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3)
}

// invMixColumn inverts mixColumn.
func invMixColumn(c []byte) {
	a0, a1, a2, a3 := c[0], c[1], c[2], c[3]
	c[0] = gfMul(a0, 0x0e) ^ gfMul(a1, 0x0b) ^ gfMul(a2, 0x0d) ^ gfMul(a3, 0x09)
	c[1] = gfMul(a0, 0x09) ^ gfMul(a1, 0x0e) ^ gfMul(a2, 0x0b) ^ gfMul(a3, 0x0d)
	c[2] = gfMul(a0, 0x0d) ^ gfMul(a1, 0x09) ^ gfMul(a2, 0x0e) ^ gfMul(a3, 0x0b)
	c[3] = gfMul(a0, 0x0b) ^ gfMul(a1, 0x0d) ^ gfMul(a2, 0x09) ^ gfMul(a3, 0x0e)
}

// EncryptBlock encrypts one 16-byte block with the given schedule and S-box
// table.  dst and src may overlap.  It panics if dst or src are short, like
// crypto/cipher.Block implementations.
func EncryptBlock(ks *Schedule, sb *[256]byte, dst, src []byte) {
	encryptBlock(ks, sb, dst, src, 0, nil)
}

// subShift applies SubBytes then ShiftRows in one pass.
func subShift(st *[16]byte, sb *[256]byte) {
	var out [16]byte
	for i := 0; i < 16; i++ {
		out[i] = sb[st[shift[i]]]
	}
	*st = out
}

func addRoundKey(st *[16]byte, rk *[16]byte) {
	for i := range st {
		st[i] ^= rk[i]
	}
}

// DecryptBlock decrypts one block using the inverse S-box table.
func DecryptBlock(ks *Schedule, isb *[256]byte, dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: short block")
	}
	var st [16]byte
	copy(st[:], src[:16])
	addRoundKey(&st, &ks.rk[rounds])
	for r := rounds - 1; r >= 1; r-- {
		invShiftSub(&st, isb)
		addRoundKey(&st, &ks.rk[r])
		for c := 0; c < 4; c++ {
			invMixColumn(st[4*c : 4*c+4])
		}
	}
	invShiftSub(&st, isb)
	addRoundKey(&st, &ks.rk[0])
	copy(dst[:16], st[:])
}

// invShiftSub applies InvShiftRows then InvSubBytes.
func invShiftSub(st *[16]byte, isb *[256]byte) {
	var out [16]byte
	for i := 0; i < 16; i++ {
		out[i] = isb[st[invShift[i]]]
	}
	*st = out
}

// InvShiftRowsIndex returns the ciphertext byte position that the state
// byte at index s (entering the final-round SubBytes) ends up in.  It is
// the inverse of the final-round ShiftRows and is used by differential
// fault analysis to group ciphertext bytes by MixColumns column.
func InvShiftRowsIndex(s int) int { return invShift[s] }

// EncryptBlockWithFault encrypts like EncryptBlock but XORs the 16-byte
// mask into the state at the entry of the given round (1-based; round r
// means after round r-1's AddRoundKey, before round r's SubBytes).  This is
// the transient fault model classical DFA assumes — any single-byte mask at
// round 9 is the Piret–Quisquater setting; contrast with the persistent
// table fault the ExplFrame attack produces.
func EncryptBlockWithFault(ks *Schedule, sb *[256]byte, dst, src []byte, round int, mask *[16]byte) {
	if round < 1 || round > rounds {
		panic("aes: fault round out of range")
	}
	encryptBlock(ks, sb, dst, src, round, mask)
}

// encryptBlock is the scalar round loop; faultRound 0 means no transient
// fault.
func encryptBlock(ks *Schedule, sb *[256]byte, dst, src []byte, faultRound int, mask *[16]byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: short block")
	}
	var st [16]byte
	copy(st[:], src[:16])
	addRoundKey(&st, &ks.rk[0])
	for r := 1; r <= rounds; r++ {
		if r == faultRound {
			addRoundKey(&st, mask)
		}
		subShift(&st, sb)
		if r < rounds {
			for c := 0; c < 4; c++ {
				mixColumn(st[4*c : 4*c+4])
			}
		}
		addRoundKey(&st, &ks.rk[r])
	}
	copy(dst[:16], st[:])
}

// RecoverMasterFromLastRound inverts the AES-128 key schedule: given the
// round-10 key it returns the master key.  Fault attacks (PFA, DFA) recover
// the last round key; this completes them.
func RecoverMasterFromLastRound(k10 [16]byte) [16]byte {
	// Words 40..43 of the expansion, column major.
	var w [44][4]byte
	for c := 0; c < 4; c++ {
		copy(w[40+c][:], k10[4*c:4*c+4])
	}
	for i := 43; i >= 4; i-- {
		t := w[i-1]
		if i%4 == 0 {
			t = [4]byte{sbox[t[1]], sbox[t[2]], sbox[t[3]], sbox[t[0]]}
			t[0] ^= rcon[i/4-1]
		}
		for j := 0; j < 4; j++ {
			w[i-4][j] = w[i][j] ^ t[j]
		}
	}
	var key [16]byte
	for c := 0; c < 4; c++ {
		copy(key[4*c:4*c+4], w[c][:])
	}
	return key
}
