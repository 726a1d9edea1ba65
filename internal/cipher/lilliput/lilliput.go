// Package lilliput implements a LILLIPUT-style lightweight SPN — 64-bit
// block, 80-bit key, the LILLIPUT 4-bit S-box (Berger et al., IEEE TC 2016)
// — as the registry's third victim cipher.  "From Precise to Random: A
// Systematic DFA of LILLIPUT" shows ExplFrame-class fault machinery carries
// to such ciphers; this package provides a same-shaped target whose table
// lives in corruptible victim memory.
//
// This is not the LILLIPUT specification (which is an extended generalised
// Feistel with a tweakey schedule): it is a PRESENT-shaped
// substitution-permutation network in the LILLIPUT style, chosen so the
// last round keeps the ct = P(S(x)) ^ K form that persistent fault
// analysis inverts.  Test vectors are pinned in this repository rather than
// taken from a published spec.
//
// Structure, with the 64-bit state in a uint64 (bit 0 least significant):
//
//   - 30 rounds of AddRoundKey, a 16-nibble S-box layer, and a bit
//     permutation moving bit i to bit 13*i mod 64 (13 is invertible mod 64
//     with inverse 5, and the four bits of one nibble scatter into four
//     distinct nibbles — the same diffusion idiom as PRESENT's pLayer).
//   - A final whitening key (round key 31).
//   - An 80-bit key register held as two 40-bit halves; each schedule step
//     rotates the register left by 23 bits, passes the top two nibbles
//     through the S-box, and XORs the round counter into the low bits.
//     Every step is invertible, which the fault attack's master-key
//     recovery exploits.
package lilliput

import (
	"errors"
	"fmt"
	"math/bits"

	"explframe/internal/cipher/bitslice"
)

// BlockSize is the block size in bytes.
const BlockSize = 8

// Rounds is the number of substitution-permutation rounds; 31 round keys
// are consumed (K1..K30 in rounds, K31 as the final whitening key).
const Rounds = 30

// KeyBytes is the master key length in bytes (80 bits).
const KeyBytes = 10

// sbox is the LILLIPUT 4-bit S-box.
var sbox = [16]byte{0x4, 0x8, 0x7, 0x1, 0x9, 0x3, 0x2, 0xE, 0xD, 0xC, 0x6, 0xF, 0x0, 0xB, 0x5, 0xA}

var invSbox = func() (inv [16]byte) {
	for i, v := range sbox {
		inv[v] = byte(i)
	}
	return inv
}()

// invKeySbox is the inverse S-box as a bitsliced circuit, for the
// key-sliced schedule inversion in RecoverMasterFromLastRound.
var invKeySbox = bitslice.NewSbox4(&invSbox)

// SBox returns a fresh copy of the S-box; victims store it in simulated
// memory where a Rowhammer flip can corrupt it.  Entries are 4-bit values
// stored one per byte.
func SBox() [16]byte { return sbox }

// InvSBox returns a fresh copy of the inverse S-box.
func InvSBox() [16]byte { return invSbox }

// PLayer applies the bit permutation: bit i of the input moves to bit
// position 13*i mod 64.
func PLayer(x uint64) uint64 {
	var out uint64
	for i := 0; i < 64; i++ {
		out |= ((x >> uint(i)) & 1) << uint(13*i&63)
	}
	return out
}

// InvPLayer inverts PLayer (the inverse multiplier of 13 mod 64 is 5).
func InvPLayer(x uint64) uint64 {
	var out uint64
	for i := 0; i < 64; i++ {
		out |= ((x >> uint(i)) & 1) << uint(5*i&63)
	}
	return out
}

// sboxLayer substitutes all 16 nibbles through the table.  Table entries
// are masked to 4 bits so an out-of-range corrupted entry behaves like the
// hardware it models (only the low nibble reaches the datapath).
func sboxLayer(x uint64, sb *[16]byte) uint64 {
	var out uint64
	for i := 0; i < 16; i++ {
		n := (x >> uint(4*i)) & 0xF
		out |= uint64(sb[n]&0xF) << uint(4*i)
	}
	return out
}

// Schedule holds the 31 round keys.
type Schedule struct {
	rk [Rounds + 1]uint64
}

// RoundKey returns round key i, 1-based (1..31).
func (s *Schedule) RoundKey(i int) uint64 { return s.rk[i-1] }

// ErrKeySize reports an unsupported key length.
var ErrKeySize = errors.New("lilliput: key must be 10 bytes (80 bits)")

const mask40 = (1 << 40) - 1

// rotl23 rotates the 80-bit register (h: bits 79..40, l: bits 39..0) left
// by 23 — the only rotation the schedule uses.
func rotl23(h, l uint64) (uint64, uint64) {
	return (h<<23 | l>>17) & mask40, (l<<23 | h>>17) & mask40
}

// rotr23 inverts rotl23.
func rotr23(h, l uint64) (uint64, uint64) {
	return (h>>23 | l<<17) & mask40, (l>>23 | h<<17) & mask40
}

// update advances the key register by one schedule step for round counter r.
func update(h, l uint64, r int) (uint64, uint64) {
	h, l = rotl23(h, l)
	h = h&^uint64(0xFF<<32) | uint64(sbox[h>>36])<<36 | uint64(sbox[(h>>32)&0xF])<<32
	l ^= uint64(r)
	return h, l
}

// invUpdate inverts update for round counter r.
func invUpdate(h, l uint64, r int) (uint64, uint64) {
	l ^= uint64(r)
	h = h&^uint64(0xFF<<32) | uint64(invSbox[h>>36])<<36 | uint64(invSbox[(h>>32)&0xF])<<32
	return rotr23(h, l)
}

// loadKey splits a 10-byte big-endian key (key[0] holds bits 79..72) into
// the two 40-bit register halves.
func loadKey(key []byte) (h, l uint64) {
	for i := 0; i < 5; i++ {
		h = h<<8 | uint64(key[i])
		l = l<<8 | uint64(key[5+i])
	}
	return h, l
}

// storeKey is the inverse of loadKey.
func storeKey(h, l uint64) []byte {
	key := make([]byte, KeyBytes)
	for i := 4; i >= 0; i-- {
		key[i] = byte(h)
		key[5+i] = byte(l)
		h >>= 8
		l >>= 8
	}
	return key
}

// Expand derives the 31 round keys from a 10-byte master key.  Round key r
// is the top 64 bits of the register before schedule step r.
func Expand(key []byte) (*Schedule, error) {
	if len(key) != KeyBytes {
		return nil, fmt.Errorf("%w: got %d bytes", ErrKeySize, len(key))
	}
	h, l := loadKey(key)
	s := &Schedule{}
	expand(s, h, l)
	return s, nil
}

// expand fills s from the key register halves h (bits 79..40) and l (bits
// 39..0).
func expand(s *Schedule, h, l uint64) {
	for r := 1; r <= Rounds+1; r++ {
		s.rk[r-1] = h<<24 | l>>16
		if r == Rounds+1 {
			break
		}
		h, l = update(h, l, r)
	}
}

// Encrypt enciphers one 64-bit block with the given round keys and S-box.
func Encrypt(ks *Schedule, sb *[16]byte, block uint64) uint64 {
	st := block
	for r := 1; r <= Rounds; r++ {
		st ^= ks.RoundKey(r)
		st = sboxLayer(st, sb)
		st = PLayer(st)
	}
	return st ^ ks.RoundKey(Rounds+1)
}

// EncryptWithFault enciphers like Encrypt but XORs delta into the state at
// the entry of the given round (1-based; before that round's AddRoundKey).
// This is the transient fault model differential fault analysis assumes;
// the round-29 setting scatters one faulted nibble into four distinct
// nibbles of the final S-box layer, which is what the DFA ladder exploits.
func EncryptWithFault(ks *Schedule, sb *[16]byte, block uint64, round int, delta uint64) uint64 {
	if round < 1 || round > Rounds {
		panic("lilliput: fault round out of range")
	}
	st := block
	for r := 1; r <= Rounds; r++ {
		if r == round {
			st ^= delta
		}
		st ^= ks.RoundKey(r)
		st = sboxLayer(st, sb)
		st = PLayer(st)
	}
	return st ^ ks.RoundKey(Rounds+1)
}

// Decrypt deciphers one block using the inverse S-box.
func Decrypt(ks *Schedule, isb *[16]byte, block uint64) uint64 {
	st := block ^ ks.RoundKey(Rounds+1)
	for r := Rounds; r >= 1; r-- {
		st = InvPLayer(st)
		st = sboxLayer(st, isb)
		st ^= ks.RoundKey(r)
	}
	return st
}

// EncryptBlock is the byte-slice form of Encrypt (big-endian blocks).
func EncryptBlock(ks *Schedule, sb *[16]byte, dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("lilliput: short block")
	}
	putU64(dst, Encrypt(ks, sb, getU64(src)))
}

// DecryptBlock is the byte-slice form of Decrypt.
func DecryptBlock(ks *Schedule, isb *[16]byte, dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("lilliput: short block")
	}
	putU64(dst, Decrypt(ks, isb, getU64(src)))
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func putU64(b []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

// RecoverMasterFromLastRound inverts the key schedule given the final round
// key K31 and a known plaintext/ciphertext pair to resolve the 16 register
// bits K31 does not expose, and returns the 10-byte master key.  It
// searches those 16 bits key-sliced, in ascending order on the calling
// goroutine: each pass loads 64 consecutive guesses into the lanes of a
// bit-plane key register, inverts the schedule on the planes, and
// encrypts the plaintext under all 64 resulting schedules at once.  A lane
// that reproduces the ciphertext is rebuilt and re-checked on the scalar
// path before it is returned, so the result is the lowest verified guess.
// Only the returned key is allocated.
func RecoverMasterFromLastRound(k31 uint64, plaintext, ciphertext uint64) ([]byte, bool) {
	var rk [Rounds + 1][64]uint64
	var reg bitslice.KeyReg80
	for base := 0; base < 1<<16; base += bitslice.Lanes {
		reg.LoadLanes(k31, uint16(base))
		reg.Top64(&rk[Rounds])
		// invUpdate on the planes, counters 30..1; the register before
		// update r holds round key r.
		for r := Rounds; r >= 1; r-- {
			reg.XorConst(0, uint64(r))
			reg.Sbox(&invKeySbox, 76)
			reg.Sbox(&invKeySbox, 72)
			reg.RotateLeft(80 - 23)
			reg.Top64(&rk[r-1])
		}
		for m := engine.MatchKeys(rk[:], plaintext, ciphertext); m != 0; m &= m - 1 {
			guess := uint64(base + bits.TrailingZeros64(m))
			if key, ok := completeGuess(k31, guess, plaintext, ciphertext); ok {
				return key, true
			}
		}
	}
	return nil, false
}

// completeGuess inverts the schedule from K31 and one guess of the 16
// hidden register bits on the scalar path, and returns the master key if
// its expansion enciphers plaintext to ciphertext.
func completeGuess(k31, guess, plaintext, ciphertext uint64) ([]byte, bool) {
	h := k31 >> 24
	l := (k31&0xFFFFFF)<<16 | guess
	for r := Rounds; r >= 1; r-- {
		h, l = invUpdate(h, l, r)
	}
	var ks Schedule
	expand(&ks, h, l)
	if Encrypt(&ks, &sbox, plaintext) != ciphertext {
		return nil, false
	}
	return storeKey(h, l), true
}
