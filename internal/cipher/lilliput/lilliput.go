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
//
// The package holds only what is this cipher's own: the S-box, the bit
// permutation, the key schedule in its scalar and bit-plane forms, and
// the scalar completion of a last-round-key guess.  The rounds themselves,
// scalar, bitsliced and key-sliced, run on the shared bitslice.SPN64 in
// Engine.
package lilliput

import (
	"encoding/binary"
	"errors"
	"fmt"

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

// Engine runs the cipher's rounds: its S-box and its permutation, which
// moves bit i to bit 13*i mod 64 (13 is invertible mod 64 with inverse 5).
var Engine = bitslice.NewSPN64(Rounds, sbox, func(i int) int { return 13 * i & 63 })

// SBox returns a fresh copy of the S-box; victims store it in simulated
// memory where a Rowhammer flip can corrupt it.  Entries are 4-bit values
// stored one per byte.
func SBox() [16]byte { return sbox }

// InvSBox returns a fresh copy of the inverse S-box.
func InvSBox() [16]byte { return invSbox }

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
	return splitKey(binary.BigEndian.Uint64(key), uint64(binary.BigEndian.Uint16(key[8:])))
}

// splitKey splits the register given as its top 64 bits and its low 16
// bits into the two 40-bit halves.
func splitKey(top, low uint64) (h, l uint64) {
	return top >> 24, (top&0xFFFFFF)<<16 | low
}

// storeKey is the inverse of loadKey.
func storeKey(h, l uint64) []byte {
	key := make([]byte, KeyBytes)
	binary.BigEndian.PutUint64(key, h<<24|l>>16)
	binary.BigEndian.PutUint16(key[8:], uint16(l))
	return key
}

// Expand derives the 31 round keys from a 10-byte master key: rk[r-1] is
// round key K_r, the top 64 bits of the register before schedule step r,
// and rk[Rounds] the whitening key K31.
func Expand(key []byte) ([]uint64, error) {
	if len(key) != KeyBytes {
		return nil, fmt.Errorf("%w: got %d bytes", ErrKeySize, len(key))
	}
	h, l := loadKey(key)
	rk := new([Rounds + 1]uint64)
	expand(rk, h, l)
	return rk[:], nil
}

// expand fills rk from the key register halves h (bits 79..40) and l
// (bits 39..0).
func expand(rk *[Rounds + 1]uint64, h, l uint64) {
	for r := 1; r <= Rounds+1; r++ {
		rk[r-1] = h<<24 | l>>16
		if r == Rounds+1 {
			break
		}
		h, l = update(h, l, r)
	}
}

// invStep is invUpdate on a bit-plane register: the counter enters at bit
// 0, the S-box covers the nibbles at bits 72..79, and a left rotation by
// 57 undoes the forward one by 23.
var invStep = bitslice.InvStep80{Counter: 0, Nibbles: []int{76, 72}, InvSbox: bitslice.NewSbox4(&invSbox), Rotate: 80 - 23}

// RecoverMasterFromLastRound inverts the key schedule given the final round
// key K31 and a known plaintext/ciphertext pair to resolve the 16 register
// bits K31 does not expose, and returns the 10-byte master key of the
// lowest guess that verifies.  The search runs key-sliced on
// Engine.RecoverMaster80; only the returned key is allocated.
func RecoverMasterFromLastRound(k31 uint64, plaintext, ciphertext uint64) ([]byte, bool) {
	return Engine.RecoverMaster80(k31, plaintext, ciphertext, &invStep, completeGuess)
}

// completeGuess inverts the schedule from K31 and one guess of the 16
// hidden register bits on the scalar path, and returns the master key if
// its expansion enciphers plaintext to ciphertext.
func completeGuess(k31, guess, plaintext, ciphertext uint64) ([]byte, bool) {
	h, l := splitKey(k31, guess)
	for r := Rounds; r >= 1; r-- {
		h, l = invUpdate(h, l, r)
	}
	var rk [Rounds + 1]uint64
	expand(&rk, h, l)
	if Engine.Encrypt(rk[:], &sbox, plaintext) != ciphertext {
		return nil, false
	}
	return storeKey(h, l), true
}
