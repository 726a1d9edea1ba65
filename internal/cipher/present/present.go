// Package present defines the PRESENT-80 lightweight block cipher
// (Bogdanov et al., CHES 2007) with a faultable S-box table, as the second
// target for the paper's "fault analysis of block ciphers": persistent
// fault analysis works on any SPN whose S-box lives in corruptible memory.
//
// The package holds only what is PRESENT's own: the S-box, the bit
// permutation, the 80-bit key schedule in its scalar and bit-plane forms,
// and the scalar completion of a last-round-key guess.  The rounds
// themselves, scalar, bitsliced and key-sliced, run on the shared
// bitslice.SPN64 in Engine.  The 64-bit state is a uint64 with bit 0 as the
// least significant bit, the convention of the specification.
package present

import (
	"encoding/binary"
	"errors"
	"fmt"

	"explframe/internal/cipher/bitslice"
)

// BlockSize is the PRESENT block size in bytes.
const BlockSize = 8

// KeyBytes is the master key length in bytes (80 bits).
const KeyBytes = 10

// Rounds is the number of substitution-permutation rounds; 32 round keys
// are consumed (K1..K31 in rounds, K32 as the final whitening key).
const Rounds = 31

// sbox is the 4-bit PRESENT S-box.
var sbox = [16]byte{0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD, 0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2}

var invSbox = func() (inv [16]byte) {
	for i, v := range sbox {
		inv[v] = byte(i)
	}
	return inv
}()

// Engine runs PRESENT's rounds: its S-box and its pLayer, which moves bit
// i to bit 16*i mod 63 and keeps bit 63 fixed.
var Engine = bitslice.NewSPN64(Rounds, sbox, func(i int) int {
	if i == 63 {
		return 63
	}
	return i * 16 % 63
})

// SBox returns a fresh copy of the S-box; victims store it in simulated
// memory where a Rowhammer flip can corrupt it.  Entries are 4-bit values
// stored one per byte.
func SBox() [16]byte { return sbox }

// InvSBox returns a fresh copy of the inverse S-box.
func InvSBox() [16]byte { return invSbox }

// ErrKeySize reports an unsupported key length.
var ErrKeySize = errors.New("present: key must be 10 bytes (80 bits)")

// Expand derives the 32 round keys from a 10-byte big-endian master key
// (key[0] holds bits 79..72): rk[r-1] is round key K_r, rk[Rounds] the
// whitening key K32.
func Expand(key []byte) ([]uint64, error) {
	if len(key) != KeyBytes {
		return nil, fmt.Errorf("%w: got %d bytes", ErrKeySize, len(key))
	}
	rk := new([Rounds + 1]uint64)
	expand80(rk, binary.BigEndian.Uint64(key), uint64(binary.BigEndian.Uint16(key[8:])))
	return rk[:], nil
}

// expand80 runs the 80-bit key schedule: the register is k79..k0, the round
// key is the top 64 bits, and the update is a 61-bit left rotation, S-box on
// the top nibble, and the round counter XORed into bits 19..15.  hi holds
// register bits k79..k16, lo bits k15..k0.
func expand80(rk *[Rounds + 1]uint64, hi, lo uint64) {
	for r := 1; r <= Rounds+1; r++ {
		rk[r-1] = hi
		if r == Rounds+1 {
			break
		}
		hi, lo = rotate80(hi, lo)
		top := byte(hi >> 60)
		hi = hi&^(0xF<<60) | uint64(sbox[top])<<60
		// Round counter into bits 19..15: bits 19..16 live in hi's low
		// nibble, bit 15 is lo's top bit.
		ctr := uint64(r)
		hi ^= ctr >> 1
		lo ^= (ctr & 1) << 15
	}
}

// rotate80 rotates the 80-bit register (hi: top 64 bits, lo: bottom 16)
// left by 61 bits — the only rotation the schedule uses.  A left rotation
// by 61 is a right rotation by 19: the low 19 bits wrap to the top.
func rotate80(hi, lo uint64) (uint64, uint64) {
	wrapped := (hi&0x7)<<16 | lo // low 19 bits of the register
	newLo := (hi >> 3) & 0xFFFF
	newHi := hi>>19 | wrapped<<45
	return newHi, newLo
}

// invRotate80 rotates right by 61 bits (left by 19): the top 19 bits wrap
// to the bottom.
func invRotate80(hi, lo uint64) (uint64, uint64) {
	newLo := (hi >> 45) & 0xFFFF
	newHi := lo<<3 | hi<<19 | hi>>61
	return newHi, newLo
}

// invUpdate80 inverts the 80-bit schedule update for round counter r: the
// counter XOR, the top-nibble S-box and the rotation, in reverse order.
func invUpdate80(hi, lo uint64, r int) (uint64, uint64) {
	ctr := uint64(r)
	hi ^= ctr >> 1
	lo ^= (ctr & 1) << 15
	top := byte(hi >> 60)
	hi = hi&^(uint64(0xF)<<60) | uint64(invSbox[top])<<60
	return invRotate80(hi, lo)
}

// invStep is invUpdate80 on a bit-plane register: the counter enters at
// bit 15, the S-box covers bits 76..79, and a left rotation by 19 undoes
// the forward one by 61.
var invStep = bitslice.InvStep80{Counter: 15, Nibbles: []int{76}, InvSbox: bitslice.NewSbox4(&invSbox), Rotate: 19}

// RecoverMasterFromLastRound inverts the PRESENT-80 key schedule given the
// final round key K32 and a known plaintext/ciphertext pair to resolve the
// 16 register bits K32 does not expose, and returns the 10-byte master key
// of the lowest guess that verifies.  The search runs key-sliced on
// Engine.RecoverMaster80; only the returned key is allocated.
func RecoverMasterFromLastRound(k32 uint64, plaintext, ciphertext uint64) ([]byte, bool) {
	return Engine.RecoverMaster80(k32, plaintext, ciphertext, &invStep, completeGuess)
}

// completeGuess inverts the schedule from K32 and one guess of the 16
// hidden register bits on the scalar path, and returns the master key if
// its expansion enciphers plaintext to ciphertext.
func completeGuess(k32, guess, plaintext, ciphertext uint64) ([]byte, bool) {
	hi, lo := k32, guess
	for r := Rounds; r >= 1; r-- {
		hi, lo = invUpdate80(hi, lo, r)
	}
	var rk [Rounds + 1]uint64
	expand80(&rk, hi, lo)
	if Engine.Encrypt(rk[:], &sbox, plaintext) != ciphertext {
		return nil, false
	}
	key := make([]byte, KeyBytes)
	binary.BigEndian.PutUint64(key, hi)
	binary.BigEndian.PutUint16(key[8:], uint16(lo))
	return key, true
}
