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
//   - An 80-bit key register whose top 64 bits form each round key; each
//     schedule step rotates the register left by 23 bits, passes the top
//     two nibbles through the S-box, and XORs the round counter into the
//     low bits.  Every step is invertible, which the fault attack's
//     master-key recovery exploits.
//
// The package holds only what is this cipher's own: the S-box, the bit
// permutation and the declaration of the key schedule.  The rounds,
// scalar, bitsliced and key-sliced, the schedule in every form and the
// master-key search run on the shared bitslice.SPN64 in Engine.
package lilliput

import "explframe/internal/cipher/bitslice"

// BlockSize is the block size in bytes.
const BlockSize = 8

// Rounds is the number of substitution-permutation rounds; 31 round keys
// are consumed (K1..K30 in rounds, K31 as the final whitening key).
const Rounds = 30

// sbox is the LILLIPUT 4-bit S-box.
var sbox = [16]byte{0x4, 0x8, 0x7, 0x1, 0x9, 0x3, 0x2, 0xE, 0xD, 0xC, 0x6, 0xF, 0x0, 0xB, 0x5, 0xA}

var invSbox = func() (inv [16]byte) {
	for i, v := range sbox {
		inv[v] = byte(i)
	}
	return inv
}()

// Engine runs the cipher: its S-box; its permutation, which moves bit i
// to bit 13*i mod 64 (13 is invertible mod 64 with inverse 5); and its key
// schedule, whose update rotates the 80-bit register left by 23, passes
// the nibbles at bits 76..79 and 72..75 through the S-box and XORs the
// round counter into bits 0 and up.
var Engine = bitslice.NewSPN64(Rounds, sbox, func(i int) int { return 13 * i & 63 },
	bitslice.Schedule80{Rotate: 23, Nibbles: []int{76, 72}, Counter: 0})

// SBox returns a fresh copy of the S-box; victims store it in simulated
// memory where a Rowhammer flip can corrupt it.  Entries are 4-bit values
// stored one per byte.
func SBox() [16]byte { return sbox }

// InvSBox returns a fresh copy of the inverse S-box.
func InvSBox() [16]byte { return invSbox }
