// Package present defines the PRESENT-80 lightweight block cipher
// (Bogdanov et al., CHES 2007) with a faultable S-box table, as the second
// target for the paper's "fault analysis of block ciphers": persistent
// fault analysis works on any SPN whose S-box lives in corruptible memory.
//
// The package holds only what is PRESENT's own: the S-box, the bit
// permutation and the declaration of the 80-bit key schedule.  The rounds,
// scalar, bitsliced and key-sliced, the schedule in every form and the
// master-key search run on the shared bitslice.SPN64 in Engine.  The
// 64-bit state is a uint64 with bit 0 as the least significant bit, the
// convention of the specification.
package present

import "explframe/internal/cipher/bitslice"

// Rounds is the number of substitution-permutation rounds; 32 round keys
// are consumed (K1..K31 in rounds, K32 as the final whitening key).
const Rounds = 31

// sbox is the 4-bit PRESENT S-box.
var sbox = [16]byte{0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD, 0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2}

// Engine runs PRESENT: its S-box; its pLayer, which moves bit i to bit
// 16*i mod 63 and keeps bit 63 fixed; and its key schedule, whose update
// rotates the 80-bit register left by 61, passes the top nibble (bits
// 76..79) through the S-box and XORs the round counter into bits 19..15.
var Engine = bitslice.NewSPN64(Rounds, sbox, func(i int) int {
	if i == 63 {
		return 63
	}
	return i * 16 % 63
}, bitslice.Schedule80{Rotate: 61, Nibbles: []int{76}, Counter: 15})
