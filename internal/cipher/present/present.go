// Package present implements the PRESENT lightweight block cipher
// (Bogdanov et al., CHES 2007) with a faultable S-box table, as the second
// target for the paper's "fault analysis of block ciphers": persistent
// fault analysis works on any SPN whose S-box lives in corruptible memory.
//
// The implementation keeps the 64-bit state in a uint64 with bit 0 as the
// least significant bit, the convention of the specification.
package present

import (
	"errors"
	"fmt"
	"math/bits"

	"explframe/internal/cipher/bitslice"
)

// BlockSize is the PRESENT block size in bytes.
const BlockSize = 8

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

// invKeySbox is the inverse S-box as a bitsliced circuit, for the
// key-sliced schedule inversion in RecoverMasterFromLastRound.
var invKeySbox = bitslice.NewSbox4(&invSbox)

// SBox returns a fresh copy of the S-box; victims store it in simulated
// memory where a Rowhammer flip can corrupt it.  Entries are 4-bit values
// stored one per byte.
func SBox() [16]byte { return sbox }

// InvSBox returns a fresh copy of the inverse S-box.
func InvSBox() [16]byte { return invSbox }

// PLayer applies the PRESENT bit permutation: bit i of the input moves to
// bit position 16*i mod 63 (bit 63 fixed).
func PLayer(x uint64) uint64 {
	var out uint64
	for i := 0; i < 63; i++ {
		out |= ((x >> uint(i)) & 1) << uint(i*16%63)
	}
	out |= x & (1 << 63)
	return out
}

// InvPLayer inverts PLayer.
func InvPLayer(x uint64) uint64 {
	var out uint64
	for i := 0; i < 63; i++ {
		out |= ((x >> uint(i*16%63)) & 1) << uint(i)
	}
	out |= x & (1 << 63)
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

// Schedule holds the 32 round keys.
type Schedule struct {
	rk      [Rounds + 1]uint64
	keySize int // 80 or 128
}

// RoundKey returns round key i, 1-based as in the specification (1..32).
func (s *Schedule) RoundKey(i int) uint64 { return s.rk[i-1] }

// KeySize returns the master key size in bits.
func (s *Schedule) KeySize() int { return s.keySize }

// ErrKeySize reports an unsupported key length.
var ErrKeySize = errors.New("present: key must be 10 (80-bit) or 16 (128-bit) bytes")

// Expand derives the round keys from a 10-byte (PRESENT-80) or 16-byte
// (PRESENT-128) master key, big-endian (key[0] holds bits 79..72 for the
// 80-bit variant).
func Expand(key []byte) (*Schedule, error) {
	switch len(key) {
	case 10:
		s := &Schedule{}
		expand80(s, getU64(key), uint64(key[8])<<8|uint64(key[9]))
		return s, nil
	case 16:
		return expand128(key), nil
	default:
		return nil, fmt.Errorf("%w: got %d bytes", ErrKeySize, len(key))
	}
}

// expand80 runs the 80-bit key schedule: the register is k79..k0, the round
// key is the top 64 bits, and the update is a 61-bit left rotation, S-box on
// the top nibble, and the round counter XORed into bits 19..15.  hi holds
// register bits k79..k16, lo bits k15..k0.
func expand80(s *Schedule, hi, lo uint64) {
	s.keySize = 80
	for r := 1; r <= Rounds+1; r++ {
		s.rk[r-1] = hi
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

// expand128 runs the 128-bit key schedule: 61-bit rotation, S-box on the
// top two nibbles, counter XORed into bits 66..62.
func expand128(key []byte) *Schedule {
	hi := uint64(0) // k127..k64
	lo := uint64(0) // k63..k0
	for i := 0; i < 8; i++ {
		hi = hi<<8 | uint64(key[i])
		lo = lo<<8 | uint64(key[i+8])
	}
	s := &Schedule{keySize: 128}
	for r := 1; r <= Rounds+1; r++ {
		s.rk[r-1] = hi
		if r == Rounds+1 {
			break
		}
		// Rotate the 128-bit register left by 61.
		nhi := hi<<61 | lo>>3
		nlo := lo<<61 | hi>>3
		hi, lo = nhi, nlo
		hi = hi&^(0xF<<60) | uint64(sbox[byte(hi>>60)])<<60
		hi = hi&^(0xF<<56) | uint64(sbox[byte(hi>>56)&0xF])<<56
		ctr := uint64(r)
		// Bits 66..62: bits 66..64 are hi's low 3 bits, 63..62 lo's top 2.
		hi ^= ctr >> 2
		lo ^= (ctr & 3) << 62
	}
	return s
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
// the entry of the given round (1-based; before that round's AddRoundKey) —
// the transient fault model differential fault analysis assumes.
func EncryptWithFault(ks *Schedule, sb *[16]byte, block uint64, round int, delta uint64) uint64 {
	if round < 1 || round > Rounds {
		panic("present: fault round out of range")
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
		panic("present: short block")
	}
	putU64(dst, Encrypt(ks, sb, getU64(src)))
}

// DecryptBlock is the byte-slice form of Decrypt.
func DecryptBlock(ks *Schedule, isb *[16]byte, dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("present: short block")
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

// RecoverMasterFromLastRound inverts the PRESENT-80 key schedule given the
// final round key K32 and a known plaintext/ciphertext pair to resolve the
// 16 register bits K32 does not expose, and returns the 10-byte master key.
// It searches those 16 bits key-sliced, in ascending order on the calling
// goroutine: each pass loads 64 consecutive guesses into the lanes of a
// bit-plane key register, inverts the schedule on the planes, and
// encrypts the plaintext under all 64 resulting schedules at once.  A lane
// that reproduces the ciphertext is rebuilt and re-checked on the scalar
// path before it is returned, so the result is the lowest verified guess.
// Only the returned key is allocated.
func RecoverMasterFromLastRound(k32 uint64, plaintext, ciphertext uint64) ([]byte, bool) {
	var rk [Rounds + 1][64]uint64
	var reg bitslice.KeyReg80
	for base := 0; base < 1<<16; base += bitslice.Lanes {
		reg.LoadLanes(k32, uint16(base))
		reg.Top64(&rk[Rounds])
		// Invert the 31 schedule updates, counters 31..1; the register
		// before update r holds round key r.
		for r := Rounds; r >= 1; r-- {
			reg.XorConst(15, uint64(r))
			reg.Sbox(&invKeySbox, 76)
			reg.RotateLeft(19)
			reg.Top64(&rk[r-1])
		}
		for m := engine.MatchKeys(rk[:], plaintext, ciphertext); m != 0; m &= m - 1 {
			guess := uint64(base + bits.TrailingZeros64(m))
			if key, ok := completeGuess(k32, guess, plaintext, ciphertext); ok {
				return key, true
			}
		}
	}
	return nil, false
}

// completeGuess inverts the schedule from K32 and one guess of the 16
// hidden register bits on the scalar path, and returns the master key if
// its expansion enciphers plaintext to ciphertext.
func completeGuess(k32, guess, plaintext, ciphertext uint64) ([]byte, bool) {
	hi, lo := k32, guess
	for r := Rounds; r >= 1; r-- {
		hi, lo = invUpdate80(hi, lo, r)
	}
	var ks Schedule
	expand80(&ks, hi, lo)
	if Encrypt(&ks, &sbox, plaintext) != ciphertext {
		return nil, false
	}
	key := make([]byte, 10)
	putU64(key, hi)
	key[8] = byte(lo >> 8)
	key[9] = byte(lo)
	return key, true
}
