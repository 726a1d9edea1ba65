package lilliput

import (
	"bytes"
	"testing"

	"explframe/internal/stats"
)

// invertScalar inverts the 30 schedule updates from K31 and one value of
// the 16 hidden register bits, returning the 10-byte master key.  It is
// the inverse update written out by hand on the register's two 40-bit
// halves (h: bits 79..40, l: bits 39..0), apart from the one Engine
// derives from its schedule declaration.
func invertScalar(k31, hidden uint64) []byte {
	const mask40 = 1<<40 - 1
	h := k31 >> 24
	l := (k31&0xFFFFFF)<<16 | hidden
	for r := Rounds; r >= 1; r-- {
		// Counter out of the low bits, inverse S-box on the top two
		// nibbles, then rotate right by 23.
		l ^= uint64(r)
		h = h&^(0xFF<<32) | uint64(invSbox[h>>36])<<36 | uint64(invSbox[h>>32&0xF])<<32
		h, l = (h>>23|l<<17)&mask40, (l>>23|h<<17)&mask40
	}
	key := make([]byte, KeyBytes)
	be.PutUint64(key, h<<24|l>>16)
	be.PutUint16(key[8:], uint16(l))
	return key
}

// recoverScalar is the reference schedule completion the key-sliced search
// must match: one guess at a time in ascending order, each inverted,
// expanded and encrypted on the scalar path.
func recoverScalar(k31, plaintext, ciphertext uint64) ([]byte, bool) {
	sb := SBox()
	for guess := uint64(0); guess < 1<<16; guess++ {
		key := invertScalar(k31, guess)
		rk, _ := Engine.Expand(key)
		if Engine.Encrypt(rk, &sb, plaintext) == ciphertext {
			return key, true
		}
	}
	return nil, false
}

// recoverCase builds a master key whose register, after the 30 schedule
// updates, holds K31 on top and hidden in the 16 bits K31 does not expose,
// and one known pair under it.
func recoverCase(k31, hidden, pt uint64) (key []byte, ct uint64) {
	key = invertScalar(k31, hidden)
	rk, _ := Engine.Expand(key)
	sb := SBox()
	return key, Engine.Encrypt(rk, &sb, pt)
}

// The key-sliced search agrees with the scalar oracle on hits — hidden
// bits on the lane (63/64) and pass (65472/0xFFFF) boundaries plus random
// ones — and on a miss, where one flipped K31 bit leaves no guess standing.
func TestRecoverMasterMatchesScalar(t *testing.T) {
	rng := stats.NewRNG(0x111e4)
	hidden := []uint64{0, 63, 64, 65472, 0xFFFF, uint64(rng.Intn(1 << 16)), uint64(rng.Intn(1 << 16))}
	for _, h := range hidden {
		k31, pt := rng.Uint64(), rng.Uint64()
		key, ct := recoverCase(k31, h, pt)
		got, ok := Engine.RecoverMaster80(k31, pt, ct)
		want, wantOK := recoverScalar(k31, pt, ct)
		if !ok || !wantOK || !bytes.Equal(got, want) || !bytes.Equal(got, key) {
			t.Fatalf("hidden %#04x: key-sliced %x/%v, scalar %x/%v, master %x", h, got, ok, want, wantOK, key)
		}
	}

	k31, pt := rng.Uint64(), rng.Uint64()
	_, ct := recoverCase(k31, uint64(rng.Intn(1<<16)), pt)
	k31 ^= 1 << uint(rng.Intn(64))
	if got, ok := Engine.RecoverMaster80(k31, pt, ct); ok {
		t.Fatalf("key-sliced search accepted a wrong K31: %x", got)
	}
	if got, ok := recoverScalar(k31, pt, ct); ok {
		t.Fatalf("scalar oracle accepted a wrong K31: %x", got)
	}
}

// FuzzRecoverMaster checks that the search returns the master key behind
// any (K31, hidden bits, plaintext) and rejects K31 with one bit flipped.
// Run with: go test -fuzz=FuzzRecoverMaster ./internal/cipher/lilliput
func FuzzRecoverMaster(f *testing.F) {
	f.Add(uint64(0), uint16(0), uint64(0), uint8(0))
	f.Add(uint64(0x0123456789abcdef), uint16(0xFFFF), uint64(0x0011223344556677), uint8(63))
	f.Add(uint64(0xdeadbeefcafef00d), uint16(64), uint64(0xFFFFFFFFFFFFFFFF), uint8(17))
	f.Fuzz(func(t *testing.T, k31 uint64, hidden uint16, pt uint64, flip uint8) {
		key, ct := recoverCase(k31, uint64(hidden), pt)
		got, ok := Engine.RecoverMaster80(k31, pt, ct)
		if !ok || !bytes.Equal(got, key) {
			t.Fatalf("K31 %016x hidden %#04x: recovered %x/%v, want %x", k31, hidden, got, ok, key)
		}
		bad := k31 ^ 1<<(flip%64)
		if got, ok := Engine.RecoverMaster80(bad, pt, ct); ok {
			t.Fatalf("K31 %016x with bit %d flipped recovered %x", k31, flip%64, got)
		}
	})
}
