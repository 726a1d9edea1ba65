package lilliput

import (
	"bytes"
	"testing"

	"explframe/internal/cipher/bitslice"
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
		got, _, ok := Engine.RecoverMaster80(k31, pt, ct, bitslice.RuledOut{})
		want, wantOK := recoverScalar(k31, pt, ct)
		if !ok || !wantOK || !bytes.Equal(got, want) || !bytes.Equal(got, key) {
			t.Fatalf("hidden %#04x: key-sliced %x/%v, scalar %x/%v, master %x", h, got, ok, want, wantOK, key)
		}
	}

	k31, pt := rng.Uint64(), rng.Uint64()
	_, ct := recoverCase(k31, uint64(rng.Intn(1<<16)), pt)
	k31 ^= 1 << uint(rng.Intn(64))
	if got, _, ok := Engine.RecoverMaster80(k31, pt, ct, bitslice.RuledOut{}); ok {
		t.Fatalf("key-sliced search accepted a wrong K31: %x", got)
	}
	if got, ok := recoverScalar(k31, pt, ct); ok {
		t.Fatalf("scalar oracle accepted a wrong K31: %x", got)
	}
}

// ruledOutCases draws the four kinds of RuledOut under which the hinted
// search must return exactly what the full search does: nothing ruled
// out, random values ruled out but never the true nibble of
// InvPLayer(K30), only the true nibbles ruled out (every nibble keeps a
// value, so the narrowed search runs, finds no key and falls back), and
// the random values with one nibble emptied.
func ruledOutCases(key []byte, rng *stats.RNG) [4]bitslice.RuledOut {
	rk, _ := Engine.Expand(key)
	truth := Engine.InvPLayer(rk[Rounds-1])
	var cs [4]bitslice.RuledOut
	for j := range cs[1] {
		keep := uint16(1) << (truth >> uint(4*j) & 0xF)
		r := uint16(rng.Intn(1 << 16))
		cs[1][j], cs[2][j], cs[3][j] = r&^keep, keep, r&^keep
	}
	cs[3][rng.Intn(16)] = 0xFFFF
	return cs
}

// FuzzRecoverMaster checks that the search returns the master key behind
// any (K31, hidden bits, plaintext) and rejects K31 with one bit flipped,
// and that under every kind of ruledOutCases the hinted search returns
// the full search's key, testing no more guesses when it keeps the true
// nibbles.
// Run with: go test -fuzz=FuzzRecoverMaster ./internal/cipher/lilliput
func FuzzRecoverMaster(f *testing.F) {
	f.Add(uint64(0), uint16(0), uint64(0), uint8(0))
	f.Add(uint64(0x0123456789abcdef), uint16(0xFFFF), uint64(0x0011223344556677), uint8(63))
	f.Add(uint64(0xdeadbeefcafef00d), uint16(64), uint64(0xFFFFFFFFFFFFFFFF), uint8(17))
	f.Fuzz(func(t *testing.T, k31 uint64, hidden uint16, pt uint64, flip uint8) {
		key, ct := recoverCase(k31, uint64(hidden), pt)
		got, tested, ok := Engine.RecoverMaster80(k31, pt, ct, bitslice.RuledOut{})
		if !ok || !bytes.Equal(got, key) {
			t.Fatalf("K31 %016x hidden %#04x: recovered %x/%v, want %x", k31, hidden, got, ok, key)
		}
		cases := ruledOutCases(key, stats.NewRNG(k31^pt^uint64(hidden)<<48))
		for kind, out := range cases {
			hinted, n, ok := Engine.RecoverMaster80(k31, pt, ct, out)
			if !ok || !bytes.Equal(hinted, got) {
				t.Fatalf("K31 %016x hidden %#04x, ruled out %04x: hinted %x/%v, full %x", k31, hidden, out, hinted, ok, got)
			}
			if kind == 1 && n > tested {
				t.Fatalf("K31 %016x hidden %#04x, ruled out %04x: hinted search tested %d guesses, full %d", k31, hidden, out, n, tested)
			}
		}
		bad := k31 ^ 1<<(flip%64)
		for _, out := range []bitslice.RuledOut{{}, cases[1]} {
			if got, _, ok := Engine.RecoverMaster80(bad, pt, ct, out); ok {
				t.Fatalf("K31 %016x with bit %d flipped recovered %x", k31, flip%64, got)
			}
		}
	})
}
