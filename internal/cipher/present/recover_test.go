package present

import (
	"bytes"
	"testing"

	"explframe/internal/cipher/bitslice"
	"explframe/internal/stats"
)

// invertScalar inverts the 31 schedule updates from K32 and one value of
// the 16 hidden register bits, returning the 10-byte master key.  It is
// the specification's inverse update written out by hand on the register
// (hi: bits 79..16, lo: bits 15..0), apart from the one Engine derives
// from its schedule declaration.
func invertScalar(k32, hidden uint64) []byte {
	hi, lo := k32, hidden
	for r := Rounds; r >= 1; r-- {
		// Counter out of bits 19..15, inverse S-box on the top nibble,
		// then rotate right by 61 (left by 19).
		hi ^= uint64(r) >> 1
		lo ^= uint64(r) & 1 << 15
		hi = hi&^(0xF<<60) | uint64(invSbox[hi>>60])<<60
		hi, lo = lo<<3|hi<<19|hi>>61, hi>>45&0xFFFF
	}
	key := make([]byte, KeyBytes)
	be.PutUint64(key, hi)
	be.PutUint16(key[8:], uint16(lo))
	return key
}

// recoverScalar is the reference schedule completion the key-sliced search
// must match: one guess at a time in ascending order, each inverted,
// expanded and encrypted on the scalar path.
func recoverScalar(k32, plaintext, ciphertext uint64) ([]byte, bool) {
	sb := SBox()
	for guess := uint64(0); guess < 1<<16; guess++ {
		key := invertScalar(k32, guess)
		rk, _ := Engine.Expand(key)
		if Engine.Encrypt(rk, &sb, plaintext) == ciphertext {
			return key, true
		}
	}
	return nil, false
}

// recoverCase builds a master key whose register, after the 31 schedule
// updates, holds K32 on top and hidden in the 16 bits K32 does not expose,
// and one known pair under it.
func recoverCase(k32, hidden, pt uint64) (key []byte, ct uint64) {
	key = invertScalar(k32, hidden)
	rk, _ := Engine.Expand(key)
	sb := SBox()
	return key, Engine.Encrypt(rk, &sb, pt)
}

// The key-sliced search agrees with the scalar oracle on hits — hidden
// bits on the lane (63/64) and pass (65472/0xFFFF) boundaries plus random
// ones — and on a miss, where one flipped K32 bit leaves no guess standing.
func TestRecoverMasterMatchesScalar(t *testing.T) {
	rng := stats.NewRNG(0x4ec0e4)
	hidden := []uint64{0, 63, 64, 65472, 0xFFFF, uint64(rng.Intn(1 << 16)), uint64(rng.Intn(1 << 16))}
	for _, h := range hidden {
		k32, pt := rng.Uint64(), rng.Uint64()
		key, ct := recoverCase(k32, h, pt)
		got, _, ok := Engine.RecoverMaster80(k32, pt, ct, bitslice.RuledOut{})
		want, wantOK := recoverScalar(k32, pt, ct)
		if !ok || !wantOK || !bytes.Equal(got, want) || !bytes.Equal(got, key) {
			t.Fatalf("hidden %#04x: key-sliced %x/%v, scalar %x/%v, master %x", h, got, ok, want, wantOK, key)
		}
	}

	k32, pt := rng.Uint64(), rng.Uint64()
	_, ct := recoverCase(k32, uint64(rng.Intn(1<<16)), pt)
	k32 ^= 1 << uint(rng.Intn(64))
	if got, _, ok := Engine.RecoverMaster80(k32, pt, ct, bitslice.RuledOut{}); ok {
		t.Fatalf("key-sliced search accepted a wrong K32: %x", got)
	}
	if got, ok := recoverScalar(k32, pt, ct); ok {
		t.Fatalf("scalar oracle accepted a wrong K32: %x", got)
	}
}

// ruledOutCases draws the four kinds of RuledOut under which the hinted
// search must return exactly what the full search does: nothing ruled
// out, random values ruled out but never the true nibble of
// InvPLayer(K31), only the true nibbles ruled out (every nibble keeps a
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
// any (K32, hidden bits, plaintext) and rejects K32 with one bit flipped,
// and that under every kind of ruledOutCases the hinted search returns
// the full search's key, testing no more guesses when it keeps the true
// nibbles.
// Run with: go test -fuzz=FuzzRecoverMaster ./internal/cipher/present
func FuzzRecoverMaster(f *testing.F) {
	f.Add(uint64(0), uint16(0), uint64(0), uint8(0))
	f.Add(uint64(0x0123456789abcdef), uint16(0xFFFF), uint64(0x0011223344556677), uint8(63))
	f.Add(uint64(0xdeadbeefcafef00d), uint16(64), uint64(0xFFFFFFFFFFFFFFFF), uint8(17))
	f.Fuzz(func(t *testing.T, k32 uint64, hidden uint16, pt uint64, flip uint8) {
		key, ct := recoverCase(k32, uint64(hidden), pt)
		got, tested, ok := Engine.RecoverMaster80(k32, pt, ct, bitslice.RuledOut{})
		if !ok || !bytes.Equal(got, key) {
			t.Fatalf("K32 %016x hidden %#04x: recovered %x/%v, want %x", k32, hidden, got, ok, key)
		}
		cases := ruledOutCases(key, stats.NewRNG(k32^pt^uint64(hidden)<<48))
		for kind, out := range cases {
			hinted, n, ok := Engine.RecoverMaster80(k32, pt, ct, out)
			if !ok || !bytes.Equal(hinted, got) {
				t.Fatalf("K32 %016x hidden %#04x, ruled out %04x: hinted %x/%v, full %x", k32, hidden, out, hinted, ok, got)
			}
			if kind == 1 && n > tested {
				t.Fatalf("K32 %016x hidden %#04x, ruled out %04x: hinted search tested %d guesses, full %d", k32, hidden, out, n, tested)
			}
		}
		bad := k32 ^ 1<<(flip%64)
		for _, out := range []bitslice.RuledOut{{}, cases[1]} {
			if got, _, ok := Engine.RecoverMaster80(bad, pt, ct, out); ok {
				t.Fatalf("K32 %016x with bit %d flipped recovered %x", k32, flip%64, got)
			}
		}
	})
}
