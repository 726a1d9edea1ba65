package lilliput

import (
	"bytes"
	"encoding/binary"
	"testing"

	"explframe/internal/stats"
)

// be is the 64-bit ciphers' big-endian byte form.
var be = binary.BigEndian

func corruptTable(rng *stats.RNG, faults int) [16]byte {
	sb := SBox()
	for k := 0; k < faults; k++ {
		sb[rng.Intn(16)] ^= byte(1 + rng.Intn(255)) // may also hit stored bits above the nibble
	}
	return sb
}

func makeBatch(rng *stats.RNG, n int) (dst, src [][]byte) {
	dst = make([][]byte, n)
	src = make([][]byte, n)
	for i := 0; i < n; i++ {
		dst[i] = make([]byte, BlockSize)
		src[i] = make([]byte, BlockSize)
		rng.Bytes(src[i])
	}
	return dst, src
}

func TestEncryptBlocksBitslicedMatchesScalar(t *testing.T) {
	rng := stats.NewRNG(0x111a7)
	for trial := 0; trial < 30; trial++ {
		key := make([]byte, KeyBytes)
		rng.Bytes(key)
		rk, err := Engine.Expand(key)
		if err != nil {
			t.Fatal(err)
		}
		sb := corruptTable(rng, trial%4)
		for _, n := range []int{1, 7, 64} {
			dst, src := makeBatch(rng, n)
			Engine.EncryptBatch(rk, sb[:], dst, src)
			want := make([]byte, BlockSize)
			for i := 0; i < n; i++ {
				be.PutUint64(want, Engine.Encrypt(rk, &sb, be.Uint64(src[i])))
				if !bytes.Equal(dst[i], want) {
					t.Fatalf("trial %d n=%d lane %d: bitsliced %x != scalar %x", trial, n, i, dst[i], want)
				}
			}
		}
	}
}

func TestEncryptBlocksWithFaultBitslicedMatchesScalar(t *testing.T) {
	rng := stats.NewRNG(0x2fa57)
	key := make([]byte, KeyBytes)
	rng.Bytes(key)
	rk, err := Engine.Expand(key)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= Rounds; round++ {
		sb := corruptTable(rng, round%3)
		n := 1 + rng.Intn(64)
		dst, src := makeBatch(rng, n)
		masks := make([][]byte, n)
		for i := range masks {
			masks[i] = make([]byte, BlockSize)
			rng.Bytes(masks[i])
		}
		Engine.EncryptWithFaultBatch(rk, sb[:], dst, src, round, masks)
		want := make([]byte, BlockSize)
		for i := 0; i < n; i++ {
			be.PutUint64(want, Engine.EncryptWithFault(rk, &sb, be.Uint64(src[i]), round, be.Uint64(masks[i])))
			if !bytes.Equal(dst[i], want) {
				t.Fatalf("round %d lane %d: bitsliced %x != scalar %x", round, i, dst[i], want)
			}
		}
	}
}
