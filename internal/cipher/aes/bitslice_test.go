package aes

import (
	"bytes"
	"testing"

	"explframe/internal/stats"
)

// TestSboxCircuitExhaustive pins the Boyar–Peralta gate list to the
// generated table on all 256 inputs, one input per plane pattern.
func TestSboxCircuitExhaustive(t *testing.T) {
	for base := 0; base < 256; base += 64 {
		var q [8]uint64
		for lane := 0; lane < 64; lane++ {
			x := byte(base + lane)
			for j := 0; j < 8; j++ {
				q[j] |= uint64(x>>uint(j)&1) << uint(lane)
			}
		}
		sboxCircuit(&q)
		for lane := 0; lane < 64; lane++ {
			x := byte(base + lane)
			var got byte
			for j := 0; j < 8; j++ {
				got |= byte(q[j]>>uint(lane)&1) << uint(j)
			}
			if got != sbox[x] {
				t.Fatalf("circuit S[%#02x] = %#02x, want %#02x", x, got, sbox[x])
			}
		}
	}
}

// corruptTable returns a copy of the canonical S-box with faults random
// single-bit (or wider) corruptions at the given number of entries.
func corruptTable(rng *stats.RNG, faults int) [256]byte {
	sb := SBox()
	for k := 0; k < faults; k++ {
		sb[rng.Intn(256)] ^= byte(1 + rng.Intn(255))
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
	rng := stats.NewRNG(0xae5b5)
	for trial := 0; trial < 30; trial++ {
		key := make([]byte, 16)
		rng.Bytes(key)
		ks, err := Expand(key)
		if err != nil {
			t.Fatal(err)
		}
		sb := corruptTable(rng, trial%4) // 0, 1, 2, 3 faulted entries
		for _, n := range []int{1, 5, 64} {
			dst, src := makeBatch(rng, n)
			EncryptBlocksBitsliced(ks, &sb, dst, src)
			want := make([]byte, BlockSize)
			for i := 0; i < n; i++ {
				EncryptBlock(ks, &sb, want, src[i])
				if !bytes.Equal(dst[i], want) {
					t.Fatalf("trial %d n=%d lane %d: bitsliced %x != scalar %x", trial, n, i, dst[i], want)
				}
			}
		}
	}
}

func TestEncryptBlocksWithFaultBitslicedMatchesScalar(t *testing.T) {
	rng := stats.NewRNG(0xfa17a)
	key := make([]byte, 16)
	rng.Bytes(key)
	ks, err := Expand(key)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= rounds; round++ {
		sb := corruptTable(rng, round%3)
		n := 1 + rng.Intn(64)
		dst, src := makeBatch(rng, n)
		masks := make([][]byte, n)
		for i := range masks {
			masks[i] = make([]byte, BlockSize)
			rng.Bytes(masks[i])
		}
		EncryptBlocksWithFaultBitsliced(ks, &sb, dst, src, round, masks)
		want := make([]byte, BlockSize)
		for i := 0; i < n; i++ {
			var m [16]byte
			copy(m[:], masks[i])
			EncryptBlockWithFault(ks, &sb, want, src[i], round, &m)
			if !bytes.Equal(dst[i], want) {
				t.Fatalf("round %d lane %d: bitsliced %x != scalar %x", round, i, dst[i], want)
			}
		}
	}
}
