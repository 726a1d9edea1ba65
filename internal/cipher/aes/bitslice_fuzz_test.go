package aes

import (
	"bytes"
	"testing"

	"explframe/internal/stats"
)

// FuzzBitslicedVsScalar pins the bitsliced core to the scalar path: for a
// fuzz-chosen key, batch size, faulted table and fault round, every lane of
// EncryptBlocksBitsliced and EncryptBlocksWithFaultBitsliced must equal the
// corresponding scalar encryption byte for byte.
func FuzzBitslicedVsScalar(f *testing.F) {
	f.Add(uint64(0), byte(64), byte(0), byte(1))
	f.Add(uint64(0xdeadbeefcafef00d), byte(17), byte(2), byte(7))
	f.Add(uint64(42), byte(1), byte(3), byte(10))
	f.Fuzz(func(t *testing.T, seed uint64, lanes, faults, round byte) {
		rng := stats.NewRNG(seed)
		key := make([]byte, 16)
		rng.Bytes(key)
		ks, err := Expand(key)
		if err != nil {
			t.Fatal(err)
		}
		sb := SBox()
		for i := 0; i < int(faults%4); i++ {
			sb[rng.Intn(256)] ^= byte(rng.Intn(255) + 1)
		}
		n := int(lanes)%64 + 1
		r := int(round)%rounds + 1
		src := make([][]byte, n)
		dst := make([][]byte, n)
		masks := make([][]byte, n)
		for i := range src {
			src[i] = make([]byte, BlockSize)
			rng.Bytes(src[i])
			dst[i] = make([]byte, BlockSize)
			masks[i] = make([]byte, BlockSize)
			rng.Bytes(masks[i])
		}
		EncryptBlocksBitsliced(ks, &sb, dst, src)
		want := make([]byte, BlockSize)
		for i := range src {
			EncryptBlock(ks, &sb, want, src[i])
			if !bytes.Equal(dst[i], want) {
				t.Fatalf("lane %d/%d: bitsliced %x, scalar %x", i, n, dst[i], want)
			}
		}
		EncryptBlocksWithFaultBitsliced(ks, &sb, dst, src, r, masks)
		for i := range src {
			var m [16]byte
			copy(m[:], masks[i])
			EncryptBlockWithFault(ks, &sb, want, src[i], r, &m)
			if !bytes.Equal(dst[i], want) {
				t.Fatalf("fault lane %d/%d round %d: bitsliced %x, scalar %x", i, n, r, dst[i], want)
			}
		}
	})
}
