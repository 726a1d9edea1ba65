package present

import (
	"testing"

	"explframe/internal/stats"
)

// FuzzBitslicedVsScalar pins the bitsliced core to the scalar path: for a
// fuzz-chosen key, batch size, faulted table and fault round, every lane of
// Engine.EncryptBatch and Engine.EncryptWithFaultBatch must equal the
// corresponding scalar encryption byte for byte.
func FuzzBitslicedVsScalar(f *testing.F) {
	f.Add(uint64(0), byte(64), byte(0), byte(1))
	f.Add(uint64(0xdeadbeefcafef00d), byte(17), byte(2), byte(20))
	f.Add(uint64(42), byte(1), byte(3), byte(31))
	f.Fuzz(func(t *testing.T, seed uint64, lanes, faults, round byte) {
		rng := stats.NewRNG(seed)
		key := make([]byte, 10)
		rng.Bytes(key)
		rk, err := Engine.Expand(key)
		if err != nil {
			t.Fatal(err)
		}
		sb := SBox()
		for i := 0; i < int(faults%4); i++ {
			sb[rng.Intn(16)] ^= byte(rng.Intn(255) + 1)
		}
		n := int(lanes)%64 + 1
		r := int(round)%Rounds + 1
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
		Engine.EncryptBatch(rk, sb[:], dst, src)
		for i := range src {
			if want := Engine.Encrypt(rk, &sb, be.Uint64(src[i])); be.Uint64(dst[i]) != want {
				t.Fatalf("lane %d/%d: bitsliced %016x, scalar %016x", i, n, be.Uint64(dst[i]), want)
			}
		}
		Engine.EncryptWithFaultBatch(rk, sb[:], dst, src, r, masks)
		for i := range src {
			want := Engine.EncryptWithFault(rk, &sb, be.Uint64(src[i]), r, be.Uint64(masks[i]))
			if be.Uint64(dst[i]) != want {
				t.Fatalf("fault lane %d/%d round %d: bitsliced %016x, scalar %016x", i, n, r, be.Uint64(dst[i]), want)
			}
		}
	})
}
