package present

import "testing"

// FuzzEncryptDecrypt checks decrypt(encrypt(p)) == p for arbitrary keys and
// blocks, in both the scalar uint64 and the batch byte-slice forms.
// Run with: go test -fuzz=FuzzEncryptDecrypt ./internal/cipher/present
func FuzzEncryptDecrypt(f *testing.F) {
	f.Add(make([]byte, 10), uint64(0))
	f.Add([]byte("0123456789abcdef"), uint64(0xFFFFFFFFFFFFFFFF))
	f.Add([]byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef, 0x01, 0x23}, uint64(0xdeadbeefcafef00d))
	f.Fuzz(func(t *testing.T, key []byte, pt uint64) {
		if len(key) != KeyBytes {
			if _, err := Engine.Expand(key); err == nil {
				t.Fatalf("Expand accepted a %d-byte key", len(key))
			}
			return
		}
		rk, err := Engine.Expand(key)
		if err != nil {
			t.Fatalf("Expand rejected a %d-byte key: %v", len(key), err)
		}
		sb := SBox()
		ct := Engine.Encrypt(rk, &sb, pt)
		if back := Engine.Decrypt(rk, ct); back != pt {
			t.Fatalf("round trip: key %x pt %016x -> ct %016x -> %016x", key, pt, ct, back)
		}
		src := make([]byte, BlockSize)
		be.PutUint64(src, pt)
		dst := make([]byte, BlockSize)
		Engine.EncryptBatch(rk, sb[:], [][]byte{dst}, [][]byte{src})
		if be.Uint64(dst) != ct {
			t.Fatalf("byte form diverges from uint64 form: %x vs %016x", dst, ct)
		}
	})
}
