package aes

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// FIPS-197 Appendix C.1 known-answer test (AES-128).
func TestKnownAnswerFIPS197(t *testing.T) {
	cases := []struct {
		key, pt, ct string
	}{
		{
			"000102030405060708090a0b0c0d0e0f",
			"00112233445566778899aabbccddeeff",
			"69c4e0d86a7b0430d8cdb78070b4c55a",
		},
	}
	for _, tc := range cases {
		key, pt, want := unhex(t, tc.key), unhex(t, tc.pt), unhex(t, tc.ct)
		ks, err := Expand(key)
		if err != nil {
			t.Fatal(err)
		}
		sb := SBox()
		got := make([]byte, 16)
		EncryptBlock(ks, &sb, got, pt)
		if !bytes.Equal(got, want) {
			t.Fatalf("key %s: got %x want %x", tc.key, got, want)
		}
		isb := InvSBox()
		back := make([]byte, 16)
		DecryptBlock(ks, &isb, back, got)
		if !bytes.Equal(back, pt) {
			t.Fatalf("key %s: decrypt got %x want %x", tc.key, back, pt)
		}
		// Same vector through the bitsliced core, replicated across a full
		// 64-lane batch and as a batch of one.
		for _, n := range []int{1, 64} {
			src := make([][]byte, n)
			dst := make([][]byte, n)
			for i := range src {
				src[i] = pt
				dst[i] = make([]byte, 16)
			}
			EncryptBlocksBitsliced(ks, &sb, dst, src)
			for i := range dst {
				if !bytes.Equal(dst[i], want) {
					t.Fatalf("key %s bitsliced lane %d/%d: got %x want %x", tc.key, i, n, dst[i], want)
				}
			}
		}
	}
}

// FIPS-197 Appendix B vector exercises a different key/plaintext pair.
func TestKnownAnswerAppendixB(t *testing.T) {
	key := unhex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	pt := unhex(t, "3243f6a8885a308d313198a2e0370734")
	want := unhex(t, "3925841d02dc09fbdc118597196a0b32")
	ks, err := Expand(key)
	if err != nil {
		t.Fatal(err)
	}
	sb := SBox()
	got := make([]byte, 16)
	EncryptBlock(ks, &sb, got, pt)
	if !bytes.Equal(got, want) {
		t.Fatalf("got %x want %x", got, want)
	}
}

func TestExpandRejectsBadKeys(t *testing.T) {
	for _, n := range []int{0, 1, 15, 17, 24, 31, 32, 33} {
		if _, err := Expand(make([]byte, n)); err == nil {
			t.Fatalf("key size %d accepted", n)
		}
	}
}

// Property: decrypt(encrypt(p)) == p for random keys and blocks.
func TestEncryptDecryptRoundTrip(t *testing.T) {
	sb, isb := SBox(), InvSBox()
	f := func(key [16]byte, pt [16]byte) bool {
		ks, err := Expand(key[:])
		if err != nil {
			return false
		}
		var ct, back [16]byte
		EncryptBlock(ks, &sb, ct[:], pt[:])
		DecryptBlock(ks, &isb, back[:], ct[:])
		return back == pt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The S-box must be a bijection and match its inverse.
func TestSBoxBijective(t *testing.T) {
	sb, isb := SBox(), InvSBox()
	seen := map[byte]bool{}
	for i := 0; i < 256; i++ {
		v := sb[i]
		if seen[v] {
			t.Fatalf("S-box value %#x repeated", v)
		}
		seen[v] = true
		if isb[v] != byte(i) {
			t.Fatalf("invSbox[sbox[%#x]] = %#x", i, isb[v])
		}
	}
}

// ShiftRows index tables must be inverse permutations of each other.
func TestShiftTablesInverse(t *testing.T) {
	for i := 0; i < 16; i++ {
		if invShift[shift[i]] != i {
			t.Fatalf("invShift[shift[%d]] = %d", i, invShift[shift[i]])
		}
		if ShiftRowsIndex(i) != shift[i] {
			t.Fatal("ShiftRowsIndex disagrees with table")
		}
	}
}

// Key schedule inversion: expanding a key and inverting from its last round
// key must return the master key.
func TestRecoverMasterFromLastRound(t *testing.T) {
	f := func(key [16]byte) bool {
		ks, err := Expand(key[:])
		if err != nil {
			return false
		}
		got := RecoverMasterFromLastRound(ks.RoundKey(10))
		return got == key
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A corrupted S-box entry must change ciphertexts (when the entry is used)
// and must follow the PFA structure: the original output value y* = S[v*]
// disappears from the final-round S-box image.
func TestFaultedSBoxChangesOutput(t *testing.T) {
	key := unhex(t, "000102030405060708090a0b0c0d0e0f")
	ks, _ := Expand(key)
	clean := SBox()
	faulty := SBox()
	faulty[0x12] ^= 0x40 // single-bit fault, as a Rowhammer flip produces

	pt := unhex(t, "00112233445566778899aabbccddeeff")
	var cClean, cFaulty [16]byte
	EncryptBlock(ks, &clean, cClean[:], pt)
	EncryptBlock(ks, &faulty, cFaulty[:], pt)
	if cClean == cFaulty {
		t.Fatal("fault did not propagate (improbable for a full encryption)")
	}

	// Decrypting the faulty ciphertext with the clean schedule must fail to
	// return the plaintext: the fault is persistent, not a key fault.
	isb := InvSBox()
	var back [16]byte
	DecryptBlock(ks, &isb, back[:], cFaulty[:])
	if bytes.Equal(back[:], pt) {
		t.Fatal("faulty ciphertext decrypted cleanly")
	}
}

// Last-round structure: ciphertext byte i equals sbox[state[shift[i]]] ^
// k10[i].  PFA's missing-value analysis relies on exactly this; verify it by
// recomputing the last round manually.
func TestLastRoundStructure(t *testing.T) {
	key := unhex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	ks, _ := Expand(key)
	sb := SBox()

	// Run the cipher up to the start of the last round by hand.
	pt := unhex(t, "3243f6a8885a308d313198a2e0370734")
	var st [16]byte
	copy(st[:], pt)
	addRoundKey(&st, &ks.rk[0])
	for r := 1; r < rounds; r++ {
		subShift(&st, &sb)
		for c := 0; c < 4; c++ {
			mixColumn(st[4*c : 4*c+4])
		}
		addRoundKey(&st, &ks.rk[r])
	}
	pre := st // state entering the final round

	var ct [16]byte
	EncryptBlock(ks, &sb, ct[:], pt)
	k10 := ks.RoundKey(10)
	for i := 0; i < 16; i++ {
		if ct[i] != sb[pre[shift[i]]]^k10[i] {
			t.Fatalf("byte %d: last-round structure violated", i)
		}
	}
}

func TestRoundKeyAccessors(t *testing.T) {
	ks, _ := Expand(make([]byte, 16))
	rk0 := ks.RoundKey(0)
	if rk0 != [16]byte{} {
		t.Fatal("whitening key of all-zero key must be zero")
	}
	// The all-zero key's last round key, a widely published AES-128
	// expansion vector.
	if rk10, want := ks.RoundKey(10), unhex(t, "b4ef5bcb3e92e21123e951cf6f8f188e"); !bytes.Equal(rk10[:], want) {
		t.Fatalf("round key 10 = %x, want %x", rk10, want)
	}
}

func TestShortBlockPanics(t *testing.T) {
	ks, _ := Expand(make([]byte, 16))
	sb := SBox()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on short block")
		}
	}()
	EncryptBlock(ks, &sb, make([]byte, 16), make([]byte, 7))
}
