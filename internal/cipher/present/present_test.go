package present

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"

	"explframe/internal/cipher/bitslice"
)

// Known-answer tests from the PRESENT paper (CHES 2007, Table 2).
func TestKnownAnswer80(t *testing.T) {
	cases := []struct {
		key string
		pt  uint64
		ct  uint64
	}{
		{"00000000000000000000", 0x0000000000000000, 0x5579C1387B228445},
		{"FFFFFFFFFFFFFFFFFFFF", 0x0000000000000000, 0xE72C46C0F5945049},
		{"00000000000000000000", 0xFFFFFFFFFFFFFFFF, 0xA112FFC72F68417B},
		{"FFFFFFFFFFFFFFFFFFFF", 0xFFFFFFFFFFFFFFFF, 0x3333DCD3213210D2},
	}
	sb := SBox()
	for _, tc := range cases {
		key, err := hex.DecodeString(tc.key)
		if err != nil {
			t.Fatal(err)
		}
		rk, err := Engine.Expand(key)
		if err != nil {
			t.Fatal(err)
		}
		if got := Engine.Encrypt(rk, &sb, tc.pt); got != tc.ct {
			t.Fatalf("key %s pt %016x: got %016x want %016x", tc.key, tc.pt, got, tc.ct)
		}
		if got := Engine.Decrypt(rk, tc.ct); got != tc.pt {
			t.Fatalf("key %s ct %016x: decrypt got %016x want %016x", tc.key, tc.ct, got, tc.pt)
		}
		// Same vector through the bitsliced core, replicated across a full
		// 64-lane batch and as a batch of one.
		for _, n := range []int{1, 64} {
			src := make([][]byte, n)
			dst := make([][]byte, n)
			for i := range src {
				src[i] = make([]byte, BlockSize)
				be.PutUint64(src[i], tc.pt)
				dst[i] = make([]byte, BlockSize)
			}
			Engine.EncryptBatch(rk, sb[:], dst, src)
			for i := range dst {
				if got := be.Uint64(dst[i]); got != tc.ct {
					t.Fatalf("key %s bitsliced lane %d/%d: got %016x want %016x", tc.key, i, n, got, tc.ct)
				}
			}
		}
	}
}

func TestExpandRejectsBadKeys(t *testing.T) {
	for _, n := range []int{0, 9, 11, 15, 17} {
		if _, err := Engine.Expand(make([]byte, n)); err == nil {
			t.Fatalf("key size %d accepted", n)
		}
	}
}

func TestPLayerInverse(t *testing.T) {
	f := func(x uint64) bool {
		return Engine.InvPLayer(Engine.PLayer(x)) == x && Engine.PLayer(Engine.InvPLayer(x)) == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestPLayerSpec(t *testing.T) {
	// Bit i must move to 16*i mod 63 (63 fixed).
	for i := 0; i < 64; i++ {
		want := uint(i * 16 % 63)
		if i == 63 {
			want = 63
		}
		got := Engine.PLayer(uint64(1) << uint(i))
		if got != uint64(1)<<want {
			t.Fatalf("bit %d moved to %064b", i, got)
		}
	}
}

func TestSBoxBijective(t *testing.T) {
	sb, isb := SBox(), InvSBox()
	seen := map[byte]bool{}
	for i, v := range sb {
		if v > 0xF {
			t.Fatalf("S-box entry %d out of range: %#x", i, v)
		}
		if seen[v] {
			t.Fatalf("S-box value %#x repeated", v)
		}
		seen[v] = true
		if isb[v] != byte(i) {
			t.Fatalf("inverse mismatch at %d", i)
		}
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	sb := SBox()
	f := func(key [10]byte, pt uint64) bool {
		rk, err := Engine.Expand(key[:])
		if err != nil {
			return false
		}
		return Engine.Decrypt(rk, Engine.Encrypt(rk, &sb, pt)) == pt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockForms(t *testing.T) {
	key, _ := hex.DecodeString("00000000000000000000")
	rk, _ := Engine.Expand(key)
	sb := SBox()
	src := make([]byte, 8)
	dst := make([]byte, 8)
	Engine.EncryptBatch(rk, sb[:], [][]byte{dst}, [][]byte{src})
	want, _ := hex.DecodeString("5579C1387B228445")
	if !bytes.Equal(dst, want) {
		t.Fatalf("EncryptBatch = %x", dst)
	}
	back := make([]byte, 8)
	be.PutUint64(back, Engine.Decrypt(rk, be.Uint64(dst)))
	if !bytes.Equal(back, src) {
		t.Fatal("byte-form round trip failed")
	}
}

func TestShortBlockPanics(t *testing.T) {
	rk, _ := Engine.Expand(make([]byte, 10))
	sb := SBox()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on short block")
		}
	}()
	Engine.EncryptBatch(rk, sb[:], [][]byte{make([]byte, 8)}, [][]byte{make([]byte, 3)})
}

// A single-bit fault in a used S-box entry must corrupt ciphertexts.
func TestFaultedSBoxChangesOutput(t *testing.T) {
	rk, _ := Engine.Expand(make([]byte, 10))
	clean := SBox()
	faulty := SBox()
	faulty[3] ^= 0x1
	var differs bool
	for pt := uint64(0); pt < 64; pt++ {
		if Engine.Encrypt(rk, &clean, pt) != Engine.Encrypt(rk, &faulty, pt) {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("fault never propagated")
	}
	// A fault confined to the unused high nibble bits must be harmless.
	masked := SBox()
	masked[3] ^= 0x80
	for pt := uint64(0); pt < 64; pt++ {
		if Engine.Encrypt(rk, &clean, pt) != Engine.Encrypt(rk, &masked, pt) {
			t.Fatal("high-nibble fault affected the datapath")
		}
	}
}

// Key schedule inversion via the last round key plus a known pair.
func TestRecoverMasterFromLastRound(t *testing.T) {
	key, _ := hex.DecodeString("0123456789abcdef0123")
	rk, _ := Engine.Expand(key)
	sb := SBox()
	pt := uint64(0x0011223344556677)
	ct := Engine.Encrypt(rk, &sb, pt)

	got, _, ok := Engine.RecoverMaster80(rk[Rounds], pt, ct, bitslice.RuledOut{})
	if !ok {
		t.Fatal("recovery failed")
	}
	if !bytes.Equal(got, key) {
		t.Fatalf("recovered %x want %x", got, key)
	}
}

// The last-round structure PFA relies on: InvPLayer(c ^ K32) equals the
// S-box layer output of the final round.
func TestLastRoundStructure(t *testing.T) {
	key, _ := hex.DecodeString("0123456789abcdef0123")
	rk, _ := Engine.Expand(key)
	sb := SBox()
	pt := uint64(0xdeadbeefcafef00d)

	// Recompute the state entering round 31's S-box layer.
	st := pt
	for r := 1; r <= Rounds-1; r++ {
		st ^= rk[r-1]
		st = substitute(st, &sb)
		st = Engine.PLayer(st)
	}
	st ^= rk[Rounds-1]
	sOut := substitute(st, &sb)

	ct := Engine.Encrypt(rk, &sb, pt)
	if Engine.InvPLayer(ct^rk[Rounds]) != sOut {
		t.Fatal("last-round structure violated")
	}
}

// substitute is the test's own S-box layer over the 16 nibbles of x,
// written apart from Engine's.
func substitute(x uint64, sb *[16]byte) uint64 {
	var out uint64
	for i := 0; i < 16; i++ {
		out |= uint64(sb[x>>uint(4*i)&0xF]&0xF) << uint(4*i)
	}
	return out
}
