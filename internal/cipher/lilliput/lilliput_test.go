package lilliput

import (
	"bytes"
	"encoding/hex"
	"math/bits"
	"testing"
	"testing/quick"

	"explframe/internal/cipher/bitslice"
)

// Pinned known-answer vectors.  The cipher is a LILLIPUT-style SPN defined
// by this repository, so the vectors are generated by this implementation
// and committed: any change to the S-box, permutation, round count or key
// schedule breaks them loudly.
func TestKnownAnswerPinned(t *testing.T) {
	cases := []struct {
		key string
		pt  uint64
		ct  uint64
	}{
		{"00000000000000000000", 0x0000000000000000, 0x374F06AF41C96158},
		{"FFFFFFFFFFFFFFFFFFFF", 0x0000000000000000, 0xCBF516D3F600DA5A},
		{"00000000000000000000", 0xFFFFFFFFFFFFFFFF, 0x28DA4B23B694E46C},
		{"0123456789ABCDEF0123", 0x0011223344556677, 0xE5773C32E9069E74},
		{"A5A5A5A5A5A5A5A5A5A5", 0xDEADBEEFCAFEF00D, 0x8CAECACF5B95792A},
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
	for _, n := range []int{0, 8, 9, 11, 16} {
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
	// Bit i must move to 13*i mod 64.
	for i := 0; i < 64; i++ {
		got := Engine.PLayer(uint64(1) << uint(i))
		if got != uint64(1)<<uint(13*i%64) {
			t.Fatalf("bit %d moved to %064b", i, got)
		}
	}
}

// The permutation must scatter each nibble's four bits into four distinct
// nibbles — the diffusion property that keeps the SPN from decomposing into
// independent nibble streams.
func TestPLayerCrossNibbleDiffusion(t *testing.T) {
	for n := 0; n < 16; n++ {
		dest := map[int]bool{}
		for j := 0; j < 4; j++ {
			dest[(13*(4*n+j)%64)/4] = true
		}
		if len(dest) != 4 {
			t.Fatalf("nibble %d scatters into only %d nibbles", n, len(dest))
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
	f := func(key [KeyBytes]byte, pt uint64) bool {
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
	key := make([]byte, KeyBytes)
	rk, _ := Engine.Expand(key)
	sb := SBox()
	src := make([]byte, 8)
	dst := make([]byte, 8)
	Engine.EncryptBatch(rk, sb[:], [][]byte{dst}, [][]byte{src})
	want, _ := hex.DecodeString("374F06AF41C96158")
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
	rk, _ := Engine.Expand(make([]byte, KeyBytes))
	sb := SBox()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on short block")
		}
	}()
	Engine.EncryptBatch(rk, sb[:], [][]byte{make([]byte, 8)}, [][]byte{make([]byte, 3)})
}

// Avalanche sanity: flipping one plaintext bit must change many ciphertext
// bits after 30 rounds.
func TestAvalanche(t *testing.T) {
	key, _ := hex.DecodeString("0123456789ABCDEF0123")
	rk, _ := Engine.Expand(key)
	sb := SBox()
	base := Engine.Encrypt(rk, &sb, 0x0123456789ABCDEF)
	total := 0
	for i := 0; i < 64; i++ {
		flipped := Engine.Encrypt(rk, &sb, 0x0123456789ABCDEF^(uint64(1)<<uint(i)))
		total += bits.OnesCount64(base ^ flipped)
	}
	if avg := float64(total) / 64; avg < 24 || avg > 40 {
		t.Fatalf("average avalanche %.1f bits, want ~32", avg)
	}
}

// A single-bit fault in a used S-box entry must corrupt ciphertexts; a
// fault confined to the unused high nibble bits must be harmless.
func TestFaultedSBoxChangesOutput(t *testing.T) {
	rk, _ := Engine.Expand(make([]byte, KeyBytes))
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
	key, _ := hex.DecodeString("0123456789ABCDEF0123")
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

// The last-round structure PFA relies on: InvPLayer(c ^ K31) equals the
// S-box layer output of the final round.
func TestLastRoundStructure(t *testing.T) {
	key, _ := hex.DecodeString("0123456789ABCDEF0123")
	rk, _ := Engine.Expand(key)
	sb := SBox()
	pt := uint64(0xDEADBEEFCAFEF00D)

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
