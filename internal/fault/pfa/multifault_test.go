package pfa

import (
	"bytes"
	"errors"
	"testing"

	"explframe/internal/cipher/aes"
	"explframe/internal/stats"
)

// Two simultaneous S-box faults: elimination leaves two candidates per
// position; the frequency pass resolves them.
func TestMultiFaultRecovery(t *testing.T) {
	key := []byte("multifault-key-1")
	ks, _ := aes.Expand(key)
	faulty := aes.SBox()
	yStars := []byte{faulty[0x20], faulty[0x85]}
	faulty[0x20] ^= 0x40
	faulty[0x85] ^= 0x02
	yPrimes := []byte{faulty[0x20], faulty[0x85]}

	rng := stats.NewRNG(47)
	c := newAES()
	pt := make([]byte, 16)
	ct := make([]byte, 16)
	for i := 0; i < 30000; i++ {
		rng.Bytes(pt)
		aes.EncryptBlock(ks, &faulty, ct, pt)
		c.Observe(ct)
	}

	cands, err := c.MultiFaultCandidates(yStars)
	if err != nil {
		t.Fatal(err)
	}
	k10 := ks.RoundKey(10)
	for i := 0; i < 16; i++ {
		if len(cands[i]) != 2 {
			t.Fatalf("position %d has %d candidates, want 2 (XOR symmetry)", i, len(cands[i]))
		}
		found := false
		for _, k := range cands[i] {
			if k == k10[i] {
				found = true
			}
		}
		if !found {
			t.Fatalf("true key byte eliminated at position %d", i)
		}
	}

	got, err := c.RecoverLastRoundKeyMultiFault(yStars, yPrimes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, k10[:]) {
		t.Fatalf("multi-fault recovered %x want %x", got, k10)
	}
	master := aes.RecoverMasterFromLastRound([16]byte(got))
	if string(master[:]) != string(key) {
		t.Fatalf("master %x want %x", master, key)
	}
}

func TestMultiFaultErrors(t *testing.T) {
	c := newAES()
	if _, err := c.MultiFaultCandidates(nil); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("empty yStars: %v", err)
	}
	// Too few ciphertexts: more missing values than faults.
	key := []byte("multifault-key-2")
	ks, _ := aes.Expand(key)
	faulty := aes.SBox()
	faulty[0x01] ^= 0x04
	yStar := []byte{aes.SBox()[0x01]}
	pt := make([]byte, 16)
	ct := make([]byte, 16)
	aes.EncryptBlock(ks, &faulty, ct, pt)
	c.Observe(ct)
	if _, err := c.MultiFaultCandidates(yStar); !errors.Is(err, ErrUnderdetermined) {
		t.Fatalf("sparse data: %v", err)
	}
	if _, err := c.RecoverLastRoundKeyMultiFault([]byte{1, 2}, []byte{3}); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("length mismatch: %v", err)
	}
}

// Single-fault input must reduce MultiFaultCandidates to the plain
// elimination result.
func TestMultiFaultReducesToSingle(t *testing.T) {
	key := []byte("single-as-multi!")
	ks, _ := aes.Expand(key)
	faulty := aes.SBox()
	yStar := faulty[0x7a]
	faulty[0x7a] ^= 0x80

	rng := stats.NewRNG(53)
	c := newAES()
	pt := make([]byte, 16)
	ct := make([]byte, 16)
	for i := 0; i < 8000; i++ {
		rng.Bytes(pt)
		aes.EncryptBlock(ks, &faulty, ct, pt)
		c.Observe(ct)
	}
	cands, err := c.MultiFaultCandidates([]byte{yStar})
	if err != nil {
		t.Fatal(err)
	}
	single, err := c.RecoverLastRoundKeyKnownFault(yStar)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if len(cands[i]) != 1 || cands[i][0] != single[i] {
			t.Fatalf("position %d: multi %v vs single %#x", i, cands[i], single[i])
		}
	}
}
