package pfa

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"explframe/internal/cipher/aes"
	"explframe/internal/cipher/present"
	"explframe/internal/cipher/registry"
	"explframe/internal/stats"
)

// newAES and newPresent return empty collectors for the two ciphers these
// tests attack.
func newAES() *Collector     { return NewCollector(registry.MustGet("aes-128")) }
func newPresent() *Collector { return NewCollector(registry.MustGet("present-80")) }

// presentInstance keys PRESENT-80 through the registry.
func presentInstance(t *testing.T, key []byte) registry.Instance {
	t.Helper()
	inst, err := registry.MustGet("present-80").New(key)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// presentCT enciphers the 64-bit plaintext pt under inst and table.
func presentCT(inst registry.Instance, table []byte, pt uint64) []byte {
	ct := make([]byte, 8)
	inst.Encrypt(table, ct, binary.BigEndian.AppendUint64(nil, pt))
	return ct
}

// faultyAESStream produces n ciphertexts of random plaintexts under a
// cipher whose S-box entry vIdx has bit 'bit' flipped.
func faultyAESStream(t *testing.T, key []byte, vIdx int, bit uint8, n int, rng *stats.RNG, c *Collector) (yStar byte) {
	t.Helper()
	ks, err := aes.Expand(key)
	if err != nil {
		t.Fatal(err)
	}
	faulty := aes.SBox()
	yStar = faulty[vIdx]
	faulty[vIdx] ^= 1 << bit
	pt := make([]byte, 16)
	ct := make([]byte, 16)
	for i := 0; i < n; i++ {
		rng.Bytes(pt)
		aes.EncryptBlock(ks, &faulty, ct, pt)
		if err := c.Observe(ct); err != nil {
			t.Fatal(err)
		}
	}
	return yStar
}

func TestAESKnownFaultRecovery(t *testing.T) {
	key := []byte("0123456789abcdef")
	rng := stats.NewRNG(7)
	c := newAES()
	yStar := faultyAESStream(t, key, 0x42, 3, 6000, rng, c)

	k10, err := c.RecoverLastRoundKeyKnownFault(yStar)
	if err != nil {
		t.Fatalf("recovery failed after %d ciphertexts: %v", c.N(), err)
	}
	ks, _ := aes.Expand(key)
	if want := ks.RoundKey(10); !bytes.Equal(k10, want[:]) {
		t.Fatalf("recovered %x want %x", k10, want)
	}

	master, err := c.RecoverMasterKnownFault(yStar, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(master, key) {
		t.Fatalf("master %x want %x", master, key)
	}
}

func TestAESUnderdeterminedWithFewCiphertexts(t *testing.T) {
	key := []byte("0123456789abcdef")
	rng := stats.NewRNG(3)
	c := newAES()
	yStar := faultyAESStream(t, key, 0x10, 0, 40, rng, c)
	if _, err := c.RecoverLastRoundKeyKnownFault(yStar); !errors.Is(err, ErrUnderdetermined) {
		t.Fatalf("expected underdetermined, got %v", err)
	}
	if e := c.ResidualEntropy(); e <= 0 {
		t.Fatalf("residual entropy should be positive at n=40, got %f", e)
	}
}

// Residual entropy must be non-increasing in the number of ciphertexts and
// reach zero by the time recovery succeeds.
func TestAESEntropyMonotone(t *testing.T) {
	key := []byte("entropy-test-key")
	rng := stats.NewRNG(5)
	ks, _ := aes.Expand(key)
	faulty := aes.SBox()
	yStar := faulty[0x77]
	faulty[0x77] ^= 0x20

	c := newAES()
	pt := make([]byte, 16)
	ct := make([]byte, 16)
	prev := 128.0
	for step := 0; step < 14; step++ {
		for i := 0; i < 500; i++ {
			rng.Bytes(pt)
			aes.EncryptBlock(ks, &faulty, ct, pt)
			c.Observe(ct)
		}
		e := c.ResidualEntropy()
		if e > prev+1e-9 {
			t.Fatalf("entropy increased: %f -> %f", prev, e)
		}
		prev = e
	}
	if prev != 0 {
		t.Fatalf("entropy %f after %d ciphertexts", prev, c.N())
	}
	if _, err := c.RecoverLastRoundKeyKnownFault(yStar); err != nil {
		t.Fatal(err)
	}
}

// A fault-free stream must be detected as inconsistent (no missing value).
func TestAESCleanStreamInconsistent(t *testing.T) {
	key := []byte("0123456789abcdef")
	ks, _ := aes.Expand(key)
	sb := aes.SBox()
	rng := stats.NewRNG(9)
	c := newAES()
	pt := make([]byte, 16)
	ct := make([]byte, 16)
	for i := 0; i < 8000; i++ {
		rng.Bytes(pt)
		aes.EncryptBlock(ks, &sb, ct, pt)
		c.Observe(ct)
	}
	if _, err := c.RecoverLastRoundKeyKnownFault(0x63); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("expected inconsistent, got %v", err)
	}
}

func TestAESObserveRejectsBadLength(t *testing.T) {
	c := newAES()
	if err := c.Observe(make([]byte, 15)); err == nil {
		t.Fatal("short ciphertext accepted")
	}
}

// The doubled value y' ^ k_i becomes the most frequent value of every
// cell, the frequency property the multi-fault ranking relies on.
func TestAESMostFrequentConvergesToDoubledValue(t *testing.T) {
	key := []byte("0123456789abcdef")
	ks, _ := aes.Expand(key)
	faulty := aes.SBox()
	faulty[0x42] ^= 0x08
	yPrime := faulty[0x42]

	rng := stats.NewRNG(13)
	c := newAES()
	pt := make([]byte, 16)
	ct := make([]byte, 16)
	for i := 0; i < 20000; i++ {
		rng.Bytes(pt)
		aes.EncryptBlock(ks, &faulty, ct, pt)
		c.Observe(ct)
	}
	k10 := ks.RoundKey(10)
	hits := 0
	for i := 0; i < 16; i++ {
		var mf byte
		for v, n := range c.count[i] {
			if n > c.count[i][mf] {
				mf = byte(v)
			}
		}
		if mf == yPrime^k10[i] {
			hits++
		}
	}
	if hits < 12 { // statistical: allow a few positions to miss at n=20k
		t.Fatalf("most-frequent matched y'^k at only %d/16 positions", hits)
	}
}

func TestPresentKnownFaultRecovery(t *testing.T) {
	key := []byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef, 0x01, 0x23}
	inst := presentInstance(t, key)
	faulty := registry.MustGet("present-80").SBox()
	yStar := faulty[0x5]
	faulty[0x5] ^= 0x2

	rng := stats.NewRNG(17)
	c := newPresent()
	for i := 0; i < 400; i++ {
		c.Observe(presentCT(inst, faulty, rng.Uint64()))
	}
	k32, err := c.RecoverLastRoundKeyKnownFault(yStar)
	if err != nil {
		t.Fatalf("after %d ciphertexts: %v", c.N(), err)
	}
	rk, _ := present.Engine.Expand(key)
	if got := binary.BigEndian.Uint64(k32); got != rk[present.Rounds] {
		t.Fatalf("K32 = %016x want %016x", got, rk[present.Rounds])
	}

	// Master key recovery with one clean known pair.
	pt := binary.BigEndian.AppendUint64(nil, 0x1122334455667788)
	ct := presentCT(inst, registry.MustGet("present-80").SBox(), 0x1122334455667788)
	master, err := c.RecoverMasterKnownFault(yStar, pt, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(master, key) {
		t.Fatalf("master %x want %x", master, key)
	}
}

func TestPresentEntropyDecreases(t *testing.T) {
	key := make([]byte, 10)
	inst := presentInstance(t, key)
	faulty := registry.MustGet("present-80").SBox()
	faulty[0x0] ^= 0x1

	rng := stats.NewRNG(29)
	c := newPresent()
	if e := c.ResidualEntropy(); e != 64 {
		t.Fatalf("empty collector entropy = %f, want 64", e)
	}
	for i := 0; i < 300; i++ {
		c.Observe(presentCT(inst, faulty, rng.Uint64()))
	}
	if e := c.ResidualEntropy(); e != 0 {
		t.Fatalf("entropy after 300 = %f", e)
	}
}

// PRESENT nibble positions see only 15 of 16 values under a fault; with few
// ciphertexts recovery must report underdetermined, not wrong keys.
func TestPresentUnderdetermined(t *testing.T) {
	key := make([]byte, 10)
	inst := presentInstance(t, key)
	faulty := registry.MustGet("present-80").SBox()
	faulty[0x7] ^= 0x8
	c := newPresent()
	c.Observe(presentCT(inst, faulty, 1))
	if _, err := c.RecoverLastRoundKeyKnownFault(0); !errors.Is(err, ErrUnderdetermined) {
		t.Fatalf("expected underdetermined, got %v", err)
	}
}
