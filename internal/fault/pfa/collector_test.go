package pfa

import (
	"bytes"
	"errors"
	"testing"

	"explframe/internal/cipher/registry"
	"explframe/internal/stats"
)

// collectFaulty streams n faulty ciphertexts of cipher c into col and
// returns the vanished and corrupted entry values.
func collectFaulty(t *testing.T, c registry.Cipher, key []byte, entry, bit, n int, rng *stats.RNG, col *Collector) (yStar, yPrime byte) {
	t.Helper()
	inst, err := c.New(key)
	if err != nil {
		t.Fatal(err)
	}
	faulty := c.SBox()
	yStar = faulty[entry]
	faulty[entry] ^= byte(1 << uint(bit))
	yPrime = faulty[entry]
	pt := make([]byte, c.BlockSize())
	ct := make([]byte, c.BlockSize())
	for i := 0; i < n; i++ {
		rng.Bytes(pt)
		inst.Encrypt(faulty, ct, pt)
		if err := col.Observe(ct); err != nil {
			t.Fatal(err)
		}
	}
	return yStar, yPrime
}

// cleanPair returns one plaintext/ciphertext pair under the canonical
// table, the pre-fault traffic the attacker can observe.
func cleanPair(t *testing.T, c registry.Cipher, key []byte, rng *stats.RNG) (pt, ct []byte) {
	t.Helper()
	inst, err := c.New(key)
	if err != nil {
		t.Fatal(err)
	}
	pt = make([]byte, c.BlockSize())
	rng.Bytes(pt)
	ct = make([]byte, c.BlockSize())
	inst.Encrypt(c.SBox(), ct, pt)
	return pt, ct
}

// The generic collector must recover the master key of every registered
// cipher with no cipher-specific code in the loop.  An attacker who does
// not know the vanished value learns it by trying each one: the clean
// known pair must reject every wrong hypothesis.
func TestGenericKnownAndUnknownFaultRecovery(t *testing.T) {
	for _, name := range registry.Names() {
		c := registry.MustGet(name)
		t.Run(name, func(t *testing.T) {
			rng := stats.NewRNG(31)
			key := make([]byte, c.KeyBytes())
			rng.Bytes(key)
			pt, ct := cleanPair(t, c, key, rng)

			col := NewCollector(c)
			entry := rng.Intn(c.TableLen())
			bit := rng.Intn(c.EntryBits())
			yStar, _ := collectFaulty(t, c, key, entry, bit, 40*c.TableLen(), rng, col)

			if col.Cells() != registry.Cells(c) {
				t.Fatalf("cells = %d", col.Cells())
			}
			if e := col.ResidualEntropy(); e != 0 {
				t.Fatalf("entropy %f after %d ciphertexts", e, col.N())
			}
			master, err := col.RecoverMasterKnownFault(yStar, pt, ct)
			if err != nil {
				t.Fatalf("known-fault recovery: %v", err)
			}
			if !bytes.Equal(master, key) {
				t.Fatalf("known-fault recovered %x want %x", master, key)
			}
			for y := 0; y < 1<<c.EntryBits(); y++ {
				if byte(y) == yStar {
					continue
				}
				if master, err := col.RecoverMasterKnownFault(byte(y), pt, ct); err == nil {
					t.Fatalf("wrong vanished value %#x accepted with key %x", y, master)
				}
			}
		})
	}
}

// Sparse observations must report underdetermined for every cipher, and a
// clean stream must be flagged inconsistent.
func TestGenericErrorTaxonomy(t *testing.T) {
	for _, name := range registry.Names() {
		c := registry.MustGet(name)
		t.Run(name, func(t *testing.T) {
			rng := stats.NewRNG(37)
			key := make([]byte, c.KeyBytes())
			rng.Bytes(key)

			col := NewCollector(c)
			collectFaulty(t, c, key, 0, 0, 2, rng, col)
			if _, err := col.RecoverLastRoundKeyKnownFault(0); !errors.Is(err, ErrUnderdetermined) {
				t.Fatalf("sparse data: %v", err)
			}

			clean := NewCollector(c)
			inst, _ := c.New(key)
			pt := make([]byte, c.BlockSize())
			ct := make([]byte, c.BlockSize())
			for i := 0; i < 60*c.TableLen(); i++ {
				rng.Bytes(pt)
				inst.Encrypt(c.SBox(), ct, pt)
				clean.Observe(ct)
			}
			if _, err := clean.RecoverLastRoundKeyKnownFault(0); !errors.Is(err, ErrInconsistent) {
				t.Fatalf("clean stream: %v", err)
			}
			if err := clean.Observe(make([]byte, c.BlockSize()+1)); err == nil {
				t.Fatal("bad ciphertext length accepted")
			}
		})
	}
}

// Multi-fault recovery on a 4-bit cipher: two corrupted entries flipping
// different bit indices are resolved by frequency scoring plus one
// known-pair verification (the odometer budget excludes a 2^16-deep
// enumeration, so this exercises the frequency fallback).
func TestGenericMultiFaultNibbleCipher(t *testing.T) {
	c := registry.MustGet("present-80")
	rng := stats.NewRNG(43)
	key := make([]byte, c.KeyBytes())
	rng.Bytes(key)
	pt, ct := cleanPair(t, c, key, rng)

	inst, _ := c.New(key)
	faulty := c.SBox()
	yStars := []byte{faulty[0x2], faulty[0xB]}
	faulty[0x2] ^= 0x4
	faulty[0xB] ^= 0x1
	yPrimes := []byte{faulty[0x2], faulty[0xB]}

	col := NewCollector(c)
	block := make([]byte, c.BlockSize())
	out := make([]byte, c.BlockSize())
	for i := 0; i < 4000; i++ {
		rng.Bytes(block)
		inst.Encrypt(faulty, out, block)
		col.Observe(out)
	}
	cands, err := col.MultiFaultCandidates(yStars)
	if err != nil {
		t.Fatal(err)
	}
	for i, list := range cands {
		if len(list) != 2 {
			t.Fatalf("cell %d has %d candidates, want 2 (XOR symmetry)", i, len(list))
		}
	}
	master, err := col.RecoverMasterMultiFaultWithPair(yStars, yPrimes, pt, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(master, key) {
		t.Fatalf("multi-fault recovered %x want %x", master, key)
	}
}
