// Key recovery via persistent fault analysis: the offline half of the
// ExplFrame attack, runnable standalone, against every victim in the cipher
// registry.  Each victim encrypts with an S-box carrying a single
// Rowhammer-style bit flip; the analyst recovers the full master key from
// ciphertexts of unknown plaintexts, the known flip location and one clean
// known pair.  The loop touches nothing but internal/cipher/registry and the
// generic pfa.Collector, so it runs unchanged for any registered cipher:
// adding a victim is one package plus one registry entry, and every
// analysis tool follows for free.
package main

import (
	"bytes"
	"fmt"
	"log"

	"explframe/internal/cipher/registry"
	"explframe/internal/fault/pfa"
	"explframe/internal/stats"
)

func main() {
	rng := stats.NewRNG(5)
	for _, name := range registry.Names() {
		if err := recoverKey(registry.MustGet(name), rng); err != nil {
			log.Fatal(err)
		}
	}
}

// recoverKey attacks one victim under a fresh random key and checks the
// recovered master key against it.
func recoverKey(c registry.Cipher, rng *stats.RNG) error {
	key := make([]byte, c.KeyBytes())
	rng.Bytes(key)
	inst, err := c.New(key)
	if err != nil {
		return err
	}

	// One clean known pair, captured before the fault landed; it resolves
	// the key-register bits an 80-bit cipher's last round key does not
	// expose (AES-128's schedule inverts without it).
	cleanPT := make([]byte, c.BlockSize())
	rng.Bytes(cleanPT)
	cleanCT := make([]byte, c.BlockSize())
	inst.Encrypt(c.SBox(), cleanCT, cleanPT)

	// A single-bit fault in the table, as one Rowhammer flip produces: the
	// templating step told the attacker which entry and bit flip.
	table := c.SBox()
	entry := rng.Intn(len(table))
	yStar := table[entry] // the S-box output that will vanish
	table[entry] ^= 1 << rng.Intn(c.EntryBits())
	fmt.Printf("%s victim, fault: S[%#x]: %#x -> %#x\n", c.Name(), entry, yStar, table[entry])

	// The attacker passively observes ciphertexts, trying a recovery once
	// per table length of them.
	collector := pfa.NewCollector(c)
	pt := make([]byte, c.BlockSize())
	ct := make([]byte, c.BlockSize())
	for n := 1; ; n++ {
		rng.Bytes(pt)
		inst.Encrypt(table, ct, pt)
		if err := collector.Observe(ct); err != nil {
			return err
		}
		if n%len(table) != 0 {
			continue
		}
		fmt.Printf("n=%5d  residual last-round-key entropy %6.1f bits\n", n, collector.ResidualEntropy())
		// The flipped entry's new value now appears twice, which lets an
		// 80-bit cipher read its hidden key bits off the ciphertexts.
		got, err := collector.RecoverMasterMultiFaultWithPair([]byte{yStar}, []byte{table[entry]}, cleanPT, cleanCT)
		if err != nil {
			continue
		}
		if !bytes.Equal(got, key) {
			return fmt.Errorf("%s: recovered %x, victim key was %x", c.Name(), got, key)
		}
		fmt.Printf("recovered the %d-bit master key after %d ciphertexts: %x\n\n", c.KeyBytes()*8, n, got)
		return nil
	}
}
