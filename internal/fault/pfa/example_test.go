package pfa_test

import (
	"bytes"
	"fmt"

	"explframe/internal/cipher/aes"
	"explframe/internal/cipher/registry"
	"explframe/internal/fault/pfa"
	"explframe/internal/stats"
)

// ExampleCollector is the offline half of the ExplFrame attack in
// miniature (examples/pfa-key-recovery walks it through every registered
// cipher): a victim encrypts with an S-box carrying one Rowhammer-style bit
// flip, and the analyst recovers the AES-128 master key from ciphertexts
// alone plus the known flip location.
func ExampleCollector() {
	rng := stats.NewRNG(2024)

	// The victim's secret key, and the fault ExplFrame's templating step
	// promised: bit 5 of S-box entry 0xB7 flips.
	key := make([]byte, 16)
	rng.Bytes(key)
	ks, err := aes.Expand(key)
	if err != nil {
		panic(err)
	}
	table := aes.SBox()
	yStar := table[0xB7] // this S-box output value vanishes
	table[0xB7] ^= 1 << 5

	// The attacker passively observes ciphertexts of unknown plaintexts
	// until the missing-value analysis pins every key byte.
	collector := pfa.NewCollector(registry.MustGet("aes-128"))
	pt := make([]byte, 16)
	ct := make([]byte, 16)
	for n := 1; ; n++ {
		rng.Bytes(pt)
		aes.EncryptBlock(ks, &table, ct, pt)
		if err := collector.Observe(ct); err != nil {
			panic(err)
		}
		if n%250 != 0 {
			continue
		}
		master, err := collector.RecoverMasterKnownFault(yStar, nil, nil)
		if err != nil {
			continue // not enough ciphertexts yet
		}
		fmt.Printf("recovered the master key after %d ciphertexts: %v\n", n, bytes.Equal(master, key))
		return
	}
	// Output: recovered the master key after 2500 ciphertexts: true
}
