// AES key recovery via persistent fault analysis: the offline half of the
// ExplFrame attack, runnable standalone.  A victim encrypts with an S-box
// carrying a single Rowhammer-style bit flip; the analyst recovers the full
// AES-128 master key from ciphertexts alone and the known flip location.
package main

import (
	"bytes"
	"fmt"
	"log"

	"explframe/internal/cipher/aes"
	"explframe/internal/cipher/registry"
	"explframe/internal/fault/pfa"
	"explframe/internal/stats"
)

func main() {
	rng := stats.NewRNG(2024)

	// The victim's secret key and its faulted S-box: ExplFrame's templating
	// step told the attacker that bit 5 of table entry 0xB7 flips.
	key := make([]byte, 16)
	rng.Bytes(key)
	ks, err := aes.Expand(key)
	if err != nil {
		log.Fatal(err)
	}
	table := aes.SBox()
	const faultedEntry = 0xB7
	const faultedBit = 5
	yStar := table[faultedEntry] // the S-box output that will vanish
	table[faultedEntry] ^= 1 << faultedBit
	fmt.Printf("fault: S[%#02x]: %#02x -> %#02x\n", faultedEntry, yStar, table[faultedEntry])

	// The attacker passively observes ciphertexts of unknown plaintexts.
	collector := pfa.NewCollector(registry.MustGet("aes-128"))
	pt := make([]byte, 16)
	ct := make([]byte, 16)
	for n := 1; ; n++ {
		rng.Bytes(pt)
		aes.EncryptBlock(ks, &table, ct, pt)
		if err := collector.Observe(ct); err != nil {
			log.Fatal(err)
		}
		if n%250 != 0 {
			continue
		}
		fmt.Printf("n=%5d  residual key entropy %6.1f bits\n", n, collector.ResidualEntropy())
		master, err := collector.RecoverMasterKnownFault(yStar, nil, nil)
		if err != nil {
			continue
		}
		fmt.Printf("\nrecovered master key after %d ciphertexts: %x\n", n, master)
		if !bytes.Equal(master, key) {
			log.Fatalf("mismatch: victim key was %x", key)
		}
		fmt.Println("matches the victim key.")
		return
	}
}
