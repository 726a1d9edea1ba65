// Key recovery against the registry's third victim, the LILLIPUT-style
// SPN — entirely through the cipher-agnostic interfaces.  Where the
// aes-key-recovery example calls its cipher package directly and
// present-key-recovery keeps a uint64 plaintext stream, this one touches
// nothing but internal/cipher/registry
// and the generic pfa.Collector: the code below would work unchanged for
// any registered cipher name, which is the point of the registry — adding a
// victim is one package plus one Register call, and every analysis tool
// follows for free.
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
	const victim = "lilliput-80" // try "present-80" or "aes-128": nothing below changes
	c := registry.MustGet(victim)
	rng := stats.NewRNG(5)

	key := make([]byte, c.KeyBytes())
	rng.Bytes(key)
	inst, err := c.New(key)
	if err != nil {
		log.Fatal(err)
	}

	// One clean known pair, captured before the fault landed; it resolves
	// the 16 key-register bits the last round key does not expose.
	cleanPT := make([]byte, c.BlockSize())
	rng.Bytes(cleanPT)
	cleanCT := make([]byte, c.BlockSize())
	inst.Encrypt(c.SBox(), cleanCT, cleanPT)

	// A single-bit fault in the table, as one Rowhammer flip produces.
	table := c.SBox()
	const faultedEntry = 0x9
	yStar := table[faultedEntry]
	table[faultedEntry] ^= 0x1
	fmt.Printf("%s victim, fault: S[%#x]: %#x -> %#x\n", c.Name(), faultedEntry, yStar, table[faultedEntry])

	collector := pfa.NewCollector(c)
	pt := make([]byte, c.BlockSize())
	ct := make([]byte, c.BlockSize())
	for n := 1; ; n++ {
		rng.Bytes(pt)
		inst.Encrypt(table, ct, pt)
		if err := collector.Observe(ct); err != nil {
			log.Fatal(err)
		}
		if n%20 != 0 {
			continue
		}
		fmt.Printf("n=%4d  residual last-round-key entropy %5.1f bits\n", n, collector.ResidualEntropy())
		got, err := collector.RecoverMasterKnownFault(yStar, cleanPT, cleanCT)
		if err != nil {
			continue
		}
		fmt.Printf("\nrecovered %d-bit master key after %d ciphertexts: %x\n", c.KeyBytes()*8, n, got)
		if !bytes.Equal(got, key) {
			log.Fatalf("mismatch: victim key was %x", key)
		}
		fmt.Println("matches the victim key.")
		return
	}
}
