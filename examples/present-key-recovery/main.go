// PRESENT-80 key recovery via persistent fault analysis: the block-cipher
// generality claim of the paper's title.  A nibble-level S-box fault leaks
// the last round key through missing values of the inverse permutation
// layer; the 80-bit master key follows from a 2^16 schedule inversion
// resolved against one clean known pair.
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"

	"explframe/internal/cipher/registry"
	"explframe/internal/fault/pfa"
	"explframe/internal/stats"
)

func main() {
	c := registry.MustGet("present-80")
	rng := stats.NewRNG(5)

	key := make([]byte, 10)
	rng.Bytes(key)
	inst, err := c.New(key)
	if err != nil {
		log.Fatal(err)
	}
	// encrypt enciphers one 64-bit plaintext under the given table.
	encrypt := func(table []byte, pt uint64) []byte {
		ct := make([]byte, 8)
		inst.Encrypt(table, ct, binary.BigEndian.AppendUint64(nil, pt))
		return ct
	}

	table := c.SBox()
	const faultedEntry = 0x9
	yStar := table[faultedEntry]
	table[faultedEntry] ^= 0x1
	fmt.Printf("fault: S[%#x]: %#x -> %#x\n", faultedEntry, yStar, table[faultedEntry])

	// One clean known pair, captured before the fault landed.
	cleanPT := rng.Uint64()
	cleanCT := encrypt(c.SBox(), cleanPT)

	collector := pfa.NewCollector(c)
	for n := 1; ; n++ {
		if err := collector.Observe(encrypt(table, rng.Uint64())); err != nil {
			log.Fatal(err)
		}
		if n%20 != 0 {
			continue
		}
		fmt.Printf("n=%4d  residual K32 entropy %5.1f bits\n", n, collector.ResidualEntropy())
		got, err := collector.RecoverMasterKnownFault(yStar, binary.BigEndian.AppendUint64(nil, cleanPT), cleanCT)
		if err != nil {
			continue
		}
		fmt.Printf("\nrecovered 80-bit master key after %d ciphertexts: %x\n", n, got)
		if !bytes.Equal(got, key) {
			log.Fatalf("mismatch: victim key was %x", key)
		}
		fmt.Println("matches the victim key.")
		return
	}
}
