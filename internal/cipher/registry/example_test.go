package registry_test

import (
	"fmt"

	"explframe/internal/cipher/registry"
)

// ExampleNames tours the victim-cipher registry the way cmd/explframe and
// experiment E15 consume it: every registered cipher exposes the S-box
// geometry the persistent-fault pipeline needs, so new victims plug in
// without touching the analysis code (examples/pfa-key-recovery runs the
// full attack on every one of them).
func ExampleNames() {
	for _, name := range registry.Names() {
		c := registry.MustGet(name)
		fmt.Printf("%s: %d-byte block, %d-byte key, %dx%d-bit table, %d PFA cells\n",
			name, c.BlockSize(), c.KeyBytes(), c.TableLen(), c.EntryBits(), registry.Cells(c))
	}
	// Output:
	// aes-128: 16-byte block, 16-byte key, 256x8-bit table, 16 PFA cells
	// lilliput-80: 8-byte block, 10-byte key, 16x4-bit table, 16 PFA cells
	// present-80: 8-byte block, 10-byte key, 16x4-bit table, 16 PFA cells
}
