package machine_test

import (
	"fmt"

	"explframe/internal/dram"
	"explframe/internal/machine"
)

// ExampleNames shows the built-in machine catalogue every scenario profile
// name resolves against.
func ExampleNames() {
	for _, name := range machine.Names() {
		ms := machine.MustGet(name)
		fmt.Printf("%s: %d MiB, %s mapper\n", name, ms.Geometry.TotalBytes()>>20, ms.MapperName())
	}
	// Output:
	// ddr4: 512 MiB, xor-fold mapper
	// default: 256 MiB, linear mapper
	// fast: 32 MiB, linear mapper
	// server-1g: 1024 MiB, linear mapper
	// trr-hardened: 32 MiB, linear mapper
}

// ExampleSpec_KernelConfig builds an anonymous machine with options and
// lowers it onto the kernel layer — the path every scenario run takes.
func ExampleSpec_KernelConfig() {
	ms := machine.New("",
		machine.WithGeometry(dram.Geometry{Banks: 8, Rows: 2048, RowBytes: 4096}),
		machine.WithMapper(dram.MapperXORFold),
		machine.WithCPUs(4),
	)
	fmt.Println("valid:", ms.Validate() == nil)
	fmt.Println("handle:", ms.CanonicalName()[:7]+"...")
	kc := ms.KernelConfig(7)
	fmt.Printf("kernel: %d cpus, %s mapper, seed %d\n", kc.NumCPUs, kc.Mapper, kc.Seed)
	// Output:
	// valid: true
	// handle: custom-...
	// kernel: 4 cpus, xor-fold mapper, seed 7
}
