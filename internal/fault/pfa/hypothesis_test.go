package pfa

import (
	"errors"
	"slices"
	"testing"

	"explframe/internal/cipher/registry"
	"explframe/internal/stats"
)

// FaultValues is the multiset difference between the canonical S-box and
// the corrupted table, masked to the datapath width.
func TestFaultValues(t *testing.T) {
	type flip struct {
		entry int
		bit   uint
	}
	for _, tc := range []struct {
		name, cipher      string
		flips             []flip
		vanished, doubled []byte
	}{
		{"aes single flip", "aes-128", []flip{{0x42, 3}}, []byte{0x2c}, []byte{0x24}},
		// Entry 19 takes entry 139's original value 0x3d, and 139 moves on
		// to 0x2d: 0x3d is still in the image, so only the chain's ends show.
		{"aes chain", "aes-128", []flip{{19, 6}, {139, 4}}, []byte{0x7d}, []byte{0x2d}},
		{"aes swap", "aes-128", []flip{{0, 3}, {5, 3}}, nil, nil},
		{"aes two flips onto one value", "aes-128", []flip{{0, 4}, {2, 2}}, []byte{0x63, 0x77}, []byte{0x73, 0x73}},
		{"present single flip", "present-80", []flip{{5, 2}}, []byte{0x0}, []byte{0x4}},
		{"present flip above datapath", "present-80", []flip{{5, 6}}, nil, nil},
		{"present swap", "present-80", []flip{{0, 0}, {7, 0}}, nil, nil},
		{"present two flips onto one value", "present-80", []flip{{0, 1}, {10, 0}}, []byte{0xc, 0xf}, []byte{0xe, 0xe}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := registry.MustGet(tc.cipher)
			table := c.SBox()
			for _, f := range tc.flips {
				table[f.entry] ^= 1 << f.bit
			}
			before := slices.Clone(table)
			vanished, doubled := FaultValues(c, table)
			if !slices.Equal(vanished, tc.vanished) || !slices.Equal(doubled, tc.doubled) {
				t.Fatalf("FaultValues = %x, %x; want %x, %x", vanished, doubled, tc.vanished, tc.doubled)
			}
			if !slices.Equal(table, before) {
				t.Fatal("FaultValues modified the table")
			}
		})
	}
}

// Readiness is polled after every ciphertext, so an under-determined
// recovery call must return the bare sentinel without allocating — both
// before any cell is settled and once the first one is.
func TestUnderdeterminedRecoveryAllocatesNothing(t *testing.T) {
	for _, name := range []string{"aes-128", "present-80"} {
		c := registry.MustGet(name)
		t.Run(name, func(t *testing.T) {
			rng := stats.NewRNG(59)
			key := make([]byte, c.KeyBytes())
			rng.Bytes(key)
			pt, ct := cleanPair(t, c, key, rng)
			col := NewCollector(c)
			yStar, yPrime := collectFaulty(t, c, key, 1, 0, 2, rng, col)
			yStars, yPrimes := []byte{yStar}, []byte{yPrime}
			calls := []struct {
				name string
				f    func() error
			}{
				{"RecoverLastRoundKeyKnownFault", func() error { _, err := col.RecoverLastRoundKeyKnownFault(yStar); return err }},
				{"RecoverMasterKnownFault", func() error { _, err := col.RecoverMasterKnownFault(yStar, pt, ct); return err }},
				{"RecoverMasterMultiFaultWithPair", func() error {
					_, err := col.RecoverMasterMultiFaultWithPair(yStars, yPrimes, pt, ct)
					return err
				}},
			}
			check := func(stage string) {
				t.Helper()
				for _, call := range calls {
					if err := call.f(); !errors.Is(err, ErrUnderdetermined) {
						t.Fatalf("%s %s: %v, want underdetermined", stage, call.name, err)
					}
					if n := testing.AllocsPerRun(100, func() { call.f() }); n != 0 {
						t.Errorf("%s %s allocates %.0f times", stage, call.name, n)
					}
				}
			}
			check("sparse")
			settled := func() bool {
				for i := 0; i < col.Cells(); i++ {
					if col.Unseen(i) == 1 {
						return true
					}
				}
				return false
			}
			for !settled() {
				collectFaulty(t, c, key, 1, 0, 1, rng, col)
			}
			check("one cell settled")
		})
	}
}
