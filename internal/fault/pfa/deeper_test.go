package pfa

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"explframe/internal/cipher/bitslice"
	"explframe/internal/cipher/lilliput"
	"explframe/internal/cipher/present"
	"explframe/internal/cipher/registry"
	"explframe/internal/stats"
)

// The missing-value statistic one round deeper, on the ciphertexts the
// collector keeps: over 400 seeded single-bit fault trials per 80-bit
// cipher, each stopped where the collector first pins the last round key
// (as the PFA trials stop), RuleOut never rules out a true nibble of
// InvPLayer(K_{R-1}), and the guesses it leaves to the search never exceed
// one 64-lane pass.
func TestRuleOutKeepsTrueNibbles(t *testing.T) {
	for _, tc := range []struct {
		name string
		e    *bitslice.SPN64
	}{{"present-80", present.Engine}, {"lilliput-80", lilliput.Engine}} {
		c := registry.MustGet(tc.name)
		t.Run(tc.name, func(t *testing.T) {
			rng := stats.NewRNG(0xdee9)
			guesses := make([]int, 0, 400)
			for trial := 0; trial < 400; trial++ {
				key := make([]byte, c.KeyBytes())
				rng.Bytes(key)
				inst, err := c.New(key)
				if err != nil {
					t.Fatal(err)
				}
				pt, ct := cleanPair(t, c, key, rng)
				faulty := c.SBox()
				v := rng.Intn(c.TableLen())
				yStar := faulty[v]
				faulty[v] ^= byte(1 << uint(rng.Intn(c.EntryBits())))
				yPrime := faulty[v]
				col := NewCollector(c)
				fct := make([]byte, c.BlockSize())
				var last []byte
				for err = ErrUnderdetermined; err != nil; last, err = col.RecoverLastRoundKeyKnownFault(yStar) {
					rng.Bytes(fct)
					inst.Encrypt(faulty, fct, fct)
					if err := col.Observe(fct); err != nil {
						t.Fatal(err)
					}
				}
				if len(col.cts) != int(col.N())*c.BlockSize() {
					t.Fatalf("trial %d: collector kept %d bytes for %d ciphertexts", trial, len(col.cts), col.N())
				}
				k := binary.BigEndian.Uint64(last)
				out := tc.e.RuleOut(k, col.cts, yStar, yPrime)
				rk, _ := tc.e.Expand(key)
				truth := tc.e.InvPLayer(rk[tc.e.Rounds-1])
				for j, o := range out {
					if o>>(truth>>uint(4*j)&0xF)&1 != 0 {
						t.Fatalf("trial %d: nibble %d's true value %x ruled out (%04x)", trial, j, truth>>uint(4*j)&0xF, o)
					}
				}
				master, n, ok := tc.e.RecoverMaster80(k, binary.BigEndian.Uint64(pt), binary.BigEndian.Uint64(ct), out)
				if !ok || !bytes.Equal(master, key) {
					t.Fatalf("trial %d: recovered %x/%v, want %x", trial, master, ok, key)
				}
				if n > bitslice.Lanes {
					t.Fatalf("trial %d: %d guesses left after %d ciphertexts", trial, n, col.N())
				}
				guesses = append(guesses, n)
			}
			slices.Sort(guesses)
			sum := 0
			for _, n := range guesses {
				sum += n
			}
			t.Logf("guesses per recovery: mean %.2f, median %d, p90 %d, max %d", float64(sum)/float64(len(guesses)),
				guesses[len(guesses)/2], guesses[len(guesses)*9/10], guesses[len(guesses)-1])
		})
	}
}

// Only ciphers whose master-key completion searches keep ciphertexts for a
// hint: an AES collector observes thousands of blocks per trial and keeps
// none, so its Observe stays allocation-free.
func TestObserveKeepsOnlyForSearchingCiphers(t *testing.T) {
	for _, tc := range []struct {
		name string
		keep bool
	}{{"aes-128", false}, {"present-80", true}, {"lilliput-80", true}} {
		c := registry.MustGet(tc.name)
		col := NewCollector(c)
		ct := make([]byte, c.BlockSize())
		allocs := testing.AllocsPerRun(1000, func() {
			if err := col.Observe(ct); err != nil {
				t.Fatal(err)
			}
		})
		if kept := len(col.cts) != 0; kept != tc.keep {
			t.Errorf("%s: collector keeps ciphertexts = %v, want %v", tc.name, kept, tc.keep)
		}
		if !tc.keep && allocs != 0 {
			t.Errorf("%s: Observe allocates %.2f times", tc.name, allocs)
		}
	}
}
