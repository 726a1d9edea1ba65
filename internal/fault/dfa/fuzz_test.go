package dfa_test

import (
	"bytes"
	"errors"
	"testing"

	"explframe/internal/cipher/registry"
	"explframe/internal/fault"
	"explframe/internal/fault/dfa"
	"explframe/internal/stats"
)

// FuzzDFARecover drives every registered analyzer with honestly collected
// pairs under arbitrary keys and checks the recovery invariants: honest
// pairs can never contradict their own fault model (ErrNoCandidates), and
// whenever the analysis pins a unique key, the completed master must
// re-encrypt fresh known vectors exactly like the victim.  Run with:
// go test -fuzz=FuzzDFARecover ./internal/fault/dfa
func FuzzDFARecover(f *testing.F) {
	f.Add(uint64(1), []byte{})
	f.Add(uint64(42), []byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF})
	f.Fuzz(func(t *testing.T, seed uint64, keyMat []byte) {
		for _, name := range dfa.Names() {
			c := registry.MustGet(name)
			a := dfa.MustGet(name)
			rng := stats.NewStream(seed, stats.FNV64(name))
			key := make([]byte, c.KeyBytes())
			rng.Bytes(key)
			for i := 0; i < len(key) && i < len(keyMat); i++ {
				key[i] = keyMat[i]
			}
			inst, err := c.New(key)
			if err != nil {
				t.Fatal(err)
			}
			table := c.SBox()

			// A fixed budget of precise-byte faults, cycled over the byte
			// positions so every key group gets constrained.
			pairs := make([]dfa.Pair, 0, 12)
			for n := 0; n < cap(pairs); n++ {
				m := fault.New(fault.PreciseByte, fault.WithPosition(n%c.BlockSize()))
				ps, err := dfa.CollectPairs(c, inst, table, 1, m, rng)
				if err != nil {
					t.Fatalf("%s: collect: %v", name, err)
				}
				pairs = append(pairs, ps...)
			}
			res, err := a.Analyze(pairs, fault.New(fault.PreciseByte))
			if err != nil {
				if errors.Is(err, dfa.ErrNoCandidates) {
					t.Fatalf("%s: honest pairs contradicted their own fault model", name)
				}
				t.Fatalf("%s: analyze: %v", name, err)
			}
			if res.KeySpaceBits < 0 {
				t.Fatalf("%s: negative key space %f", name, res.KeySpaceBits)
			}
			if !res.Unique {
				continue // a starved corner; uniqueness is not guaranteed
			}
			if !bytes.Equal(res.Master, key) {
				t.Fatalf("%s: unique but wrong master %x (want %x)", name, res.Master, key)
			}
			// The decisive check: the recovered master must behave like the
			// victim key on vectors the analysis never saw.
			recovered, err := c.New(res.Master)
			if err != nil {
				t.Fatalf("%s: recovered master rejected: %v", name, err)
			}
			pt := make([]byte, c.BlockSize())
			want := make([]byte, c.BlockSize())
			got := make([]byte, c.BlockSize())
			for v := 0; v < 2; v++ {
				rng.Bytes(pt)
				inst.Encrypt(c.SBox(), want, pt)
				recovered.Encrypt(c.SBox(), got, pt)
				if !bytes.Equal(want, got) {
					t.Fatalf("%s: recovered master diverges on a fresh vector", name)
				}
			}
		}
	})
}
