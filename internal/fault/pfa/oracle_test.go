package pfa

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"explframe/internal/cipher/registry"
	"explframe/internal/stats"
)

// The oracle is the map-based candidate derivation the allocation-free
// MultiFaultCandidates replaced, kept verbatim in behaviour: the
// differential fuzz below holds the production routine to its candidates
// (values and order) and its error class after every observation.

// oracleMissingCells returns the unique missing value of every cell,
// erroring while any cell is under- or over-determined.
func oracleMissingCells(c *Collector) ([]byte, error) {
	miss := make([]byte, c.cells)
	for i := 0; i < c.cells; i++ {
		m := c.Missing(i)
		switch {
		case len(m) == 0:
			return nil, fmt.Errorf("%w: cell %d has no missing value", ErrInconsistent, i)
		case len(m) > 1:
			return nil, fmt.Errorf("%w: cell %d has %d candidates", ErrUnderdetermined, i, len(m))
		}
		miss[i] = m[0]
	}
	return miss, nil
}

// oracleKnownFault is the single-fault elimination over oracleMissingCells.
func oracleKnownFault(c *Collector, yStar byte) ([]byte, error) {
	miss, err := oracleMissingCells(c)
	if err != nil {
		return nil, err
	}
	cells := make([]byte, c.cells)
	for i, m := range miss {
		cells[i] = m ^ (yStar & c.mask)
	}
	return c.c.AssembleLastRoundKey(cells), nil
}

// oracleCandidates is the map-based multi-fault candidate derivation.
func oracleCandidates(c *Collector, yStars []byte) ([][]byte, error) {
	if len(yStars) == 0 {
		return nil, fmt.Errorf("%w: no fault values given", ErrInconsistent)
	}
	cands := make([][]byte, c.cells)
	for i := 0; i < c.cells; i++ {
		miss := c.Missing(i)
		if len(miss) < len(yStars) {
			return cands, fmt.Errorf("%w: cell %d misses %d values, expected %d",
				ErrInconsistent, i, len(miss), len(yStars))
		}
		if len(miss) > len(yStars) {
			return cands, fmt.Errorf("%w: cell %d has %d missing values for %d faults",
				ErrUnderdetermined, i, len(miss), len(yStars))
		}
		missSet := make(map[byte]bool, len(miss))
		for _, m := range miss {
			missSet[m] = true
		}
		seen := make(map[byte]bool)
		for _, m := range miss {
			for _, y := range yStars {
				k := m ^ (y & c.mask)
				if seen[k] {
					continue
				}
				consistent := true
				for _, yy := range yStars {
					if !missSet[(yy&c.mask)^k] {
						consistent = false
						break
					}
				}
				if consistent {
					seen[k] = true
					cands[i] = append(cands[i], k)
				}
			}
		}
		if len(cands[i]) == 0 {
			return cands, fmt.Errorf("%w: cell %d matches no key", ErrInconsistent, i)
		}
	}
	return cands, nil
}

// errClass names the sentinel an error wraps.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrUnderdetermined):
		return "underdetermined"
	case errors.Is(err, ErrInconsistent):
		return "inconsistent"
	}
	return "other: " + err.Error()
}

// FuzzCollectorCandidates streams the ciphertexts of a random key under a
// table carrying 0–3 random in-datapath bit flips (repeats, chains and
// cancellations included) and, after every Observe, checks the incremental
// unseen-value counts and ResidualEntropy against a rescan of Missing, and
// MultiFaultCandidates and RecoverLastRoundKeyKnownFault against the
// oracle.  The hypothesis is FaultValues' vanished set; a table whose
// image is intact is a clean stream, attacked under one guessed vanished
// value, and must come out inconsistent.
func FuzzCollectorCandidates(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		for cipher := uint8(0); cipher < 3; cipher++ {
			f.Add(seed, cipher, uint8(seed-1))
		}
	}
	names := registry.Names()
	f.Fuzz(func(t *testing.T, seed uint64, cipher, faults uint8) {
		c := registry.MustGet(names[int(cipher)%len(names)])
		rng := stats.NewRNG(seed)
		key := make([]byte, c.KeyBytes())
		rng.Bytes(key)
		inst, err := c.New(key)
		if err != nil {
			t.Fatal(err)
		}
		table := c.SBox()
		for j := 0; j < int(faults%4); j++ {
			table[rng.Intn(c.TableLen())] ^= 1 << uint(rng.Intn(c.EntryBits()))
		}
		yStars, _ := FaultValues(c, table)
		clean := len(yStars) == 0
		if clean {
			yStars = []byte{c.SBox()[rng.Intn(c.TableLen())]}
		}

		col := NewCollector(c)
		pt := make([]byte, c.BlockSize())
		ct := make([]byte, c.BlockSize())
		var got error
		for n := 1; n <= 60*c.TableLen(); n++ {
			rng.Bytes(pt)
			inst.Encrypt(table, ct, pt)
			if err := col.Observe(ct); err != nil {
				t.Fatal(err)
			}
			entropy := 0.0
			for i := 0; i < col.Cells(); i++ {
				miss := len(col.Missing(i))
				if col.Unseen(i) != miss {
					t.Fatalf("n=%d cell %d: Unseen %d, Missing has %d", n, i, col.Unseen(i), miss)
				}
				entropy += stats.Log2(float64(miss))
			}
			if e := col.ResidualEntropy(); e != entropy {
				t.Fatalf("n=%d: ResidualEntropy %v, rescan %v", n, e, entropy)
			}
			cands, err := col.MultiFaultCandidates(yStars)
			want, wantErr := oracleCandidates(col, yStars)
			if errClass(err) != errClass(wantErr) {
				t.Fatalf("n=%d yStars=%x: candidates error %v, oracle %v", n, yStars, err, wantErr)
			}
			if err == nil && !slices.EqualFunc(cands, want, slices.Equal[[]byte]) {
				t.Fatalf("n=%d yStars=%x: candidates %x, oracle %x", n, yStars, cands, want)
			}
			if len(yStars) == 1 {
				k, kErr := col.RecoverLastRoundKeyKnownFault(yStars[0])
				wantK, wantKErr := oracleKnownFault(col, yStars[0])
				if errClass(kErr) != errClass(wantKErr) || !slices.Equal(k, wantK) {
					t.Fatalf("n=%d y*=%#x: known-fault %x (%v), oracle %x (%v)", n, yStars[0], k, kErr, wantK, wantKErr)
				}
			}
			if got = err; !errors.Is(err, ErrUnderdetermined) {
				break
			}
		}
		if clean && !errors.Is(got, ErrInconsistent) {
			t.Fatalf("clean stream under y*=%#x ended %v, want inconsistent", yStars[0], got)
		}
	})
}
