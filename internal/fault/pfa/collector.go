package pfa

import (
	"cmp"
	"fmt"
	"slices"

	"explframe/internal/cipher/registry"
	"explframe/internal/stats"
)

// Collector is the cipher-agnostic persistent-fault collector: it
// accumulates faulty ciphertexts of any registered cipher and recovers keys
// from the missing-value and frequency statistics of the cipher's
// last-round cells.
//
// The analysis only uses registry.Cipher metadata: LastRoundCells inverts
// the final linear layer, so cell i of every observation equals
// S(x_i) ^ k_i over the cipher's EntryBits-wide alphabet.  A corrupted
// table removes the values FaultValues calls vanished from the S-box image,
// so each y* ^ k_i vanishes from cell i — and the doubled values y' appear
// with raised probability.  Everything else (alphabet size, cell count,
// last-round key assembly, master-key completion) comes from the
// interface, which is what lets one collector serve AES-128, PRESENT-80
// and the LILLIPUT-style victim alike.
type Collector struct {
	c       registry.Cipher
	cells   int
	mask    byte
	count   [][]uint64 // count[i][v]: observations with value v at cell i
	missing []int      // missing[i]: values never observed at cell i
	n       uint64
	cellBuf []byte // scratch for LastRoundCells, keeps Observe allocation-free
	// cts holds every observed ciphertext back to back, kept only when
	// keep: for ciphers whose master-key completion searches, which a
	// single-fault hint (registry.FaultHint) narrows.
	cts  []byte
	keep bool
}

// NewCollector returns an empty collector for the given cipher.
func NewCollector(c registry.Cipher) *Collector {
	cells := registry.Cells(c)
	vals := 1 << uint(c.EntryBits())
	col := &Collector{c: c, cells: cells, mask: byte(vals - 1), cellBuf: make([]byte, cells), keep: c.RecoverCost() > 1}
	col.count = make([][]uint64, cells)
	col.missing = make([]int, cells)
	for i := range col.count {
		col.count[i] = make([]uint64, vals)
		col.missing[i] = vals
	}
	return col
}

// FaultValues is the fault hypothesis a corrupted table implies: the
// multiset difference between the cipher's canonical S-box and table, both
// masked to EntryBits.  vanished holds the outputs table emits less often
// than the canonical S-box (each y* ^ k_i goes missing from cell i),
// doubled the outputs it emits more often; both are ascending and equally
// long.  Flips above the datapath and entries that traded values drop out
// by construction, and a chain (entry a takes entry b's original output, b
// moves on) leaves only its two ends.
func FaultValues(c registry.Cipher, table []byte) (vanished, doubled []byte) {
	mask := byte(1<<uint(c.EntryBits()) - 1)
	var delta [256]int
	for i, y := range c.SBox() {
		delta[y&mask]--
		delta[table[i]&mask]++
	}
	for v, d := range delta {
		for ; d < 0; d++ {
			vanished = append(vanished, byte(v))
		}
		for ; d > 0; d-- {
			doubled = append(doubled, byte(v))
		}
	}
	return vanished, doubled
}

// Observe records one ciphertext block.
func (c *Collector) Observe(ct []byte) error {
	if len(ct) != c.c.BlockSize() {
		return fmt.Errorf("pfa: %s ciphertext must be %d bytes, got %d", c.c.Name(), c.c.BlockSize(), len(ct))
	}
	c.c.LastRoundCells(c.cellBuf, ct)
	for i, cell := range c.cellBuf {
		if c.count[i][cell] == 0 {
			c.missing[i]--
		}
		c.count[i][cell]++
	}
	if c.keep {
		c.cts = append(c.cts, ct...)
	}
	c.n++
	return nil
}

// ObserveBatch records a batch of ciphertext blocks in order — the
// counterpart of the registry's EncryptBatch for consumers that batch
// their faulty encryptions through the bitsliced cores.
func (c *Collector) ObserveBatch(cts [][]byte) error {
	for _, ct := range cts {
		if err := c.Observe(ct); err != nil {
			return err
		}
	}
	return nil
}

// N returns the number of observed ciphertexts.
func (c *Collector) N() uint64 { return c.n }

// Cells returns the number of last-round cell positions.
func (c *Collector) Cells() int { return c.cells }

// Unseen returns how many values have never been observed at cell
// position i: the cell's still-possible key values, 1 once it has settled.
// It reads the per-cell count Observe keeps, so it costs O(1).
func (c *Collector) Unseen(i int) int { return c.missing[i] }

// ResidualEntropy returns the log2 of the remaining last-round-key space
// given the current observations: the product over cells of the number of
// still-possible key values (= missing values).  It reaches 0 when every
// cell has exactly one missing value, and reads only the per-cell counts
// Observe keeps, so it costs O(cells).
func (c *Collector) ResidualEntropy() float64 {
	e := 0.0
	for _, m := range c.missing {
		e += stats.Log2(float64(m))
	}
	return e
}

// RecoverLastRoundKeyKnownFault recovers the last-round key when the
// attacker knows which S-box output value vanished (y*): the one-fault
// case of MultiFaultCandidates, which leaves one candidate per cell.  The
// ExplFrame attacker is in this position: templating told them exactly
// which bit of which byte flips, and the victim's table layout is public.
func (c *Collector) RecoverLastRoundKeyKnownFault(yStar byte) ([]byte, error) {
	cands, err := c.MultiFaultCandidates([]byte{yStar})
	if err != nil {
		return nil, err
	}
	cells := make([]byte, c.cells)
	for i, list := range cands {
		cells[i] = list[0]
	}
	return c.c.AssembleLastRoundKey(cells), nil
}

// RecoverMasterKnownFault completes the known-fault attack: the one-fault
// case of RecoverMasterMultiFaultWithPair.  The clean known pair resolves
// schedules the last round key does not determine and verifies the rest;
// ciphers whose schedule inverts uniquely accept a nil pair.  Without the
// doubled value the completion gets no hint, so the 80-bit ciphers search
// all 2^16 hidden-bit guesses; callers that know it pass it to
// RecoverMasterMultiFaultWithPair.
func (c *Collector) RecoverMasterKnownFault(yStar byte, plaintext, ciphertext []byte) ([]byte, error) {
	return c.RecoverMasterMultiFaultWithPair([]byte{yStar}, nil, plaintext, ciphertext)
}

// MultiFaultCandidates generalises the elimination attack to a table
// carrying several corrupted entries: yStars lists every vanished output
// value (FaultValues' vanished set; one value is the classic single-fault
// attack).  With m faults each cell misses exactly {y*_j ^ k_i}, which any
// of the m candidates {miss ^ y*_j} explains equally well — elimination
// alone therefore leaves up to m consistent candidates per cell.  The
// first pass walks the cells in order over the unseen-value counts Observe
// keeps: a cell missing fewer than m values is inconsistent, one missing
// more is underdetermined, and one missing exactly m is searched for a
// matching key only when m > 1 (a single vanished value always leaves
// exactly one candidate).  A readiness poll after every ciphertext thus
// costs O(cells) and no garbage.  The returned per-cell candidate sets
// feed the frequency-based disambiguation in RecoverLastRoundKeyMultiFault.
func (c *Collector) MultiFaultCandidates(yStars []byte) ([][]byte, error) {
	m := len(yStars)
	if m == 0 {
		return nil, fmt.Errorf("%w: no fault values given", ErrInconsistent)
	}
	var scratch [256]byte // a cell has at most 2^EntryBits <= 256 candidates
	for i, miss := range c.missing {
		switch {
		case miss < m:
			return nil, fmt.Errorf("%w: cell %d misses %d values, expected %d", ErrInconsistent, i, miss, m)
		case miss > m:
			return nil, ErrUnderdetermined
		case m > 1 && len(c.cellCandidates(scratch[:0], i, yStars)) == 0:
			return nil, fmt.Errorf("%w: cell %d matches no key", ErrInconsistent, i)
		}
	}
	cands := make([][]byte, c.cells)
	for i := range cands {
		cands[i] = c.cellCandidates(nil, i, yStars)
	}
	return cands, nil
}

// cellCandidates appends to dst, in discovery order, every key value k of
// cell i under which each vanished value y* leaves y* ^ k unobserved.
func (c *Collector) cellCandidates(dst []byte, i int, yStars []byte) []byte {
	count := c.count[i]
	start := len(dst)
	for m, n := range count {
		if n != 0 {
			continue
		}
		for _, y := range yStars {
			k := byte(m) ^ (y & c.mask)
			seen := func(yy byte) bool { return count[(yy&c.mask)^k] != 0 }
			if !slices.Contains(dst[start:], k) && !slices.ContainsFunc(yStars, seen) {
				dst = append(dst, k)
			}
		}
	}
	return dst
}

// multiFaultScore sums the frequency counts the doubled values y'_j would
// produce at cell i under key cell k.
func (c *Collector) multiFaultScore(i int, k byte, yPrimes []byte) uint64 {
	var s uint64
	for _, y := range yPrimes {
		s += c.count[i][(y&c.mask)^k]
	}
	return s
}

// RecoverLastRoundKeyMultiFault resolves the multi-fault candidate sets
// with frequency information: the corrupted table emits the doubled values
// y'_j (FaultValues' doubled set) more often, so {y'_j ^ k_i} carry raised
// counts at every cell.  Only the two multisets matter, not which entry
// produced which value.
func (c *Collector) RecoverLastRoundKeyMultiFault(yStars, yPrimes []byte) ([]byte, error) {
	if len(yStars) != len(yPrimes) {
		return nil, fmt.Errorf("%w: %d vanished values but %d corrupted values",
			ErrInconsistent, len(yStars), len(yPrimes))
	}
	cands, err := c.MultiFaultCandidates(yStars)
	if err != nil {
		return nil, err
	}
	cells := make([]byte, c.cells)
	for i := 0; i < c.cells; i++ {
		var bestK byte
		var bestScore uint64
		tie := false
		for _, k := range cands[i] {
			score := c.multiFaultScore(i, k, yPrimes)
			switch {
			case score > bestScore:
				bestScore, bestK, tie = score, k, false
			case score == bestScore:
				tie = true
			}
		}
		if tie && len(cands[i]) > 1 {
			return nil, fmt.Errorf("%w: cell %d frequency tie", ErrUnderdetermined, i)
		}
		cells[i] = bestK
	}
	return c.c.AssembleLastRoundKey(cells), nil
}

// RecoverMasterMultiFaultWithPair completes the attack for any number of
// vanished values, and settles a degenerate case frequency scoring cannot
// break: when every fault flips the same bit index, the per-cell
// ciphertext distributions are identical under the m candidate keys and
// only the key schedule can disambiguate.  The function enumerates the
// per-cell candidates (ordered by the doubled values yPrimes' frequency
// score, so the common non-degenerate case exits on the first combination)
// and checks each schedule completion against one clean known pair.  One
// vanished value leaves one candidate per cell and nothing to rank; given
// its one doubled value too, the completion gets the kept ciphertexts as a
// registry.FaultHint, which pins the 80-bit ciphers' hidden register bits
// to a handful of guesses.  RecoverMasterKnownFault passes nil yPrimes,
// so its completion searches unhinted.
//
// Enumeration is budgeted at ~2^20 schedule inversions via the cipher's
// RecoverCost: AES-128's cheap unique inversion affords the full 2^20
// combinations, while the 80-bit ciphers' completions, up to 2^16 guesses
// each and unhinted with several vanished values, fall back to verifying
// only the frequency-best key (their degenerate same-bit case stays
// underdetermined, which the caller reports).
func (c *Collector) RecoverMasterMultiFaultWithPair(yStars, yPrimes, plaintext, ciphertext []byte) ([]byte, error) {
	cands, err := c.MultiFaultCandidates(yStars)
	if err != nil {
		return nil, err
	}
	budget := max(1<<20/c.c.RecoverCost(), 1)
	total := 1
	for i, list := range cands {
		slices.SortStableFunc(list, func(a, b byte) int {
			return cmp.Compare(c.multiFaultScore(i, b, yPrimes), c.multiFaultScore(i, a, yPrimes))
		})
		total = min(total*len(list), budget+1) // clamp so the product cannot overflow
	}
	var hint *registry.FaultHint
	if len(yStars) == 1 && len(yPrimes) == 1 && c.keep {
		hint = &registry.FaultHint{Ciphertexts: c.cts, Vanished: yStars[0], Doubled: yPrimes[0]}
	}
	if total > budget {
		last, err := c.RecoverLastRoundKeyMultiFault(yStars, yPrimes)
		if err != nil {
			return nil, err
		}
		master, ok := c.c.RecoverMaster(last, plaintext, ciphertext, nil)
		if !ok {
			return nil, fmt.Errorf("%w: frequency-ranked key fails the known pair (search cap reached)", ErrUnderdetermined)
		}
		return master, nil
	}
	idx := make([]int, c.cells)
	cells := make([]byte, c.cells)
	for {
		for i := range cells {
			cells[i] = cands[i][idx[i]]
		}
		if master, ok := c.c.RecoverMaster(c.c.AssembleLastRoundKey(cells), plaintext, ciphertext, hint); ok {
			return master, nil
		}
		// Odometer increment over the candidate lists.
		pos := 0
		for pos < c.cells {
			idx[pos]++
			if idx[pos] < len(cands[pos]) {
				break
			}
			idx[pos] = 0
			pos++
		}
		if pos == c.cells {
			return nil, fmt.Errorf("%w: no combination matches the known pair", ErrInconsistent)
		}
	}
}
