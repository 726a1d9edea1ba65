package cache

import (
	"errors"
	"fmt"
)

// ErrEvictionSet is the typed failure of BuildEvictionSet: the candidate
// pool ran out before the requested number of congruent lines was found.
// Callers distinguish it with errors.Is — it means the attacker's memory
// budget is too small for the cache geometry, not a programming error.
var ErrEvictionSet = errors.New("cache: eviction-set candidate pool exhausted")

// BuildEvictionSet scans the attacker's candidate pool [0, poolBytes) at
// line granularity, in address order, collecting physical addresses whose
// lines are congruent with the target (set, slice) under the view, until
// lines addresses are found.  The scan is
// deterministic — same view, same pool, same result — and always
// terminates: either with a full set or with an error wrapping
// ErrEvictionSet that reports how far it got.
func BuildEvictionSet(v *View, poolBytes uint64, set, slice, lines int) ([]uint64, error) {
	if lines <= 0 {
		return nil, fmt.Errorf("cache: eviction set of %d lines requested, want >= 1", lines)
	}
	lineBytes := uint64(v.CacheGeometry().LineBytes)
	out := make([]uint64, 0, lines)
	for pa := uint64(0); pa+lineBytes <= poolBytes; pa += lineBytes {
		s, sl := v.LineIndex(pa)
		if s != set || sl != slice {
			continue
		}
		out = append(out, pa)
		if len(out) == lines {
			return out, nil
		}
	}
	return nil, fmt.Errorf("cache: %d of %d congruent lines for set %d slice %d in a %d-byte pool: %w",
		len(out), lines, set, slice, poolBytes, ErrEvictionSet)
}
