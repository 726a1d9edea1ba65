package dram

import "fmt"

// This file models the two hardware mitigations the Rowhammer literature
// deploys against the paper's attack, so the repository can evaluate the
// defence side (experiment E13):
//
//   - TRR (Target Row Refresh): the device samples aggressor-row
//     activations in a small per-bank tracker and proactively refreshes
//     the neighbours of rows that are hammered past a threshold.  Real
//     samplers have limited capacity, which is why many-sided patterns
//     (TRRespass, Frigo et al. 2020) still flip bits: decoy rows thrash
//     the tracker so the true aggressors never accumulate visible counts.
//
//   - ECC (SEC-DED): single-error-correct/double-error-detect codes over
//     64-bit words.  A single flipped bit per word is corrected on read;
//     two or more observable flips in one word escape correction.

// TRRConfig parameterises the in-DRAM Target Row Refresh sampler.
type TRRConfig struct {
	// Enabled turns the mitigation on.
	Enabled bool `json:"enabled,omitempty"`
	// TrackerSize is the number of rows tracked per bank (real
	// devices: on the order of 2..32 entries).
	TrackerSize int `json:"tracker_size,omitempty"`
	// Threshold is the tracked activation count that triggers a neighbour
	// refresh.  It must be far below the weak-cell threshold to protect.
	Threshold int `json:"threshold,omitempty"`
}

// ECCMode selects the error-correction model.
type ECCMode int

// ECC modes.
const (
	// ECCNone disables correction (commodity non-ECC DIMMs, the paper's
	// setting).
	ECCNone ECCMode = iota
	// ECCSecDed corrects one observable flip per aligned 64-bit word and
	// lets 2+ flips through (miscorrection is not modelled; multi-bit
	// words count as uncorrectable and are reported raw).
	ECCSecDed
)

// String names the ECC mode the way machine-spec JSON spells it.
func (m ECCMode) String() string {
	if m == ECCSecDed {
		return "sec-ded"
	}
	return "none"
}

// MarshalJSON renders the mode as its string name, keeping machine-spec
// files readable ("sec-ded", not 1).
func (m ECCMode) MarshalJSON() ([]byte, error) {
	return []byte(`"` + m.String() + `"`), nil
}

// UnmarshalJSON parses the string names; unknown names are rejected so a
// typoed spec fails loudly.
func (m *ECCMode) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"none"`, `""`:
		*m = ECCNone
	case `"sec-ded"`:
		*m = ECCSecDed
	default:
		return fmt.Errorf("dram: unknown ecc mode %s (want \"none\" or \"sec-ded\")", data)
	}
	return nil
}

// trrEntry is one tracker slot.
type trrEntry struct {
	row   int
	count int
	used  uint64 // last-use stamp for LRU eviction
}

// trrState is the per-bank sampler.
type trrState struct {
	entries []trrEntry
	clock   uint64
}

// initTRR allocates tracker state when the mitigation is enabled.
func (d *Device) initTRR() {
	if !d.model.TRR.Enabled || d.model.TRR.TrackerSize <= 0 {
		return
	}
	d.trr = make([]trrState, d.geom.Banks)
	for i := range d.trr {
		d.trr[i].entries = make([]trrEntry, 0, d.model.TRR.TrackerSize)
	}
}

// trrObserve feeds one activation of (bank, row) into the sampler and fires a
// neighbour refresh when the tracked count crosses the threshold.
func (d *Device) trrObserve(bank, row int) {
	st := &d.trr[bank]
	st.clock++
	for i := range st.entries {
		if st.entries[i].row == row {
			st.entries[i].count++
			st.entries[i].used = st.clock
			if st.entries[i].count >= d.model.TRR.Threshold {
				d.trrRefreshNeighbours(bank, row)
				st.entries[i].count = 0
			}
			return
		}
	}
	// Not tracked: insert, evicting the least recently used entry when the
	// tracker is full.  Eviction forgets the count — the weakness
	// many-sided patterns exploit.
	if len(st.entries) < cap(st.entries) {
		st.entries = append(st.entries, trrEntry{row: row, count: 1, used: st.clock})
		return
	}
	lru := 0
	for i := range st.entries {
		if st.entries[i].used < st.entries[lru].used {
			lru = i
		}
	}
	st.entries[lru] = trrEntry{row: row, count: 1, used: st.clock}
}

// trrRefreshNeighbours recharges the rows adjacent to the hammered row:
// their disturbance counts reset, exactly like a targeted refresh.
func (d *Device) trrRefreshNeighbours(bank, row int) {
	for dr := -2; dr <= 2; dr++ {
		r := row + dr
		if dr == 0 || r < 0 || r >= d.geom.Rows {
			continue
		}
		if si := d.rowIdx[d.rowIndex(bank, r)]; si >= 0 {
			d.refreshRow(si)
		}
	}
}
