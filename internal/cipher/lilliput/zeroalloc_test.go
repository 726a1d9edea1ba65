package lilliput_test

import (
	"testing"

	"explframe/internal/bench"
	"explframe/internal/cipher/bitslice"
	"explframe/internal/cipher/lilliput"
)

// The key-sliced schedule completion allocates nothing on a full miss and
// only the returned key on a hit: the multi-fault search and the DFA
// end-game call it many times per trial, mostly to miss.  The race
// detector allocates on its own, so under -race the counts are only
// reported, not asserted.
func TestRecoverMasterAllocs(t *testing.T) {
	key := []byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef, 0x01, 0x23}
	rk, err := lilliput.Engine.Expand(key)
	if err != nil {
		t.Fatal(err)
	}
	sb := lilliput.SBox()
	pt := uint64(0x0011223344556677)
	ct := lilliput.Engine.Encrypt(rk, &sb, pt)
	klast := rk[lilliput.Rounds]
	for _, tc := range []struct {
		name  string
		klast uint64
		want  float64
	}{{"hit", klast, 1}, {"miss", klast ^ 1, 0}} {
		allocs := testing.AllocsPerRun(3, func() {
			lilliput.Engine.RecoverMaster80(tc.klast, pt, ct, bitslice.RuledOut{})
		})
		if bench.RaceEnabled {
			t.Logf("%s: %.2f allocs/run under -race (not asserted)", tc.name, allocs)
			continue
		}
		if allocs != tc.want {
			t.Errorf("%s: RecoverMasterFromLastRound allocates %.2f times per call; want %v", tc.name, allocs, tc.want)
		}
	}
}
