package machine_test

import (
	"testing"

	"explframe/internal/bench"
	"explframe/internal/machine"
)

// Steady-state HammerLoop must not allocate on any registered machine —
// the zero-alloc contract behind `benchtab -check-trajectory`, pinned here
// so a new profile cannot join the registry without meeting it.  The race
// detector allocates on its own, so under -race the measurement is only
// reported, not asserted.
func TestHammerLoopSteadyStateZeroAlloc(t *testing.T) {
	if testing.Short() && !bench.RaceEnabled {
		// The warm-up hammers a few refresh windows per machine; keep the
		// full sweep out of -short except where CI already pays for -race.
		t.Skip("steady-state warm-up is slow; run without -short")
	}
	for _, name := range machine.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			allocs, err := bench.HammerLoopSteadyStateAllocs(machine.MustGet(name), 1)
			if err != nil {
				t.Fatal(err)
			}
			if bench.RaceEnabled {
				t.Logf("%s: %.2f allocs/run under -race (not asserted)", name, allocs)
				return
			}
			if allocs != 0 {
				t.Errorf("steady-state HammerLoop allocates %.2f times per call; want 0", allocs)
			}
		})
	}
}
