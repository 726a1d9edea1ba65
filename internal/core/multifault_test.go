package core

import (
	"bytes"
	"slices"
	"testing"

	"explframe/internal/dram"
	"explframe/internal/machine"
	"explframe/internal/rowhammer"
)

// Regression: at high weak-cell density the re-hammer can corrupt TWO table
// entries (collateral weak cells in the victim's row).  When both flips hit
// the same bit index the per-position ciphertext distributions are identical
// under the two key hypotheses, and only key-schedule disambiguation against
// a clean pair can finish the attack.  Seed 3 on this geometry reproduces
// exactly that degenerate double-fault.
func TestMultiFaultCollateralRecovery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 3
	cfg.Machine.Geometry = dram.Geometry{Banks: 4, Rows: 1024, RowBytes: 8192}
	cfg.Machine.FaultModel.WeakCellDensity = 2e-4
	cfg.Machine.FaultModel.BaseThreshold = 1500
	cfg.Machine.FaultModel.ThresholdSpread = 0.5
	cfg.Hammer = rowhammer.Config{Mode: rowhammer.DoubleSided, PairHammerCount: 3200}
	cfg.AttackerMemory = 8 << 20

	atk, err := NewAttack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := atk.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CorruptIndices) < 2 {
		t.Skipf("seed no longer produces a collateral double fault: %v", rep.CorruptIndices)
	}
	if !rep.Success() {
		t.Fatalf("multi-fault recovery failed: phase=%s fail=%q", rep.Phase, rep.FailReason)
	}
	if !bytes.Equal(rep.RecoveredKey, cfg.VictimKey) {
		t.Fatalf("recovered %x want %x", rep.RecoveredKey, cfg.VictimKey)
	}
}

// Regression: on the fast machine profile this seed's re-hammer flips table
// entry 19 from 0x7d to 0x3d and entry 139 from 0x3d to 0x2d — a chain, so
// only 0x7d vanishes from the S-box image and only 0x2d is doubled.  A
// hypothesis built per corrupted entry also expects 0x3d to vanish and
// wrongly concludes the observations are inconsistent.
func TestChainedFaultRecovery(t *testing.T) {
	atk, err := NewAttack(ConfigForMachine(machine.MustGet("fast"), 17073577146627595725))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := atk.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rep.CorruptIndices, []int{19, 139}) {
		t.Fatalf("seed no longer produces the 19/139 chain: %v", rep.CorruptIndices)
	}
	if !rep.KeyRecovered {
		t.Fatalf("chained fault not recovered: phase=%s fail=%q", rep.Phase, rep.FailReason)
	}
}
