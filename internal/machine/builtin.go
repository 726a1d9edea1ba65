package machine

import "explframe/internal/dram"

// The built-in machine profiles.  "default" and "fast" reproduce, field
// for field, the two machines the scenario layer hardcoded before machines
// became first-class — every E1–E15 number in the results book is pinned
// to them, so their parameters must never drift.  The other profiles open
// the machine axis: a DDR4-style module with an XOR-folded bank function, a
// large server module with slower cells, and a TRR-hardened part.  The table is
// fixed: a machine outside it runs inline (scenario.WithMachine, or a
// spec's "machine" field).
var builtins = []Spec{
	New("default",
		WithDescription("256 MiB DDR3-style module in the paper's testbed proportions (the explframe CLI default)"),
		WithFaultModel(dram.FaultModel{
			WeakCellDensity: 1e-5, // vulnerable module, as the attack assumes
			BaseThreshold:   5000, // scaled-down activation threshold
			ThresholdSpread: 1.0,
			NeighbourWeight: 0.25,
			RefreshInterval: 1 << 21,
			FlipReliability: 0.98,
		}),
		WithAttackSizing(11000, 32<<20, 12000), // > 2x max threshold: catches most cells
	),
	New("fast",
		WithDescription("small, highly vulnerable 32 MiB module; end-to-end trials stay ~1 s (E6/E8/E13)"),
		WithGeometry(dram.Geometry{Banks: 4, Rows: 1024, RowBytes: 8192}),
		WithFaultModel(dram.FaultModel{
			WeakCellDensity: 2e-4,
			BaseThreshold:   1500,
			ThresholdSpread: 0.5,
			NeighbourWeight: 0.25,
			RefreshInterval: 1 << 20,
			FlipReliability: 0.98,
		}),
		WithAttackSizing(3200, 8<<20, 12000),
	),
	New("ddr4",
		WithDescription("512 MiB DDR4-style module: 16 banks, XOR-folded bank function, moderately vulnerable cells"),
		WithGeometry(dram.Geometry{Banks: 16, Rows: 8192, RowBytes: 4096}),
		WithMapper(dram.MapperXORFold),
		WithFaultModel(dram.FaultModel{
			WeakCellDensity: 1.2e-5,
			BaseThreshold:   7000,
			ThresholdSpread: 1.0,
			NeighbourWeight: 0.2,
			RefreshInterval: 1 << 21,
			FlipReliability: 0.98,
		}),
		WithCPUs(4),
		WithAttackSizing(15000, 32<<20, 12000),
	),
	New("server-1g",
		WithDescription("1 GiB server module: 16 banks x 16 Ki rows, slower cells, deeper watermark reserve"),
		WithGeometry(dram.Geometry{Banks: 16, Rows: 16384, RowBytes: 4096}),
		WithFaultModel(dram.FaultModel{
			WeakCellDensity: 1e-5,
			BaseThreshold:   8000,
			ThresholdSpread: 1.0,
			NeighbourWeight: 0.25,
			RefreshInterval: 1 << 22,
			FlipReliability: 0.95,
		}),
		WithCPUs(4),
		WithWatermark(64),
		WithAttackSizing(17000, 32<<20, 12000),
	),
	New("trr-hardened",
		WithDescription("the fast module shipped with an in-DRAM TRR sampler (tracker 8, threshold 250)"),
		WithGeometry(dram.Geometry{Banks: 4, Rows: 1024, RowBytes: 8192}),
		WithFaultModel(dram.FaultModel{
			WeakCellDensity: 2e-4,
			BaseThreshold:   1500,
			ThresholdSpread: 0.5,
			NeighbourWeight: 0.25,
			RefreshInterval: 1 << 20,
			FlipReliability: 0.98,
		}),
		WithTRR(8, 250),
		WithAttackSizing(3200, 8<<20, 12000),
	),
}
