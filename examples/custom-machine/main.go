// Command custom-machine walks through the machine-profile API: it
// declares a bespoke DRAM module, runs the same declarative attack
// scenario on a built-in profile and on the custom one inline, and prints
// the scenario JSON that carries the custom machine in a spec file.
//
// Run with: go run ./examples/custom-machine
package main

import (
	"context"
	"fmt"
	"log"

	"explframe/internal/dram"
	"explframe/internal/machine"
	"explframe/internal/scenario"
)

func main() {
	// 1. Declare a machine: a 64 MiB module with the Intel-style XOR-folded
	// bank function and fairly vulnerable cells.  New fills in the kernel
	// parameters (2 CPUs, Linux pcp sizing); options override the rest.
	custom := machine.New("demo-64m",
		machine.WithDescription("64 MiB XOR-folded demo module"),
		machine.WithGeometry(dram.Geometry{Banks: 8, Rows: 2048, RowBytes: 4096}),
		machine.WithMapper(dram.MapperXORFold),
		machine.WithFaultModel(dram.FaultModel{
			WeakCellDensity: 1e-4,
			BaseThreshold:   2000,
			ThresholdSpread: 0.5,
			NeighbourWeight: 0.25,
			RefreshInterval: 1 << 20,
			FlipReliability: 0.98,
		}),
		machine.WithAttackSizing(4500, 8<<20, 12000),
	)
	if err := custom.Validate(); err != nil {
		log.Fatal(err)
	}

	// 2. Run the identical scenario on a built-in profile and on the
	// custom machine inline: only the machine differs, so any change in
	// the outcome is the hardware's doing.
	for _, spec := range []scenario.Spec{
		scenario.New(scenario.WithProfile("fast"), scenario.WithTrials(3), scenario.WithSeed(11)),
		scenario.New(scenario.WithMachine(custom), scenario.WithTrials(3), scenario.WithSeed(11)),
	} {
		res, err := scenario.Run(context.Background(), spec)
		if err != nil {
			log.Fatal(err)
		}
		st := res.AttackStats()
		fmt.Printf("%-10s key recovered %d/%d, steering %.2f\n",
			spec.MachineName(), st.Key.Successes, st.Key.Trials, st.Steer.Rate())
	}

	// 3. A spec file embeds the machine the same way (see README "Machine
	// profiles"): the JSON below runs unchanged from a campaign file.
	inline := scenario.New(scenario.WithMachine(custom), scenario.WithTrials(1), scenario.WithSeed(11))
	fmt.Printf("\ninline scenario name: %s\n", inline.Name())
	data, err := inline.EncodeJSON()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inline scenario JSON (pasteable into a campaign file):\n%s", data)
}
