// benchtab maintains the bench trajectory, BENCH_trajectory.json.  The
// experiment tables E1–E18 are printed by cmd/report -format.
//
// Usage:
//
//	benchtab -append-trajectory BENCH_trajectory.json  # re-time every machine profile (hammer
//	                                                   # loop + one attack trial), cipher core
//	                                                   # (scalar/bitsliced) and cache-probe
//	                                                   # technique; append the run as one point
//	benchtab -check-trajectory BENCH_trajectory.json   # validate the trajectory, the bitsliced
//	                                                   # speedup floors and the zero-alloc hammer
//	                                                   # and probe contracts (CI gate)
//
// Run with neither flag, benchtab prints its usage and exits 2.
package main

import (
	"flag"
	"fmt"
	"os"

	"explframe/internal/bench"
)

func main() {
	appendTrajectory := flag.String("append-trajectory", "",
		"re-time HammerLoop and one attack trial on every registered machine profile, every cipher core (scalar and bitsliced) and every cache-probe technique, append the run as one timestamped point to this trajectory file and exit")
	checkTrajectory := flag.String("check-trajectory", "",
		"validate a bench trajectory (shape, append-only timestamps, machine/cipher/probe-technique coverage) plus the bitsliced speedup floors and the steady-state zero-alloc hammer and probe contracts, and exit")
	flag.Parse()

	var err error
	switch {
	case *appendTrajectory != "":
		err = bench.AppendTrajectory(*appendTrajectory, os.Stderr)
	case *checkTrajectory != "":
		err = bench.CheckTrajectory(*checkTrajectory, os.Stderr)
	default:
		fmt.Fprintln(os.Stderr, "benchtab needs -append-trajectory or -check-trajectory; print experiment tables with `report -format`")
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
