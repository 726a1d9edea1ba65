// benchtab regenerates every experiment table in the evaluation index
// (E1–E18) and maintains the bench trajectory.
//
// Usage:
//
//	benchtab                 # run everything, aligned text to stdout
//	benchtab -exp E3         # one experiment
//	benchtab -exp E7,E15     # several, in registry order
//	benchtab -seed 7         # change the global seed
//	benchtab -format md      # render text, md, csv or json
//	benchtab -out tables.md  # write to a file instead of stdout
//
//	benchtab -append-trajectory BENCH_trajectory.json  # re-time every machine profile (hammer
//	                                                   # loop + one attack trial), cipher core
//	                                                   # (scalar/bitsliced) and cache-probe
//	                                                   # technique; append the run as one point
//	benchtab -check-trajectory BENCH_trajectory.json   # validate the trajectory, the bitsliced
//	                                                   # speedup floors and the zero-alloc hammer
//	                                                   # and probe contracts (CI gate)
//
// With more than one experiment selected, json emits a single JSON array
// (one element per table) so the output stays parseable as one document;
// csv is a single-table format and requires exactly one -exp id.  Timing lines go to
// stderr so machine formats stay clean.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"explframe/internal/bench"
	"explframe/internal/experiments"
	"explframe/internal/harness"
	"explframe/internal/report"
)

func main() {
	exp := flag.String("exp", "", "comma-separated experiment ids to run (e.g. E3 or E7,E15); empty = all")
	seed := flag.Uint64("seed", 1, "global experiment seed")
	format := flag.String("format", "text", "output format: text, md, csv or json")
	out := flag.String("out", "", "write rendered tables to this file instead of stdout")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"trial workers per experiment; tables are identical at any value (deterministic per-trial streams)")
	appendTrajectory := flag.String("append-trajectory", "",
		"re-time HammerLoop and one attack trial on every registered machine profile, every cipher core (scalar and bitsliced) and every cache-probe technique, append the run as one timestamped point to this trajectory file and exit")
	checkTrajectory := flag.String("check-trajectory", "",
		"validate a bench trajectory (shape, append-only timestamps, machine/cipher/probe-technique coverage) plus the bitsliced speedup floors and the steady-state zero-alloc hammer and probe contracts, and exit")
	flag.Parse()

	if *appendTrajectory != "" {
		exitOn(bench.AppendTrajectory(*appendTrajectory, os.Stderr))
	}
	if *checkTrajectory != "" {
		exitOn(bench.CheckTrajectory(*checkTrajectory, os.Stderr))
	}

	f, err := report.ParseFormat(*format)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	runners := experiments.All()
	want := map[string]bool{}
	for _, id := range strings.Split(*exp, ",") {
		if id = strings.ToUpper(strings.TrimSpace(id)); id != "" {
			want[id] = true
		}
	}
	all := len(want) == 0
	var selected []experiments.Runner
	for _, r := range runners {
		if all || want[r.ID] {
			selected = append(selected, r)
			delete(want, r.ID)
		}
	}
	if len(want) > 0 || len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matches %q; known ids:", *exp)
		for _, r := range runners {
			fmt.Fprintf(os.Stderr, " %s", r.ID)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	if f == report.FormatCSV && len(selected) > 1 {
		fmt.Fprintln(os.Stderr, "csv renders one table per document; pass one -exp id (or use -format json for several)")
		os.Exit(2)
	}

	dst := os.Stdout
	if *out != "" {
		file, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer file.Close()
		dst = file
	}

	// Multi-table json becomes one array so the whole output parses as a
	// single document.
	jsonArray := f == report.FormatJSON && len(selected) > 1
	if jsonArray {
		fmt.Fprintln(dst, "[")
	}
	for i, r := range selected {
		start := time.Now()
		tb, err := r.Run(*seed, harness.WithWorkers(*parallel))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", r.ID, err)
			os.Exit(1)
		}
		rendered, err := report.Render(tb, f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s render: %v\n", r.ID, err)
			os.Exit(1)
		}
		if jsonArray {
			if i > 0 {
				fmt.Fprintln(dst, ",")
			}
			fmt.Fprint(dst, strings.TrimSuffix(rendered, "\n"))
		} else {
			fmt.Fprint(dst, rendered)
			fmt.Fprintln(dst)
		}
		fmt.Fprintf(os.Stderr, "   (%s in %.1fs)\n", r.ID, time.Since(start).Seconds())
	}
	if jsonArray {
		fmt.Fprintln(dst, "\n]")
	}
}

// exitOn ends a bench mode: exit 0 on success, or print the error and
// exit 1.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}
