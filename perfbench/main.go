// Command perfbench is the repository benchmark: it runs one named
// workload from a seed, checks every output, and prints one JSON line of
// metrics.  Untraced runs print the end-to-end metrics; --trace 1 replays
// the same trials through traced replicas and prints the per-layer ones.
// See README.md for the workloads, the metrics and how to run it.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// buildDir holds what the benchmark writes: its binary, build cache,
// service journals and span files.  It is relative to the checkout root
// the benchmark runs from.
const buildDir = ".bench_build"

// heldOutSeed is kept out of tuning: a later change that claims a gain
// must also show it on this seed.
const heldOutSeed = 1000003

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: attack, crypto or service")
	seed := fs.Uint64("seed", 1, fmt.Sprintf("workload seed (held-out seed: %d)", uint64(heldOutSeed)))
	seconds := fs.Int("seconds", 25, "run length; scales the fixed trial set, never a timer")
	traced := fs.Int("trace", 0, "1 replays the trials traced and prints the per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		logf("usage: perfbench --workload attack|crypto|service --seed N --seconds S --trace 0|1")
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		trace:   *traced == 1,
		rounds:  w.rounds(*seconds),
		spanOut: filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed)),
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		logf("%v", err)
		return 1
	}
	logf("workload %s, seed %d, %d rounds, trace %v", w.name, cfg.seed, cfg.rounds, cfg.trace)
	res, err := w.run(cfg)
	if err != nil {
		logf("%s: %v", w.name, err)
		return 1
	}
	line, err := res.encode()
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
