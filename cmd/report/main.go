// report regenerates the repository's results book: docs/RESULTS.md (every
// experiment table as GitHub Markdown with paper-comparison badges) and
// docs/results.json (the same tables in typed, machine-readable form).
//
// Usage:
//
//	report                  # regenerate docs/RESULTS.md + docs/results.json
//	report -check           # regenerate in memory and fail on drift (CI)
//	report -seed 7          # change the global experiment seed
//
// The book is deterministic: one seed produces one byte-exact book at any
// worker count, which is what lets CI regenerate it and fail on drift, the
// same contract as the golden text tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"explframe/internal/experiments"
	"explframe/internal/harness"
	"explframe/internal/report"
)

func main() {
	seed := flag.Uint64("seed", 1, "global experiment seed")
	outDir := flag.String("out", "docs", "directory receiving RESULTS.md and results.json")
	check := flag.Bool("check", false, "regenerate in memory and exit non-zero if the committed book drifted")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"trial workers per experiment; the book is identical at any value (deterministic per-trial streams)")
	flag.Parse()

	tables := make([]*report.Table, 0, len(experiments.All()))
	for _, r := range experiments.All() {
		fmt.Fprintf(os.Stderr, "running %s (%s)...\n", r.ID, r.Name)
		tb, err := r.Run(*seed, harness.WithWorkers(*parallel))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", r.ID, err)
			os.Exit(1)
		}
		tables = append(tables, tb)
	}
	book, err := report.BuildBook(*seed, tables)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	files := []struct {
		path, want string
	}{
		{filepath.Join(*outDir, "RESULTS.md"), book.Markdown},
		{filepath.Join(*outDir, "results.json"), book.JSON},
	}
	if *check {
		drift := false
		for _, f := range files {
			have, err := os.ReadFile(f.path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "missing %s (regenerate with `go run ./cmd/report`): %v\n", f.path, err)
				drift = true
				continue
			}
			if d := report.FirstDiff(string(have), f.want); d != "" {
				fmt.Fprintf(os.Stderr, "%s drifted from the regenerated book: %s\n", f.path, d)
				drift = true
			}
		}
		if drift {
			fmt.Fprintln(os.Stderr, "\nthe committed results book no longer matches the code; run `go run ./cmd/report` and commit the diff")
			os.Exit(1)
		}
		fmt.Println("results book is up to date")
		return
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, f := range files {
		if err := os.WriteFile(f.path, []byte(f.want), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d bytes)\n", f.path, len(f.want))
	}
}
