// report runs the experiment tables E1–E18 and writes them as the results
// book, docs/RESULTS.md (GitHub Markdown with paper-comparison badges) plus
// docs/results.json (the same tables, typed and machine-readable), or with
// -format prints them to stdout.
//
// Usage:
//
//	report                         # regenerate docs/RESULTS.md + docs/results.json
//	report -check                  # regenerate in memory and fail on drift (CI)
//	report -seed 7                 # change the global experiment seed
//	report -format text            # print every table to stdout instead
//	report -format md -exp E7,E15  # several tables, in registry order
//	report -format csv -exp E14    # csv takes exactly one table
//
// One seed produces one byte-exact book at any worker count, so CI can
// regenerate it and fail on drift.  The experiment-table tests compare
// against it, and running this command is the one way to re-pin the tables
// after a deliberate change.
//
// -format prints each table and a blank line, and json with several tables
// as one JSON array; progress goes to stderr.  -exp without -format, and
// -check or -out with it, exit 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"explframe/internal/experiments"
	"explframe/internal/harness"
	"explframe/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command with its exit code: 0 success, 1 a failed
// experiment, I/O error or drifted book, 2 a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "global experiment seed")
	outDir := fs.String("out", "docs", "directory receiving RESULTS.md and results.json")
	check := fs.Bool("check", false, "regenerate in memory and exit non-zero if the committed book drifted")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"trial workers per experiment; the tables are identical at any value (deterministic per-trial streams)")
	formatName := fs.String("format", "", "print the tables to stdout as text, md, csv or json instead of writing the book")
	exp := fs.String("exp", "", "with -format: comma-separated experiment ids to print (e.g. E3 or E7,E15); empty = all")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	usage := func(msg string) int {
		fmt.Fprintln(stderr, msg)
		return 2
	}
	switch {
	case set["exp"] && !set["format"]:
		return usage("-exp selects the tables -format prints; the book always holds every table")
	case set["format"] && (set["check"] || set["out"]):
		return usage("-check and -out belong to the book; -format prints to stdout")
	}

	selected := experiments.All()
	var format report.Format
	if set["format"] {
		var err error
		if format, err = report.ParseFormat(*formatName); err != nil {
			return usage(err.Error())
		}
		if selected, err = selectRunners(selected, *exp); err != nil {
			return usage(err.Error())
		}
		if format == report.FormatCSV && len(selected) > 1 {
			return usage("csv renders one table per document; pass one -exp id (or use -format json for several)")
		}
	}

	// Multi-table json becomes one array so the whole output parses as a
	// single document.
	jsonArray := format == report.FormatJSON && len(selected) > 1
	tables := make([]*report.Table, 0, len(selected))
	for i, r := range selected {
		fmt.Fprintf(stderr, "running %s (%s)...\n", r.ID, r.Name)
		tb, err := r.Run(*seed, harness.WithWorkers(*parallel))
		if err != nil {
			fmt.Fprintf(stderr, "%s failed: %v\n", r.ID, err)
			return 1
		}
		if format == "" {
			tables = append(tables, tb)
			continue
		}
		rendered, err := report.Render(tb, format)
		if err != nil {
			fmt.Fprintf(stderr, "%s render: %v\n", r.ID, err)
			return 1
		}
		switch {
		case !jsonArray:
			fmt.Fprintln(stdout, rendered)
		case i == 0:
			fmt.Fprint(stdout, "[\n", strings.TrimSuffix(rendered, "\n"))
		default:
			fmt.Fprint(stdout, ",\n", strings.TrimSuffix(rendered, "\n"))
		}
	}
	if format != "" {
		if jsonArray {
			fmt.Fprintln(stdout, "\n]")
		}
		return 0
	}

	book, err := report.BuildBook(*seed, tables)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
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
				fmt.Fprintf(stderr, "missing %s (regenerate with `go run ./cmd/report`): %v\n", f.path, err)
				drift = true
				continue
			}
			if d := report.FirstDiff(string(have), f.want); d != "" {
				fmt.Fprintf(stderr, "%s drifted from the regenerated book: %s\n", f.path, d)
				drift = true
			}
		}
		if drift {
			fmt.Fprintln(stderr, "\nthe committed results book no longer matches the code; run `go run ./cmd/report` and commit the diff")
			return 1
		}
		fmt.Fprintln(stdout, "results book is up to date")
		return 0
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	for _, f := range files {
		if err := os.WriteFile(f.path, []byte(f.want), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (%d bytes)\n", f.path, len(f.want))
	}
	return 0
}

// selectRunners keeps the runners whose ids the comma-separated list names
// (case-insensitive, in registry order), or all of them for an empty list.
func selectRunners(runners []experiments.Runner, list string) ([]experiments.Runner, error) {
	want := map[string]bool{}
	for _, id := range strings.Split(list, ",") {
		if id = strings.ToUpper(strings.TrimSpace(id)); id != "" {
			want[id] = true
		}
	}
	if len(want) == 0 {
		return runners, nil
	}
	var selected []experiments.Runner
	known := make([]string, len(runners))
	for i, r := range runners {
		known[i] = r.ID
		if want[r.ID] {
			selected = append(selected, r)
			delete(want, r.ID)
		}
	}
	if len(want) > 0 {
		return nil, fmt.Errorf("no experiment matches %q; known ids: %s", list, strings.Join(known, " "))
	}
	return selected, nil
}
