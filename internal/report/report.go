// Package report is the structured results layer of the reproduction: a
// typed table model (cells carry a kind and a numeric value alongside their
// canonical text, columns carry units), paper-expectation annotations that
// score each table against the numbers the source paper reports, and
// pluggable renderers (aligned text, GitHub Markdown, CSV, JSON).
//
// Every experiment driver in internal/experiments builds a *Table, and
// cmd/report prints it in any of the four formats (-format).  The text
// renderer reproduces the historical table layout byte-for-byte, while the
// Markdown and JSON renderers also feed the generated results book under
// docs/, which the experiment tests compare every table against.
package report

import (
	"fmt"
	"math"
	"strconv"
)

// Kind classifies what a cell holds, which renderers use for alignment and
// machine-readable output.
type Kind uint8

// The three cell kinds: free text, integers, and fixed-precision floats.
const (
	KindString Kind = iota
	KindInt
	KindFloat
)

// String returns the JSON name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	default:
		return "string"
	}
}

// kindFromString inverts Kind.String; unknown names fall back to string.
func kindFromString(s string) Kind {
	switch s {
	case "int":
		return KindInt
	case "float":
		return KindFloat
	default:
		return KindString
	}
}

// Cell is one table entry.  Text is the canonical rendering (what the text
// and CSV renderers print, and what the results book records); Value carries
// the numeric payload for numeric kinds so expectations and downstream
// tooling never re-parse formatted strings.
type Cell struct {
	Kind  Kind
	Text  string
	Value float64
}

// Numeric reports whether the cell carries a usable numeric value.
func (c Cell) Numeric() bool { return c.Kind == KindInt || c.Kind == KindFloat }

// Str builds a free-text cell.
func Str(s string) Cell { return Cell{Kind: KindString, Text: s} }

// Strf builds a free-text cell from a format string.
func Strf(format string, args ...any) Cell { return Str(fmt.Sprintf(format, args...)) }

// Int builds an integer cell.
func Int(n int) Cell {
	return Cell{Kind: KindInt, Text: strconv.Itoa(n), Value: float64(n)}
}

// Uint builds an integer cell from an unsigned value (DRAM row counts,
// activation totals).
func Uint(n uint64) Cell {
	return Cell{Kind: KindInt, Text: strconv.FormatUint(n, 10), Value: float64(n)}
}

// Float builds a float cell rendered with the given number of decimals.
func Float(v float64, prec int) Cell {
	return Cell{Kind: KindFloat, Text: strconv.FormatFloat(v, 'f', prec, 64), Value: v}
}

// Frac builds a "num/den" cell whose numeric value is the ratio, so
// reproduction counts like 9/10 stay machine-readable.
func Frac(num, den int) Cell {
	v := math.NaN()
	if den != 0 {
		v = float64(num) / float64(den)
	}
	return Cell{Kind: KindFloat, Text: fmt.Sprintf("%d/%d", num, den), Value: v}
}

// Dash is the conventional empty cell ("-") for metrics with no observation.
func Dash() Cell { return Str("-") }

// Column is one table column: a name (the historical header string) and an
// optional unit rendered by the Markdown and CSV renderers.
type Column struct {
	Name string
	Unit string
}

// Table is one experiment's typed result set.
type Table struct {
	// ID is the experiment identifier (e.g. "E3").
	ID string
	// Title is a short experiment name.
	Title string
	// Claim quotes or paraphrases the paper sentence the experiment tests.
	Claim string
	// Columns and Rows hold the tabular series; every row must have
	// exactly len(Columns) cells (renderers reject violations).
	Columns []Column
	Rows    [][]Cell
	// Notes carries caveats (trial counts, seeds, model parameters).
	Notes []string
	// Expectations records the paper's reported values for this table's
	// metrics; Score compares them against the observed cells.
	Expectations []Expectation
}

// AddRow appends one row of cells.
func (t *Table) AddRow(cells ...Cell) { t.Rows = append(t.Rows, cells) }

// Expect appends one expectation annotation.
func (t *Table) Expect(e Expectation) { t.Expectations = append(t.Expectations, e) }

// Headers returns the column names, the shape the historical string model
// exposed.
func (t *Table) Headers() []string {
	hs := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		hs[i] = c.Name
	}
	return hs
}

// Validate checks the structural invariants every renderer relies on: a
// non-empty ID and column set, and row arity matching the column count (the
// historical renderer silently mis-indexed on wider rows).
func (t *Table) Validate() error {
	if t.ID == "" {
		return fmt.Errorf("report: table has no ID")
	}
	if len(t.Columns) == 0 {
		return fmt.Errorf("report: table %s has no columns", t.ID)
	}
	for ri, row := range t.Rows {
		if len(row) != len(t.Columns) {
			return fmt.Errorf("report: table %s row %d has %d cells for %d columns",
				t.ID, ri, len(row), len(t.Columns))
		}
	}
	for ei, e := range t.Expectations {
		if err := e.validate(t, ei); err != nil {
			return err
		}
	}
	return nil
}
