package report

import (
	"math"
	"strings"
	"testing"
)

// demo builds a small valid table used across the renderer tests.
func demo() *Table {
	t := &Table{
		ID:    "EX",
		Title: "demo table",
		Claim: "a claim with a | pipe",
		Columns: []Column{
			{Name: "name"}, {Name: "count"}, {Name: "rate", Unit: "fraction"},
		},
		Notes: []string{"first note"},
	}
	t.AddRow(Str("alpha"), Int(3), Float(0.25, 2))
	t.AddRow(Str("beta"), Int(41), Float(1, 3))
	return t
}

func TestCellConstructors(t *testing.T) {
	cases := []struct {
		cell     Cell
		kind     Kind
		text     string
		value    float64
		hasValue bool
	}{
		{Str("x"), KindString, "x", 0, false},
		{Strf("n=%d", 7), KindString, "n=7", 0, false},
		{Int(-12), KindInt, "-12", -12, true},
		{Uint(1 << 40), KindInt, "1099511627776", 1 << 40, true},
		{Float(0.0749, 2), KindFloat, "0.07", 0.0749, true},
		{Float(2509.4, 0), KindFloat, "2509", 2509.4, true},
		{Frac(9, 10), KindFloat, "9/10", 0.9, true},
		{Dash(), KindString, "-", 0, false},
	}
	for _, c := range cases {
		if c.cell.Kind != c.kind || c.cell.Text != c.text {
			t.Errorf("cell %+v: want kind %v text %q", c.cell, c.kind, c.text)
		}
		if c.hasValue != c.cell.Numeric() {
			t.Errorf("cell %+v: Numeric() = %v", c.cell, c.cell.Numeric())
		}
		if c.hasValue && math.Abs(c.cell.Value-c.value) > 1e-12 {
			t.Errorf("cell %+v: want value %v", c.cell, c.value)
		}
	}
	if v := Frac(1, 0); !math.IsNaN(v.Value) {
		t.Errorf("Frac(1,0) value = %v, want NaN", v.Value)
	}
}

// The historical renderer silently indexed past its width table when a row
// was wider than the headers; the typed model must reject arity mismatches
// from every renderer.
func TestValidateRowArity(t *testing.T) {
	tb := demo()
	tb.AddRow(Str("gamma"), Int(1)) // one cell short
	if err := tb.Validate(); err == nil || !strings.Contains(err.Error(), "row 2") {
		t.Fatalf("Validate() = %v, want row-arity error", err)
	}
	if _, err := Text(tb); err == nil {
		t.Error("Text accepted a ragged table")
	}
	if _, err := Markdown(tb); err == nil {
		t.Error("Markdown accepted a ragged table")
	}
	if _, err := CSV(tb); err == nil {
		t.Error("CSV accepted a ragged table")
	}
	if _, err := JSON(tb); err == nil {
		t.Error("JSON accepted a ragged table")
	}

	wide := demo()
	wide.Rows[0] = append(wide.Rows[0], Str("extra"))
	if err := wide.Validate(); err == nil {
		t.Error("Validate accepted a row wider than the columns")
	}
}

func TestValidateExpectationAddresses(t *testing.T) {
	for _, tc := range []struct {
		name string
		e    Expectation
	}{
		{"row out of range", Expectation{Metric: "m", Row: 9, Col: 1, Paper: 1}},
		{"col out of range", Expectation{Metric: "m", Row: 0, Col: 7, Paper: 1}},
		{"negative col with row", Expectation{Metric: "m", Row: 0, Col: -1, Paper: 1}},
		{"non-numeric cell", Expectation{Metric: "m", Row: 0, Col: 0, Paper: 1}},
		{"no metric", Expectation{Row: -1, Col: -1, Paper: 1}},
	} {
		tb := demo()
		tb.Expect(tc.e)
		if err := tb.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.e)
		}
	}
}

func TestFormats(t *testing.T) {
	for _, f := range Formats() {
		got, err := ParseFormat(string(f))
		if err != nil || got != f {
			t.Errorf("ParseFormat(%q) = %v, %v", f, got, err)
		}
		out, err := Render(demo(), f)
		if err != nil || out == "" {
			t.Errorf("Render(%v) = %q, %v", f, out, err)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Error("ParseFormat accepted xml")
	}
	if _, err := Render(demo(), Format("xml")); err == nil {
		t.Error("Render accepted an unknown format")
	}
}

// Text must reproduce the historical layout: two-space gutters, %-*s
// padding (trailing spaces included), dashed separator, claim and note
// prefixes.
func TestTextLayout(t *testing.T) {
	out, err := Text(demo())
	if err != nil {
		t.Fatal(err)
	}
	want := "== EX: demo table\n" +
		"   claim: a claim with a | pipe\n" +
		"name   count  rate \n" +
		"-----  -----  -----\n" +
		"alpha  3      0.25 \n" +
		"beta   41     1.000\n" +
		"   note: first note\n"
	if out != want {
		t.Errorf("text layout drifted:\ngot:\n%q\nwant:\n%q", out, want)
	}
}

func TestCSVQuoting(t *testing.T) {
	tb := &Table{
		ID:      "EX",
		Columns: []Column{{Name: "a,b"}, {Name: "c", Unit: "ms"}},
	}
	tb.AddRow(Str("x,y"), Int(1))
	out, err := CSV(tb)
	if err != nil {
		t.Fatal(err)
	}
	want := "\"a,b\",c (ms)\n\"x,y\",1\n"
	if out != want {
		t.Errorf("CSV = %q, want %q", out, want)
	}
}

func TestMarkdownEscapesAndAlignment(t *testing.T) {
	tb := demo()
	tb.AddRow(Str("with|pipe"), Int(0), Dash())
	md, err := Markdown(tb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md, `with\|pipe`) {
		t.Errorf("pipe not escaped:\n%s", md)
	}
	// count and rate are numeric (rate includes a "-" placeholder, still
	// numeric); name is text.
	if !strings.Contains(md, "| :--- | ---: | ---: |") {
		t.Errorf("alignment row wrong:\n%s", md)
	}
	if !strings.Contains(md, "rate (fraction)") {
		t.Errorf("unit missing from header:\n%s", md)
	}
}
