package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"explframe/internal/report"
)

// runReport runs the command in process and returns its exit code and
// what it wrote to stdout and stderr.
func runReport(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// compact is data's compact JSON form, or a test failure.
func compact(t *testing.T, data []byte) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.Compact(&b, data); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// One table as json round-trips through report.FromJSON and is exactly its
// entry in the committed results book.
func TestFormatJSONMatchesBook(t *testing.T) {
	code, stdout, stderr := runReport("-format", "json", "-exp", "E1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	tb, err := report.FromJSON([]byte(stdout))
	if err != nil {
		t.Fatal(err)
	}
	again, err := report.Render(tb, report.FormatJSON)
	if err != nil || again+"\n" != stdout {
		t.Fatalf("FromJSON → Render changed the table (%v):\n%s\nwant\n%s", err, again, stdout)
	}

	data, err := os.ReadFile("../../docs/results.json")
	if err != nil {
		t.Fatal(err)
	}
	var book struct{ Experiments []json.RawMessage }
	if err := json.Unmarshal(data, &book); err != nil {
		t.Fatal(err)
	}
	for _, e := range book.Experiments {
		var head struct{ ID string }
		if json.Unmarshal(e, &head) == nil && head.ID == "E1" {
			if got, want := compact(t, []byte(stdout)), compact(t, e); got != want {
				t.Fatalf("E1 differs from docs/results.json:\n%s\nwant\n%s", got, want)
			}
			return
		}
	}
	t.Fatal("docs/results.json has no E1")
}

// Several tables as json are one JSON array, in registry order whatever
// the order of the -exp list.
func TestFormatJSONArray(t *testing.T) {
	code, stdout, stderr := runReport("-format", "json", "-exp", "e12,E1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var tables []json.RawMessage
	if err := json.Unmarshal([]byte(stdout), &tables); err != nil || len(tables) != 2 {
		t.Fatalf("want a two-element JSON array (%v):\n%s", err, stdout)
	}
	for i, id := range []string{"E1", "E12"} {
		if tb, err := report.FromJSON(tables[i]); err != nil || tb.ID != id {
			t.Errorf("element %d: %v, want table %s", i, err, id)
		}
	}
}

// Every selection or flag the chosen mode cannot honour exits 2 before any
// table runs.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-format", "text", "-exp", "E99"},
		{"-format", "csv", "-exp", "E1,E2"},
		{"-exp", "E1"},
		{"-format", "json", "-check"},
		{"-format", "md", "-out", "docs"},
		{"-format", "xml"},
	} {
		code, stdout, stderr := runReport(args...)
		if code != 2 || stdout != "" || strings.Contains(stderr, "running") {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 2 before any table", args, code, stdout, stderr)
		}
	}
}
