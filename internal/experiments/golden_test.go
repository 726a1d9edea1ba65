package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"explframe/internal/report"
)

// bookSeed is the seed the committed results book records.  One seed is
// one table at any worker count, so any byte of drift from the book is a
// real change to the paper numbers, not scheduling noise.
const bookSeed = 1

// bookPath is the committed results book, relative to this package.
const bookPath = "../../docs/results.json"

// shortGolden lists the experiments cheap enough to verify under -short;
// full runs and `go run ./cmd/report -check` cover the heavyweight ones.
var shortGolden = map[string]bool{
	"E1": true, "E2": true, "E7": true, "E10": true, "E12": true, "E15": true,
}

// book is docs/results.json as the table tests read it, once: the
// experiment IDs in book order and each experiment's table as compact JSON.
type book struct {
	ids    []string
	tables map[string][]byte
}

var readBook = sync.OnceValues(func() (*book, error) {
	data, err := os.ReadFile(bookPath)
	if err != nil {
		return nil, err
	}
	var raw struct {
		Seed        uint64
		Experiments []json.RawMessage
	}
	if err := json.Unmarshal(data, &raw); err != nil || raw.Seed != bookSeed {
		return nil, fmt.Errorf("%s: seed %d, want %d (%v)", bookPath, raw.Seed, bookSeed, err)
	}
	b := &book{tables: map[string][]byte{}}
	for _, e := range raw.Experiments {
		var head struct{ ID string }
		var compact bytes.Buffer
		if err := json.Unmarshal(e, &head); err != nil {
			return nil, fmt.Errorf("%s: %w", bookPath, err)
		}
		json.Compact(&compact, e) // cannot fail: Unmarshal accepted e
		b.ids = append(b.ids, head.ID)
		b.tables[head.ID] = compact.Bytes()
	}
	return b, nil
})

// committedBook returns the results book or fails the test.
func committedBook(t testing.TB) *book {
	t.Helper()
	b, err := readBook()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// bookTable decodes one experiment's table from the results book.
func bookTable(t testing.TB, id string) *Table {
	t.Helper()
	tb, err := report.FromJSON(committedBook(t).tables[id])
	if err != nil {
		t.Fatalf("%s in %s: %v", id, bookPath, err)
	}
	return tb
}

// checkBook fails the test unless tb, a seed-1 table produced under the
// condition what names, is byte-identical to its entry in the results
// book.  The test never writes the book; `go run ./cmd/report` is the one
// way to regenerate it after a deliberate change.
func checkBook(t testing.TB, tb *Table, what string) {
	t.Helper()
	got, err := report.JSON(tb)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	var compact, want bytes.Buffer
	json.Compact(&compact, got) // cannot fail: report.JSON marshaled got
	entry := committedBook(t).tables[tb.ID]
	if bytes.Equal(compact.Bytes(), entry) {
		return
	}
	json.Indent(&want, entry, "", "  ") // a missing entry diffs against ""
	t.Fatalf("%s: %s drifted from its entry in %s; the table JSON first differs at %s\nregenerate the book with `go run ./cmd/report` if the change is deliberate",
		what, tb.ID, bookPath, report.FirstDiff(want.String(), string(got)))
}

// TestGoldenTables locks every experiment's seed-1 table, at GOMAXPROCS
// workers, to its entry in the results book, so refactors of the
// substrate, the harness or the cipher registry cannot silently drift the
// paper's numbers.
func TestGoldenTables(t *testing.T) {
	for _, r := range All() {
		t.Run(r.ID, func(t *testing.T) {
			t.Parallel()
			if testing.Short() && !shortGolden[r.ID] {
				t.Skip("heavyweight table; verified in full (non -short) runs")
			}
			tb, err := r.Run(bookSeed)
			if err != nil {
				t.Fatal(err)
			}
			if tb.ID != r.ID {
				t.Fatalf("runner %s returned table id %q", r.ID, tb.ID)
			}
			checkBook(t, tb, "default workers")
		})
	}
}

// The Markdown renderer (table, units, notes, expectation badges) is
// pinned by the book's Markdown half: E2's seed-1 rendering must appear
// verbatim in docs/RESULTS.md.
func TestMarkdownInBook(t *testing.T) {
	tb, err := E2SelfReuse(bookSeed)
	if err != nil {
		t.Fatal(err)
	}
	md, err := report.Markdown(tb)
	if err != nil {
		t.Fatal(err)
	}
	page, err := os.ReadFile("../../docs/RESULTS.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(page), md) {
		t.Fatalf("E2's Markdown is not in RESULTS.md; regenerate the book with `go run ./cmd/report` if the change is deliberate:\n%s", md)
	}
}

// The book must list exactly the registered experiments, in order, so a
// newly added experiment cannot land unpinned and a deleted one cannot
// linger.
func TestGoldenTablesComplete(t *testing.T) {
	var want []string
	for _, r := range All() {
		want = append(want, r.ID)
	}
	if got := committedBook(t).ids; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("%s lists %v, want %v; regenerate it with `go run ./cmd/report`", bookPath, got, want)
	}
}
