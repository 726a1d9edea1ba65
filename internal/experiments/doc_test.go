package experiments

import "testing"

// Every experiment table must carry the metadata DESIGN.md promises: an ID,
// a claim tying it to the paper, columns, rows, at least one note with the
// trial parameters, and at least one paper expectation for the results
// book.  The tables are read from the book, which TestGoldenTables holds
// the runners to, so all eighteen are checked without running any.
func TestTableMetadataComplete(t *testing.T) {
	for _, r := range All() {
		tb := bookTable(t, r.ID)
		if tb.Title == "" || tb.Claim == "" {
			t.Errorf("%s: missing title or claim", r.ID)
		}
		if len(tb.Columns) == 0 || len(tb.Rows) == 0 {
			t.Errorf("%s: empty table", r.ID)
		}
		if len(tb.Notes) == 0 {
			t.Errorf("%s: no notes", r.ID)
		}
		if len(tb.Expectations) == 0 {
			t.Errorf("%s: no paper expectations", r.ID)
		}
		if _, err := tb.Score(); err != nil {
			t.Errorf("%s: scoring expectations: %v", r.ID, err)
		}
	}
}
