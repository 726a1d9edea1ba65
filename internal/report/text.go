package report

import (
	"fmt"
	"strings"
)

// Text renders the table as aligned plain text — byte-identical to the
// historical experiments.Table.Render output that cmd/report -format text prints.
// Expectations are deliberately not rendered here: they belong to the
// Markdown/JSON views of the results book.
func Text(t *Table) (string, error) {
	if err := t.Validate(); err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s\n", t.ID, t.Title)
	fmt.Fprintf(&sb, "   claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c.Name)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c.Text) > widths[i] {
				widths[i] = len(c.Text)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	line(t.Headers())
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		texts := make([]string, len(row))
		for i, c := range row {
			texts[i] = c.Text
		}
		line(texts)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "   note: %s\n", n)
	}
	return sb.String(), nil
}
