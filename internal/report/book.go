package report

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Book is the assembled results book: the Markdown page committed as
// docs/RESULTS.md and the machine-readable docs/results.json.  Both are
// pure functions of the tables (and the seed recorded in the header), which
// is what lets CI regenerate the book and fail on drift.
type Book struct {
	Markdown string
	JSON     string
}

// BuildBook renders the full results book from the experiment tables:
// header, per-table verdict summary with anchor links, every table as
// Markdown with its paper-expectation badges, and the JSON twin.
func BuildBook(seed uint64, tables []*Table) (Book, error) {
	var sb strings.Builder
	sb.WriteString("# ExplFrame — regenerated results book\n\n")
	sb.WriteString("<!-- Generated by `go run ./cmd/report`. Do not edit by hand: CI regenerates\n")
	sb.WriteString("     this book and fails on drift; every experiment-table test checks against it. -->\n\n")
	fmt.Fprintf(&sb, "Every table below regenerates deterministically from seed %d on the simulated\n", seed)
	sb.WriteString("hardware/kernel stack (see [ARCHITECTURE.md](ARCHITECTURE.md)); the same data is\n")
	sb.WriteString("machine-readable in [results.json](results.json). Each table self-scores against\n")
	sb.WriteString("the values the paper (or the cited literature) reports: ✅ within tolerance,\n")
	sb.WriteString("🟡 within twice the tolerance, ❌ divergent, ⚪ qualitative claim with no number.\n\n")

	sb.WriteString("## Summary\n\n")
	sb.WriteString("| experiment | title | rows | verdicts |\n")
	sb.WriteString("| :--- | :--- | ---: | :--- |\n")
	totals := map[Verdict]int{}
	for _, tb := range tables {
		scored, err := tb.Score()
		if err != nil {
			return Book{}, err
		}
		counts := map[Verdict]int{}
		for _, s := range scored {
			counts[s.Verdict]++
			totals[s.Verdict]++
		}
		fmt.Fprintf(&sb, "| [%s](#%s) | %s | %d | %s |\n",
			tb.ID, anchor(fmt.Sprintf("%s · %s", tb.ID, tb.Title)), tb.Title, len(tb.Rows), verdictCounts(counts))
	}
	fmt.Fprintf(&sb, "\nOverall: %s.\n\n", verdictCounts(totals))

	for _, tb := range tables {
		md, err := Markdown(tb)
		if err != nil {
			return Book{}, err
		}
		sb.WriteString(md)
		sb.WriteString("\n")
	}

	type jsonBook struct {
		Seed        uint64            `json:"seed"`
		Experiments []json.RawMessage `json:"experiments"`
	}
	jb := jsonBook{Seed: seed}
	for _, tb := range tables {
		raw, err := JSON(tb)
		if err != nil {
			return Book{}, err
		}
		jb.Experiments = append(jb.Experiments, raw)
	}
	out, err := json.MarshalIndent(jb, "", "  ")
	if err != nil {
		return Book{}, err
	}
	return Book{Markdown: sb.String(), JSON: string(out) + "\n"}, nil
}

// verdictCounts formats a verdict histogram for the summary table.
func verdictCounts(counts map[Verdict]int) string {
	parts := []string{}
	for _, v := range []Verdict{VerdictMatch, VerdictNear, VerdictDivergent, VerdictUnscored} {
		if n := counts[v]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s ×%d", v.Badge(), n))
		}
	}
	if len(parts) == 0 {
		return "—"
	}
	return strings.Join(parts, " · ")
}

// anchor converts a heading to its GitHub anchor slug: lowercase, spaces
// hyphenated, and all punctuation stripped except '-' and '_' (which
// GitHub's slugger preserves — "self-reuse" keeps its hyphen).
func anchor(heading string) string {
	var sb strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			sb.WriteRune(r)
		case r == ' ':
			sb.WriteRune('-')
		}
	}
	return sb.String()
}

// FirstDiff locates the first diverging line between the committed and
// regenerated book, so CI drift logs point at the drifted table.  It
// returns "" when the inputs are equal.
func FirstDiff(have, want string) string {
	if have == want {
		return ""
	}
	hl := strings.Split(have, "\n")
	wl := strings.Split(want, "\n")
	n := min(len(hl), len(wl))
	for i := 0; i < n; i++ {
		if hl[i] != wl[i] {
			return fmt.Sprintf("line %d:\n  committed:   %q\n  regenerated: %q", i+1, hl[i], wl[i])
		}
	}
	return fmt.Sprintf("line counts differ: %d vs %d", len(hl), len(wl))
}
