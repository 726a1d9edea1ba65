package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"explframe/internal/report"
)

var update = flag.Bool("update", false, "regenerate the golden experiment tables under testdata/golden")

// goldenSeed pins the committed tables.  The determinism contract (one
// seed → one table at any worker count, see README) is what makes these
// snapshots machine-independent: any byte of drift in a rendered table is a
// real change to the regenerated paper numbers, not scheduling noise.
const goldenSeed = 1

// shortGolden lists the experiments cheap enough to verify under -short;
// the heavyweight sweeps are still pinned and checked in full runs.
var shortGolden = map[string]bool{
	"E1": true, "E2": true, "E7": true, "E10": true, "E12": true, "E15": true,
}

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".txt")
}

// TestGoldenTables locks every experiment's seed-1 Render() output to the
// committed snapshot, so refactors of the substrate, the harness or the
// cipher registry cannot silently drift the paper's numbers.  Regenerate
// deliberately with:
//
//	go test ./internal/experiments -run TestGoldenTables -update
func TestGoldenTables(t *testing.T) {
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			t.Parallel()
			if testing.Short() && !shortGolden[r.ID] {
				t.Skip("heavyweight table; verified in full (non -short) runs")
			}
			tb, err := r.Run(goldenSeed)
			if err != nil {
				t.Fatal(err)
			}
			if tb.ID != r.ID {
				t.Fatalf("runner %s returned table id %q", r.ID, tb.ID)
			}
			got := text(t, tb)
			path := goldenPath(r.ID)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden table (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s drifted from its golden table:\n%s", r.ID, renderDiff(string(want), got))
			}
		})
	}
}

// TestGoldenMarkdown pins one experiment's Markdown rendering (table,
// units, notes, expectation badges) the same way the text goldens pin the
// numbers, so renderer changes to the results book are deliberate.
// Regenerate with -update.
func TestGoldenMarkdown(t *testing.T) {
	tb, err := E2SelfReuse(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := report.Markdown(tb)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", "E2.md")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden markdown (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("E2 markdown drifted:\n%s", renderDiff(string(want), got))
	}
}

// Every experiment — including the -short-skipped heavy ones — must have a
// committed snapshot, so a newly added experiment cannot land unpinned.
func TestGoldenTablesComplete(t *testing.T) {
	for _, r := range All() {
		if _, err := os.Stat(goldenPath(r.ID)); err != nil {
			t.Errorf("%s has no golden table (run TestGoldenTables with -update): %v", r.ID, err)
		}
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{"E2.md": true} // TestGoldenMarkdown's fixture
	for _, r := range All() {
		known[r.ID+".txt"] = true
	}
	for _, e := range entries {
		if !known[e.Name()] {
			t.Errorf("stale golden file %s matches no registered experiment", e.Name())
		}
	}
}

// renderDiff shows the first diverging line with context, which localises a
// drifted number much faster than two full table dumps.
func renderDiff(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("first diff at line %d:\n  golden: %q\n  got:    %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: golden %d vs got %d\n--- golden ---\n%s--- got ---\n%s",
		len(wl), len(gl), want, got)
}
