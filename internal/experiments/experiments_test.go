package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"explframe/internal/report"
)

// parseF parses a float cell from its canonical text and cross-checks the
// typed value riding along with it (the text is what the renderers print,
// the value is what expectations score — they must agree to rounding).
func parseF(t *testing.T, c report.Cell) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(c.Text, 64)
	if err != nil {
		t.Fatalf("cell %q not a float: %v", c.Text, err)
	}
	if !c.Numeric() {
		t.Fatalf("cell %q parses as a float but is typed %v", c.Text, c.Kind)
	}
	if math.Abs(v-c.Value) > 0.51*cellQuantum(c.Text) {
		t.Fatalf("cell text %q disagrees with typed value %v", c.Text, c.Value)
	}
	return v
}

// cellQuantum returns the resolution of a formatted decimal ("0.075" -> 1e-3).
func cellQuantum(s string) float64 {
	dot := strings.IndexByte(s, '.')
	if dot < 0 {
		return 1
	}
	return math.Pow(10, -float64(len(s)-dot-1))
}

// All() must return every experiment exactly once, in order: IDs are
// "E1".."E18" with no gaps, duplicates or shuffles (position i holds
// E<i+1>), and each runner is complete.  (TestGoldenTables additionally asserts each returned table
// carries its runner's ID, and TestGoldenTablesComplete that the results
// book lists exactly these IDs.)
func TestAllRegistered(t *testing.T) {
	runners := All()
	if len(runners) != 18 {
		t.Fatalf("expected 18 experiments, got %d", len(runners))
	}
	for i, r := range runners {
		if want := fmt.Sprintf("E%d", i+1); r.ID != want {
			t.Fatalf("runner %d has id %s, want %s (IDs must be ordered)", i, r.ID, want)
		}
		if r.Run == nil || r.Name == "" {
			t.Fatalf("incomplete runner %+v", r)
		}
	}
}

// The shape tests below check the paper's qualitative claims on the
// seed-1 tables as the results book records them; TestGoldenTables holds
// the runners to the same tables.

// E1: fragmentation must stay in [0,1]; splits and coalesces must be
// monotone counters.
func TestE1Shape(t *testing.T) {
	tb := bookTable(t, "E1")
	if len(tb.Rows) == 0 {
		t.Fatal("no rows")
	}
	var prevSplits, prevCoal float64
	for _, row := range tb.Rows {
		frag := parseF(t, row[5])
		if frag < 0 || frag > 1 {
			t.Fatalf("fragmentation %f out of range", frag)
		}
		s, c := parseF(t, row[3]), parseF(t, row[4])
		if s < prevSplits || c < prevCoal {
			t.Fatal("split/coalesce counters decreased")
		}
		prevSplits, prevCoal = s, c
	}
}

// E2: self-reuse must be ~1 for requests <= freed and non-increasing-ish
// beyond the cache's reach.
func TestE2Shape(t *testing.T) {
	tb := bookTable(t, "E2")
	first := parseF(t, tb.Rows[0][1])
	if first < 0.99 {
		t.Fatalf("1-page reuse = %f, want ~1", first)
	}
	// The largest request must not beat the smallest.
	last := parseF(t, tb.Rows[len(tb.Rows)-1][1])
	if last > first {
		t.Fatalf("reuse grew with request size: %f -> %f", first, last)
	}
}

// E3: quiet same-CPU steering must dominate cross-CPU (which must be ~0).
func TestE3Shape(t *testing.T) {
	tb := bookTable(t, "E3")
	rates := map[string]float64{}
	for _, row := range tb.Rows {
		key := row[0].Text + "/" + row[1].Text + "/" + row[2].Text
		rates[key] = parseF(t, row[3])
	}
	if rates["4/0/same"] < 0.8 {
		t.Fatalf("quiet same-CPU steering = %f, want > 0.8", rates["4/0/same"])
	}
	if rates["4/0/cross"] > 0.1 {
		t.Fatalf("cross-CPU steering = %f, want ~0", rates["4/0/cross"])
	}
	if rates["4/400/same"] > rates["4/0/same"] {
		t.Fatal("heavy noise did not degrade steering")
	}
}

// E7: entropy decreases with ciphertexts; recovery reaches 1 at the end.
func TestE7Shape(t *testing.T) {
	tb := bookTable(t, "E7")
	prev := 1e9
	for _, row := range tb.Rows {
		e := parseF(t, row[1])
		if e > prev+1e-9 {
			t.Fatalf("entropy increased: %f -> %f", prev, e)
		}
		prev = e
	}
	last := tb.Rows[len(tb.Rows)-1]
	if parseF(t, last[1]) != 0 || parseF(t, last[2]) != 1 {
		t.Fatalf("final checkpoint not fully recovered: %v", last)
	}
}

// E10: PRESENT converges far faster than AES.
func TestE10Shape(t *testing.T) {
	tb := bookTable(t, "E10")
	last := tb.Rows[len(tb.Rows)-1]
	if parseF(t, last[1]) != 0 || parseF(t, last[2]) != 1 {
		t.Fatalf("PRESENT not recovered by 400 ciphertexts: %v", last)
	}
}

// E12: DMA fallbacks appear only after DMA32 drains; watermark reserve holds.
func TestE12Shape(t *testing.T) {
	tb := bookTable(t, "E12")
	sawFallback := false
	for _, row := range tb.Rows {
		dma32Free := parseF(t, row[1])
		fallbacks := parseF(t, row[3])
		if fallbacks > 0 {
			sawFallback = true
			if dma32Free > 200 {
				t.Fatalf("DMA fallback while DMA32 still has %v free pages", dma32Free)
			}
		}
	}
	if !sawFallback {
		t.Fatal("pressure sweep never reached the DMA fallback")
	}
	last := tb.Rows[len(tb.Rows)-1]
	if parseF(t, last[1]) < 1 || parseF(t, last[2]) < 1 {
		t.Fatal("watermark reserve violated")
	}
}
