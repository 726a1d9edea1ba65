package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call at a layer boundary.  Spans of one trial share
// its id; parent is the index of the span that was open when this one
// began (-1 at a root).  A span with calls > 0 is a lumped leaf: calls
// sequential calls under one parent, summed into one record that starts
// at the first call and lasts their total time.
type span struct {
	name       string
	trial      int
	parent     int
	start, end time.Duration // offsets from the tracer's origin; end < 0 while open
	calls      int
}

// tracer records spans in memory for one goroutine and writes them out
// when the run ends.  A nil *tracer records nothing, so untraced code
// paths call it unconditionally.
type tracer struct {
	origin time.Time
	spans  []span
	open   int
	trial  int
	leaves map[leafKey]int // lumped leaf span index by parent and name
}

type leafKey struct {
	parent int
	name   string
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), open: -1, leaves: map[leafKey]int{}}
}

// setTrial tags the spans begun from now on.
func (t *tracer) setTrial(id int) {
	if t != nil {
		t.trial = id
	}
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, trial: t.trial, parent: t.open, start: time.Since(t.origin), end: -1})
	t.open = len(t.spans) - 1
	return t.open
}

// end closes span i and every span still open inside it.
func (t *tracer) end(i int) {
	if t == nil || i < 0 || t.spans[i].end >= 0 {
		return
	}
	now := time.Since(t.origin)
	for t.open >= i && t.open >= 0 {
		t.spans[t.open].end = now
		t.open = t.spans[t.open].parent
	}
}

// leaf adds one call of a childless layer that began at began to the
// lumped leaf of that name under the innermost open span.  Per-item calls
// made thousands of times a trial use it, so the trace stays small.
func (t *tracer) leaf(name string, began time.Time) {
	if t == nil {
		return
	}
	d := time.Since(began)
	k := leafKey{t.open, name}
	i, ok := t.leaves[k]
	if !ok {
		start := began.Sub(t.origin)
		t.spans = append(t.spans, span{name: name, trial: t.trial, parent: t.open, start: start, end: start})
		i = len(t.spans) - 1
		t.leaves[k] = i
	}
	t.spans[i].end += d
	t.spans[i].calls++
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.  Children are clipped to the parent's interval
// and their overlaps counted once, so a child that starts before or ends
// after its parent only removes the shared part.  Lumped leaves never
// overlap their siblings, so their totals are subtracted whole.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	type interval struct{ lo, hi time.Duration }
	var ivs []interval
	for i, s := range spans {
		ivs = ivs[:0]
		var covered time.Duration
		for _, c := range children[i] {
			if spans[c].calls > 0 {
				covered += spans[c].end - spans[c].start
				continue
			}
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				ivs = append(ivs, interval{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		cur := interval{-1, -1}
		for _, iv := range ivs {
			if iv.lo > cur.hi {
				covered += cur.hi - cur.lo
				cur = iv
			} else if iv.hi > cur.hi {
				cur.hi = iv.hi
			}
		}
		covered += cur.hi - cur.lo
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerTotals sums self time per span name and counts the distinct trials
// that called each.
type layerTotals struct {
	self   map[string]time.Duration
	trials map[string]map[int]bool
}

func aggregate(spans []span) layerTotals {
	lt := layerTotals{self: map[string]time.Duration{}, trials: map[string]map[int]bool{}}
	for i, d := range selfTimes(spans) {
		name := spans[i].name
		lt.self[name] += d
		if lt.trials[name] == nil {
			lt.trials[name] = map[int]bool{}
		}
		lt.trials[name][spans[i].trial] = true
	}
	return lt
}

// perTrialMS is the mean self time of name per trial that called it.
func (lt layerTotals) perTrialMS(name string) float64 {
	n := len(lt.trials[name])
	if n == 0 {
		return 0
	}
	return ms(lt.self[name]) / float64(n)
}

// Trial roots are named trialPrefix+kind, and the phases of a trial are
// its direct children named phasePrefix+phase.
const (
	trialPrefix = "trial."
	phasePrefix = "phase."
)

// phaseCoverage returns the share of trial-root time their phase spans
// account for, and the unaccounted remainder in ms per trial.
func phaseCoverage(spans []span) (coverage, unaccountedMS float64) {
	var trialTime, phaseTime time.Duration
	trials := 0
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.name, trialPrefix) && s.parent < 0:
			trialTime += s.end - s.start
			trials++
		case strings.HasPrefix(s.name, phasePrefix) && s.parent >= 0 &&
			strings.HasPrefix(spans[s.parent].name, trialPrefix):
			phaseTime += s.end - s.start
		}
	}
	if trials == 0 || trialTime <= 0 {
		return 0, 0
	}
	return float64(phaseTime) / float64(trialTime), ms(trialTime-phaseTime) / float64(trials)
}

// trialTime is the summed duration of the trial roots.
func trialTime(spans []span) (total time.Duration, n int) {
	for _, s := range spans {
		if strings.HasPrefix(s.name, trialPrefix) && s.parent < 0 {
			total += s.end - s.start
			n++
		}
	}
	return total, n
}

// meanDurationMS is the mean duration of the spans named name.
func meanDurationMS(spans []span, name string) float64 {
	var total time.Duration
	n := 0
	for _, s := range spans {
		if s.name == name {
			total += s.end - s.start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return ms(total) / float64(n)
}

// write saves the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"trial":%d,"parent":%d,"start_ns":%d,"end_ns":%d,"calls":%d}`+"\n",
			i, s.name, s.trial, s.parent, s.start.Nanoseconds(), s.end.Nanoseconds(), max(s.calls, 1))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
