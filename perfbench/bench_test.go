package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"explframe/internal/scenario"
	"explframe/internal/service"
)

func TestTailQuantileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{100, 0.9}, {1000, 0.9}, {50, 0.8}, {40, 0.75}, {20, 0.5}, {10, 0.5}, {0, 0.5},
	} {
		if got := tailQuantile(tc.n, 0.9); got != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // unsorted on purpose
	}
	if got := quantile(samples, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (10 samples beyond it)", got)
	}
	if got := median(samples); got != 50 {
		t.Errorf("median of 1..100 = %v, want 50", got)
	}
	if samples[0] != 100 {
		t.Error("quantile sorted its input in place")
	}
	for _, n := range []int{20, 37, 100, 250} {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		q := tailQuantile(n, 0.9)
		beyond := 0
		for _, v := range s {
			if v > quantile(s, q) {
				beyond++
			}
		}
		if beyond < minTail {
			t.Errorf("n=%d: p%.1f leaves %d samples beyond it, want >= %d", n, 100*q, beyond, minTail)
		}
	}
}

func TestSetupSamplerSpreadsSamplesAndAccountsTheirCost(t *testing.T) {
	calls, teardowns := 0, 0
	s := &setupSampler{batch: 3, setup: func() (func(), error) {
		calls++
		return func() { teardowns++ }, nil
	}}
	if _, err := s.median(); err == nil {
		t.Error("median of no samples succeeded")
	}
	for op := 1; op <= 104; op++ {
		if s.due(op, 104) {
			s.take()
		}
	}
	if len(s.samples) != setupSamples {
		t.Errorf("%d samples over 104 operations, want %d", len(s.samples), setupSamples)
	}
	if calls != 3*setupSamples || teardowns != calls {
		t.Errorf("%d set-ups and %d teardowns, want %d of each", calls, teardowns, 3*setupSamples)
	}
	if s.cost.wall <= 0 {
		t.Errorf("sample cost %v, want the time the samples took", s.cost.wall)
	}
	for op := 1; op <= 3; op++ {
		if !s.due(op, 3) {
			t.Errorf("no sample due after operation %d of 3", op)
		}
	}

	boom := errors.New("boom")
	bad := &setupSampler{batch: 2, setup: func() (func(), error) { calls++; return nil, boom }}
	calls = 0
	bad.take()
	bad.take()
	if _, err := bad.median(); !errors.Is(err, boom) || calls != 1 {
		t.Errorf("after a failed set-up: median error %v after %d calls, want %v after 1", err, calls, boom)
	}
}

func TestSelfTimeWithPartlyOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "parent", parent: -1, start: 10 * ms, end: 20 * ms},
		{name: "a", parent: 0, start: 12 * ms, end: 15 * ms},    // inside
		{name: "b", parent: 0, start: 14 * ms, end: 25 * ms},    // overlaps a, ends after the parent
		{name: "c", parent: 0, start: 5 * ms, end: 11 * ms},     // starts before the parent
		{name: "leaf", parent: 2, start: 16 * ms, end: 17 * ms}, // inside b
	}
	self := selfTimes(spans)
	// Children cover [10,11] and [12,20] of the parent's [10,20]: 9 ms.
	want := []time.Duration{1 * ms, 3 * ms, 10 * ms, 6 * ms, 1 * ms}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}
	lt := aggregate(spans)
	if got := lt.perTrialMS("b"); got != 10 {
		t.Errorf("perTrialMS(b) = %v, want 10", got)
	}
}

func TestLumpedLeavesSubtractWhole(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "parent", parent: -1, start: 0, end: 10 * ms},
		{name: "child", parent: 0, start: 5 * ms, end: 7 * ms},
		{name: "leaf", parent: 0, start: 1 * ms, end: 4 * ms, calls: 300}, // 3 ms over 300 calls
	}
	if got, want := selfTimes(spans), []time.Duration{5 * ms, 2 * ms, 3 * ms}; !reflect.DeepEqual(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
	tr := newTracer()
	root := tr.begin("root")
	for i := 0; i < 1000; i++ {
		tr.leaf("pfa.observe", time.Now())
	}
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].calls != 1000 || tr.spans[1].parent != root {
		t.Fatalf("1000 leaf calls gave spans %+v", tr.spans)
	}
}

func TestTracerNestsAndUnwinds(t *testing.T) {
	tr := newTracer()
	root := tr.begin(trialPrefix + "x")
	ph := tr.begin(phasePrefix + "setup")
	tr.begin("kernel.machine") // left open: end(root) must close it
	tr.end(ph)
	tr.end(root)
	if tr.open != -1 {
		t.Fatalf("open span %d after closing the root", tr.open)
	}
	for i, s := range tr.spans {
		if s.end < s.start {
			t.Errorf("span %d (%s) never closed", i, s.name)
		}
	}
	if tr.spans[2].parent != 1 || tr.spans[1].parent != 0 {
		t.Errorf("parents = %d, %d; want 1, 0", tr.spans[2].parent, tr.spans[1].parent)
	}
	cov, _ := phaseCoverage(tr.spans)
	if cov <= 0 || cov > 1 {
		t.Errorf("phase coverage %v outside (0, 1]", cov)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("ignored")) // untraced runs call a nil tracer
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, gen := range []func(uint64) []any{
		func(seed uint64) []any { return []any{attackCampaign(seed, 3)} },
		func(seed uint64) []any { return []any{cryptoCampaign(seed, 3)} },
		func(seed uint64) []any {
			var out []any
			for _, c := range serviceCampaigns(seed, 4) {
				out = append(out, c)
			}
			return out
		},
	} {
		if a, b := gen(7), gen(7); !reflect.DeepEqual(a, b) {
			t.Errorf("same seed, different inputs:\n%v\n%v", a, b)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Error("different seeds, same inputs")
		}
	}
	ids := map[string]bool{}
	seeds := map[uint64]bool{}
	for _, seed := range []uint64{1, 2} {
		camps := append(serviceCampaigns(seed, 5), attackCampaign(seed, 2), cryptoCampaign(seed, 2))
		for _, c := range camps {
			if err := c.Validate(); err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			id := service.CampaignID(c)
			if id != service.CampaignID(c) || ids[id] {
				t.Errorf("campaign %s: id %s unstable or repeated", c.Name, id)
			}
			ids[id] = true
			for _, s := range c.Specs {
				if seeds[s.Seed] {
					t.Errorf("spec seed %d used twice", s.Seed)
				}
				seeds[s.Seed] = true
			}
		}
	}
}

func TestRoundsScaleWithSeconds(t *testing.T) {
	for _, w := range workloads {
		if w.rounds(1) < 1 || w.rounds(50) < w.rounds(25) {
			t.Errorf("%s: rounds(1)=%d rounds(25)=%d rounds(50)=%d", w.name, w.rounds(1), w.rounds(25), w.rounds(50))
		}
	}
	for _, camp := range []scenario.Campaign{attackCampaign(1, workloads[0].rounds(25)), cryptoCampaign(1, workloads[1].rounds(25))} {
		if n := trialCount(camp); n < 100 {
			t.Errorf("%s runs %d trials at 25 s, want >= 100 for a p90 with 10 samples beyond", camp.Name, n)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	legal := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !legal.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q) is illegal or repeated", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %q: better %q", m.Name, m.Better)
		}
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, program prints %v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v, program prints %v", bf.PerLayer, perLayer)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
}

func TestTracedRunPrintsEveryPerLayerMetric(t *testing.T) {
	out := map[string]metricValue{}
	layerMetrics(out, &replicator{tr: newTracer()}, 0)
	for _, m := range perLayer {
		v, ok := out[m.Name]
		if !ok || v.Unit != m.Unit {
			t.Errorf("per-layer metric %s missing or with unit %q", m.Name, v.Unit)
		}
	}
}
