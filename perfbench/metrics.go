package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metricDef declares one printed metric.  The lists below are the single
// source of the names and units BENCHMARK.json declares; a test keeps the
// two in step.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run of every workload.
var endToEnd = []metricDef{
	{"trials_per_s", "1/s", "higher"},
	{"latency_ms_p50", "ms", "lower"},
	{"latency_ms_p90", "ms", "lower"},
	{"cpu_ms_per_trial", "ms", "lower"},
	{"alloc_mib_per_trial", "MiB", "lower"},
	{"rss_mib", "MiB", "lower"},
	{"setup_s", "s", "lower"},
	{"success_frac", "frac", "higher"},
	{"ok_frac", "frac", "higher"},
}

// perLayer are the single-layer metrics of the traced run.  Layer times
// are span self times in ms per trial that called the layer (per campaign
// round for the service.* client calls); a layer a workload never calls
// reads 0.
var perLayer = []metricDef{
	{"kernel.machine_ms", "ms", "lower"},
	{"kernel.touch_ms", "ms", "lower"},
	{"kernel.steer_trial_ms", "ms", "lower"},
	{"mm.allocs", "count", "lower"},
	{"mm.pcp_hits", "count", "higher"},
	{"rowhammer.template_ms", "ms", "lower"},
	{"rowhammer.rehammer_ms", "ms", "lower"},
	{"dram.activations", "count", "lower"},
	{"dram.ns_per_activation", "ns", "lower"},
	{"dram.bit_flips", "count", "higher"},
	{"trace.steer_ms", "ms", "lower"},
	{"cipher.encrypt_ms", "ms", "lower"},
	{"cipher.encryptions", "count", "lower"},
	{"cipher.ns_per_encryption", "ns", "lower"},
	{"pfa.observe_ms", "ms", "lower"},
	{"pfa.recover_ms", "ms", "lower"},
	{"pfa.recover_attempts", "count", "lower"},
	{"pfa.recover_useful_ratio", "ratio", "higher"},
	{"dfa.collect_ms", "ms", "lower"},
	{"dfa.analyze_ms", "ms", "lower"},
	{"dfa.analyze_calls", "count", "lower"},
	{"dfa.analyze_useful_ratio", "ratio", "higher"},
	{"cache.probe_ms", "ms", "lower"},
	{"cache.ns_per_measurement", "ns", "lower"},
	{"service.submit_ms", "ms", "lower"},
	{"service.first_line_ms", "ms", "lower"},
	{"service.report_ms", "ms", "lower"},
	{"service.boot_ms", "ms", "lower"},
	{"service.replay_ms", "ms", "lower"},
	{"service.journal_bytes_per_trial", "B", "lower"},
	{"service.resumed_trials", "count", "higher"},
	{"service.stream_retries", "count", "lower"},
	{"service.overhead_cpu_ms_per_trial", "ms", "lower"},
	{"core.phase_coverage", "frac", "higher"},
	{"core.unaccounted_ms_per_trial", "ms", "lower"},
	{"runtime.gc_cpu_ms_per_trial", "ms", "lower"},
	{"bench.trace_overhead_ms_per_trial", "ms", "lower"},
}

// minTail is the number of samples a reported percentile must leave
// beyond it.
const minTail = 10

// tailQuantile returns the highest quantile, at most want, that leaves at
// least minTail of n samples beyond it; below 2*minTail samples no tail
// percentile qualifies and the median stands in.
func tailQuantile(n int, want float64) float64 {
	if n <= 0 {
		return 0.5
	}
	q := math.Min(want, float64(n-minTail)/float64(n))
	return math.Max(q, 0.5)
}

// quantile returns the nearest-rank q-quantile of samples: the smallest
// value with at least a share q of the samples at or below it.  samples
// need not be sorted; it is not modified.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the nearest-rank median.
func median(samples []float64) float64 { return quantile(samples, 0.5) }

// latencyMetrics fills the p50 and tail latency metrics from per-operation
// wall times and describes the sample count on stderr.
func latencyMetrics(out map[string]metricValue, lat []float64) {
	q := tailQuantile(len(lat), 0.9)
	out["latency_ms_p50"] = metricValue{median(lat), "ms"}
	out["latency_ms_p90"] = metricValue{quantile(lat, q), "ms"}
	logf("latency: %d samples; latency_ms_p90 reports p%.1f (%d samples beyond it)",
		len(lat), 100*q, len(lat)-int(math.Ceil(q*float64(len(lat))-1e-9)))
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// encode renders the result line, rejecting values JSON cannot carry.
func (r result) encode() ([]byte, error) {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return json.Marshal(r)
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	wall  time.Time
	cpu   time.Duration // user + system CPU of the whole process
	alloc uint64        // runtime.MemStats.TotalAlloc
	gcCPU float64       // seconds of GC CPU from runtime/metrics
}

const gcCPUMetric = "/cpu/classes/gc/total:cpu-seconds"

// sample reads the counters.
func sample() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: gcCPUMetric}}
	metrics.Read(gc)
	var gcCPU float64
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		gcCPU = gc[0].Value.Float64()
	}
	return usage{
		wall:  time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
		gcCPU: gcCPU,
	}
}

// window is the difference of two snapshots.
type window struct {
	wall, cpu time.Duration
	alloc     uint64
	gcCPU     float64
}

// plus adds two windows.
func (w window) plus(o window) window {
	return window{w.wall + o.wall, w.cpu + o.cpu, w.alloc + o.alloc, w.gcCPU + o.gcCPU}
}

// minus takes window o out of w.
func (w window) minus(o window) window {
	return window{w.wall - o.wall, w.cpu - o.cpu, w.alloc - o.alloc, w.gcCPU - o.gcCPU}
}

// since measures the window from snapshot a to now.
func since(a usage) window {
	b := sample()
	return window{
		wall:  b.wall.Sub(a.wall),
		cpu:   b.cpu - a.cpu,
		alloc: b.alloc - a.alloc,
		gcCPU: b.gcCPU - a.gcCPU,
	}
}

// residentMiB is the memory the Go runtime holds from the system and has
// not returned: everything it mapped minus the heap pages it released.
// The workloads sample it after every operation and report the median,
// because the process's peak RSS is the maximum over thousands of GC
// cycles of the pacer's overshoot and moved by a quarter between runs of
// identical work.
func residentMiB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

// throughputMetrics fills the per-trial cost metrics of a measured window
// and the median of the resident memory sampled during it.
func throughputMetrics(out map[string]metricValue, w window, trials int, resident []float64) {
	n := float64(trials)
	out["trials_per_s"] = metricValue{n / w.wall.Seconds(), "1/s"}
	out["cpu_ms_per_trial"] = metricValue{ms(w.cpu) / n, "ms"}
	out["alloc_mib_per_trial"] = metricValue{float64(w.alloc) / (1 << 20) / n, "MiB"}
	out["rss_mib"] = metricValue{median(resident), "MiB"}
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setupSamples is how many set-up samples a run times; setup_s is their
// median.
const setupSamples = 25

// setupSampler times a workload's cold set-up at points spread over the
// run, so setup_s sees the same host as the run's other metrics.  Timed
// back to back at one moment, every sample of a run sat in whatever state
// the shared host was in then: nine service boots agreed within a few
// percent in one run, and their medians sat up to 60% apart between
// runs.  Each sample times batch back-to-back set-ups after a collection,
// so no earlier garbage is collected inside it; batching lifts the
// sub-millisecond set-ups above timer and cache noise.  setup returns an
// optional teardown, which runs after the timed interval.  Everything a
// sample costs, collection and teardown included, is summed in cost,
// which the workload takes out of the window it measures.
type setupSampler struct {
	batch   int
	setup   func() (func(), error)
	samples []float64 // seconds per set-up
	cost    window
	err     error
}

// due reports whether a sample is due after operation op (1-based) of
// ops: setupSamples of them spread evenly, or one after each operation
// when there are fewer.
func (s *setupSampler) due(op, ops int) bool {
	return op*setupSamples/ops != (op-1)*setupSamples/ops
}

// take times one sample.  After the first error it does nothing.
func (s *setupSampler) take() {
	if s.err != nil {
		return
	}
	a := sample()
	runtime.GC()
	teardowns := make([]func(), 0, s.batch)
	t0 := time.Now()
	for j := 0; j < s.batch && s.err == nil; j++ {
		var teardown func()
		if teardown, s.err = s.setup(); teardown != nil {
			teardowns = append(teardowns, teardown)
		}
	}
	d := time.Since(t0)
	for _, td := range teardowns {
		td()
	}
	s.samples = append(s.samples, d.Seconds()/float64(s.batch))
	s.cost = s.cost.plus(since(a))
}

// median returns the median seconds per set-up over the samples taken.
func (s *setupSampler) median() (float64, error) {
	if s.err != nil {
		return 0, s.err
	}
	if len(s.samples) == 0 {
		return 0, fmt.Errorf("no set-up sample taken")
	}
	return median(s.samples), nil
}
