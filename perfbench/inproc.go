package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"time"

	"explframe/internal/cipher/registry"
	"explframe/internal/core"
	"explframe/internal/fault/dfa"
	"explframe/internal/harness"
	"explframe/internal/scenario"
	"explframe/internal/service"
)

// runAttack measures the full ExplFrame pipeline in-process.
func runAttack(cfg runConfig) (result, error) {
	return runInProcess(cfg, attackCampaign(cfg.seed, cfg.rounds), 1, attackSetup)
}

// runCrypto measures crypto-only fault analysis in-process.
func runCrypto(cfg runConfig) (result, error) {
	return runInProcess(cfg, cryptoCampaign(cfg.seed, cfg.rounds), 256, cryptoSetup)
}

// decodeCampaign is the user's first step: the campaign arrives as JSON
// and is parsed and validated.
func decodeCampaign(camp scenario.Campaign) (scenario.Campaign, error) {
	data, err := camp.EncodeJSON()
	if err != nil {
		return scenario.Campaign{}, err
	}
	c, err := scenario.ParseCampaign(data)
	if err != nil {
		return scenario.Campaign{}, err
	}
	return c, c.Validate()
}

// attackSetup is the cold set-up before an attack campaign's first result:
// decode, validate and lower every spec, then build each spec's first
// machine.
func attackSetup(camp scenario.Campaign) error {
	c, err := decodeCampaign(camp)
	if err != nil {
		return err
	}
	for _, s := range c.Specs {
		cfg, err := s.AttackConfig()
		if err != nil {
			return err
		}
		if _, err := core.NewAttack(cfg); err != nil {
			return err
		}
	}
	return nil
}

// cryptoSetup is the cold set-up before a crypto campaign's first result:
// decode and validate, then key each spec's first cipher instance and
// resolve its analyzer.
func cryptoSetup(camp scenario.Campaign) error {
	c, err := decodeCampaign(camp)
	if err != nil {
		return err
	}
	for _, s := range c.Specs {
		ci, ok := registry.Get(s.CipherName())
		if !ok {
			return fmt.Errorf("unknown cipher %q", s.CipherName())
		}
		if _, err := ci.New(make([]byte, ci.KeyBytes())); err != nil {
			return err
		}
		if s.Kind == scenario.DFA {
			if _, ok := dfa.Get(ci.Name()); !ok {
				return fmt.Errorf("no DFA analyzer for %q", ci.Name())
			}
		}
	}
	return nil
}

// runInProcess runs the campaign through scenario.Campaign at one trial
// worker and checks every outcome; a traced run then replays each trial
// through the traced replicas and reports the per-layer metrics.
func runInProcess(cfg runConfig, camp scenario.Campaign, setupBatch int, setup func(scenario.Campaign) error) (result, error) {
	logf("campaign %s: id %s, %d specs", camp.Name, service.CampaignID(camp), len(camp.Specs))
	setups := &setupSampler{batch: setupBatch, setup: func() (func(), error) { return nil, setup(camp) }}
	trials := trialCount(camp)

	var lat, resident []float64
	start := sample()
	last := start.wall
	results, runErr := camp.Run(context.Background(),
		scenario.WithTrialEvents(),
		scenario.WithTrialOptions(harness.WithWorkers(1)),
		scenario.WithProgress(func(e scenario.Event) {
			now := time.Now()
			if e.Trial >= 0 {
				lat = append(lat, ms(now.Sub(last)))
				resident = append(resident, residentMiB())
				if setups.due(len(lat), trials) {
					setups.take()
					now = time.Now()
				}
			}
			last = now
		}))
	w := since(start).minus(setups.cost)
	setupS, err := setups.median()
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}

	res := result{Metrics: map[string]metricValue{}}
	successes := 0
	for i, spec := range camp.Specs {
		res.Attempted += spec.Trials
		if i >= len(results) || results[i] == nil {
			res.Failed += spec.Trials
			continue
		}
		for k := 0; k < spec.Trials; k++ {
			ok, err := checkOutcome(spec, outcomeAt(results[i], k))
			if err != nil {
				logf("check %s trial %d: %v", spec.Title(), k, err)
				res.Failed++
			}
			if ok {
				successes++
			}
		}
	}
	if runErr != nil {
		logf("campaign: %v", runErr)
	}
	if !cfg.trace {
		throughputMetrics(res.Metrics, w, trials, resident)
		latencyMetrics(res.Metrics, lat)
		res.Metrics["setup_s"] = metricValue{setupS, "s"}
		res.Metrics["success_frac"] = metricValue{float64(successes) / float64(trials), "frac"}
		res.Metrics["ok_frac"] = metricValue{1 - float64(res.Failed)/float64(trials), "frac"}
		res.Correct = res.Failed == 0
		return res, nil
	}

	// Traced run: replay every trial through the replicas and compare.
	rp := &replicator{tr: newTracer()}
	id := 0
	for i, spec := range camp.Specs {
		for k := 0; k < spec.Trials; k++ {
			rp.tr.setTrial(id)
			id++
			got, err := rp.replicate(spec, k)
			if err != nil {
				logf("replica %s trial %d: %v", spec.Title(), k, err)
				res.Failed++
				continue
			}
			if i < len(results) && results[i] != nil && !reflect.DeepEqual(got, outcomeAt(results[i], k)) {
				logf("replica %s trial %d differs from scenario.Run", spec.Title(), k)
				res.Failed++
			}
		}
	}
	traced, n := trialTime(rp.tr.spans)
	layerMetrics(res.Metrics, rp, n)
	res.Metrics["runtime.gc_cpu_ms_per_trial"] = metricValue{1000 * w.gcCPU / float64(trials), "ms"}
	res.Metrics["bench.trace_overhead_ms_per_trial"] = metricValue{(ms(traced) - sum(lat)) / float64(n), "ms"}
	res.Correct = res.Failed == 0
	if err := rp.tr.write(cfg.spanOut); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	logf("spans: %d written to %s", len(rp.tr.spans), cfg.spanOut)
	return res, nil
}

// trialCount is the number of trials over the campaign's specs.
func trialCount(camp scenario.Campaign) int {
	n := 0
	for _, spec := range camp.Specs {
		n += spec.Trials
	}
	return n
}

// outcomeAt returns trial k of a folded result in the journal's wire form.
func outcomeAt(r *scenario.Result, k int) scenario.TrialOutcome {
	switch r.Spec.Kind {
	case scenario.Attack:
		return scenario.TrialOutcome{Attack: r.Attack[k]}
	case scenario.Steering:
		return scenario.TrialOutcome{Steering: r.Steering[k]}
	case scenario.PFA:
		return scenario.TrialOutcome{PFA: &r.PFA[k]}
	case scenario.DFA:
		return scenario.TrialOutcome{DFA: &r.DFA[k]}
	case scenario.CacheProbe:
		return scenario.TrialOutcome{CacheProbe: &r.CacheProbe[k]}
	}
	return scenario.TrialOutcome{}
}

// checkOutcome reports whether a trial reached its goal, and an error when
// the outcome contradicts itself: a success without the victim's key, or a
// recovery outside the trial's budget.
func checkOutcome(spec scenario.Spec, o scenario.TrialOutcome) (bool, error) {
	if !o.Matches(spec.Kind) {
		return false, fmt.Errorf("outcome does not carry a %s result", spec.Kind)
	}
	switch spec.Kind {
	case scenario.Attack:
		rep := o.Attack
		if !rep.Success() {
			return false, nil
		}
		cfg, err := spec.AttackConfig()
		if err != nil {
			return false, err
		}
		if !bytes.Equal(rep.RecoveredKey, cfg.VictimKey) {
			return false, fmt.Errorf("success reported with key %x, victim key %x", rep.RecoveredKey, cfg.VictimKey)
		}
		if !rep.SiteFound || !rep.SteeringHit || !rep.FaultInjected || rep.CiphertextsUsed <= 0 {
			return false, fmt.Errorf("success reported without a full pipeline: %+v", rep)
		}
		return true, nil
	case scenario.PFA:
		if o.PFA.MasterOK && o.PFA.RecoveredAt <= 0 {
			return false, fmt.Errorf("master key without last-round recovery: %+v", *o.PFA)
		}
		return o.PFA.MasterOK, nil
	case scenario.DFA:
		if o.DFA.MasterOK && (o.DFA.RecoveredAt <= 0 || o.DFA.KeySpaceBits != 0) {
			return false, fmt.Errorf("master key without a unique key: %+v", *o.DFA)
		}
		return o.DFA.MasterOK, nil
	case scenario.Steering:
		return o.Steering.FirstPageHit, nil
	case scenario.CacheProbe:
		t := o.CacheProbe
		if t.Nibbles < 0 || t.Nibbles > t.NibbleTotal {
			return false, fmt.Errorf("nibbles %d of %d", t.Nibbles, t.NibbleTotal)
		}
		return t.NibbleTotal > 0 && t.Nibbles == t.NibbleTotal, nil
	}
	return false, fmt.Errorf("no check for kind %q", spec.Kind)
}

// layerMetrics fills every per-layer metric the replicas measure; trials
// is the number of traced trials.
func layerMetrics(out map[string]metricValue, rp *replicator, trials int) {
	lt := aggregate(rp.tr.spans)
	perTrial := func(v uint64) float64 { return float64(v) / float64(max(trials, 1)) }
	perMachine := func(v uint64) float64 { return float64(v) / float64(max(rp.n.machines, 1)) }
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	nsPer := func(name string, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return float64(lt.self[name].Nanoseconds()) / float64(n)
	}
	set := func(name, unit string, v float64) { out[name] = metricValue{v, unit} }
	for _, name := range []string{"kernel.machine", "kernel.touch", "rowhammer.template", "rowhammer.rehammer",
		"trace.steer", "cipher.encrypt", "pfa.observe", "pfa.recover", "dfa.collect", "dfa.analyze", "cache.probe"} {
		set(name+"_ms", "ms", lt.perTrialMS(name))
	}
	set("kernel.steer_trial_ms", "ms", meanDurationMS(rp.tr.spans, trialPrefix+"steering"))
	set("mm.allocs", "count", perMachine(rp.n.mmAllocs))
	set("mm.pcp_hits", "count", perMachine(rp.n.pcpHits))
	set("dram.activations", "count", perMachine(rp.n.activations))
	set("dram.bit_flips", "count", perMachine(rp.n.bitFlips))
	hammer := rp.n.activations
	if hammer > 0 {
		set("dram.ns_per_activation", "ns",
			float64((lt.self["rowhammer.template"]+lt.self["rowhammer.rehammer"]).Nanoseconds())/float64(hammer))
	} else {
		set("dram.ns_per_activation", "ns", 0)
	}
	set("cipher.encryptions", "count", perTrial(rp.n.encryptions))
	set("cipher.ns_per_encryption", "ns", nsPer("cipher.encrypt", rp.n.encryptions))
	set("pfa.recover_attempts", "count", perTrial(rp.n.recoverAttempts))
	set("pfa.recover_useful_ratio", "ratio", ratio(rp.n.recovers, rp.n.recoverAttempts))
	set("dfa.analyze_calls", "count", perTrial(rp.n.analyzeCalls))
	set("dfa.analyze_useful_ratio", "ratio", ratio(rp.n.analyzeHits, rp.n.analyzeCalls))
	set("cache.ns_per_measurement", "ns", nsPer("cache.probe", rp.n.measurements))
	cov, unacc := phaseCoverage(rp.tr.spans)
	set("core.phase_coverage", "frac", cov)
	set("core.unaccounted_ms_per_trial", "ms", unacc)
	for _, m := range perLayer {
		if _, ok := out[m.Name]; !ok {
			out[m.Name] = metricValue{0, m.Unit}
		}
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
