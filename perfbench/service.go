package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"explframe/internal/harness"
	"explframe/internal/report"
	"explframe/internal/scenario"
	"explframe/internal/service"
)

// server is one explframed instance on a loopback listener.
type server struct {
	svc    *service.Server
	http   *http.Server
	served chan error
	client *service.Client
}

// boot starts a server over cfg's journal and store and returns once its
// health check answers OK.
func boot(cfg service.Config, hc *http.Client) (*server, error) {
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Shutdown()
		return nil, err
	}
	s := &server{
		svc:    svc,
		http:   &http.Server{Handler: svc, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		client: &service.Client{Base: "http://" + ln.Addr().String(), HTTP: hc},
	}
	go func() { s.served <- s.http.Serve(ln) }()
	resp, err := hc.Get(s.client.Base + "/v1/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop shuts the service down gracefully (unfinished campaigns stay
// resumable in the journal), then the HTTP server, and waits for both.
func (s *server) stop() error {
	err := s.svc.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if herr := s.http.Shutdown(ctx); herr != nil && err == nil {
		err = herr
	}
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// errRestart stops the stream of the campaign the run restarts the server
// under.
var errRestart = errors.New("restart")

// key locates one trial of one campaign's member spec.
type key struct{ spec, trial int }

// maxStreamRetries bounds the re-attachments of one round's stream.
const maxStreamRetries = 3

// round is one campaign's round trip as the client saw it.
type round struct {
	id       string
	outcomes map[key]scenario.TrialOutcome
	table    *report.Table
	retries  int // streams re-attached after ending without a terminal line
	err      error
}

// runService measures explframed in-process: one client on one connection
// in a closed loop (submit, stream to the terminal line, fetch the report),
// with one graceful restart over the same journal mid-campaign.
func runService(cfg runConfig) (result, error) {
	camps := serviceCampaigns(cfg.seed, cfg.rounds)
	dir, err := os.MkdirTemp(buildDir, "service-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	logger := log.New(os.Stderr, "explframed: ", 0)
	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	// TrialWorkers stays at the service default, one per CPU as a deployed
	// explframed runs: the only parallel dispatch any workload exercises.
	scfg := service.Config{Journal: filepath.Join(dir, "run.journal"), Store: filepath.Join(dir, "store"), Log: logger}
	srv, err := boot(scfg, hc)
	if err != nil {
		return result{}, err
	}
	restartAt := len(camps) / 2
	rounds := make([]round, len(camps))
	var lat, resident []float64
	resumed := 0
	start := sample()
	for i, camp := range camps {
		tr.setTrial(i)
		t0 := time.Now()
		rd, s, err := roundTrip(tr, srv, camp, i == restartAt, scfg, hc)
		if s == nil {
			return result{}, err
		}
		srv = s
		if err != nil {
			rd.err = err
		} else if i == restartAt {
			st, err := srv.client.Status(context.Background(), rd.id)
			if err != nil {
				rd.err = err
			}
			resumed = st.ResumedTrials
		}
		rounds[i] = rd
		lat = append(lat, ms(time.Since(t0)))
		resident = append(resident, residentMiB())
	}
	w := since(start)
	if err := srv.stop(); err != nil {
		return result{}, fmt.Errorf("stopping server: %w", err)
	}

	// The in-process fold of the same campaigns is the reference every
	// served outcome and report must equal.  Set-up samples are spread over
	// it: each is a cold boot over the run's journal, every campaign in it
	// done, so replay dominates it, as it does a restarted deployment's.
	setups := &setupSampler{batch: 1, setup: func() (func(), error) {
		s, err := boot(scfg, hc)
		if err != nil {
			return nil, err
		}
		return func() { s.stop() }, nil
	}}
	refStart := sample()
	refs := make([][]*scenario.Result, len(camps))
	for i, camp := range camps {
		refs[i], err = camp.Run(context.Background(), scenario.WithTrialOptions(harness.WithWorkers(1)))
		if err != nil {
			return result{}, fmt.Errorf("reference run of %s: %w", camp.Name, err)
		}
		if setups.due(i+1, len(camps)) {
			setups.take()
		}
	}
	ref := since(refStart).minus(setups.cost)
	setupS, err := setups.median()
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}

	res := result{Metrics: map[string]metricValue{}, Attempted: len(camps)}
	trials, successes := 0, 0
	for i, camp := range camps {
		if err := checkRound(camp, rounds[i], refs[i]); err != nil {
			logf("campaign %s (%s): %v", camp.Name, rounds[i].id, err)
			res.Failed++
		}
		for j, spec := range camp.Specs {
			trials += spec.Trials
			for k := 0; k < spec.Trials; k++ {
				if ok, _ := checkOutcome(spec, outcomeAt(refs[i][j], k)); ok {
					successes++
				}
			}
		}
	}
	logf("campaign ids: first %s, restarted %s, last %s", rounds[0].id, rounds[restartAt].id, rounds[len(rounds)-1].id)
	res.Correct = res.Failed == 0
	if !cfg.trace {
		throughputMetrics(res.Metrics, w, trials, resident)
		latencyMetrics(res.Metrics, lat)
		res.Metrics["setup_s"] = metricValue{setupS, "s"}
		res.Metrics["success_frac"] = metricValue{float64(successes) / float64(trials), "frac"}
		res.Metrics["ok_frac"] = metricValue{1 - float64(res.Failed)/float64(len(camps)), "frac"}
		return res, nil
	}

	// Traced run: replay every served trial through the replicas, then add
	// the client-side service spans and the journal's costs.
	rp := &replicator{tr: tr}
	id := len(camps)
	for i, camp := range camps {
		for j, spec := range camp.Specs {
			for k := 0; k < spec.Trials; k++ {
				tr.setTrial(id)
				id++
				got, err := rp.replicate(spec, k)
				if err != nil || !reflect.DeepEqual(got, rounds[i].outcomes[key{j, k}]) {
					logf("replica %s trial %d differs from the served outcome (err %v)", spec.Title(), k, err)
					res.Failed++
				}
			}
		}
	}
	tr.setTrial(id)
	sp := tr.begin("service.replay")
	j, states, err := service.OpenJournal(scfg.Journal)
	tr.end(sp)
	if err != nil {
		return result{}, fmt.Errorf("replaying journal: %w", err)
	}
	if err := j.Close(); err != nil {
		return result{}, err
	}
	if len(states) != len(camps) {
		logf("journal replays %d campaigns, want %d", len(states), len(camps))
		res.Failed++
	}
	info, err := os.Stat(scfg.Journal)
	if err != nil {
		return result{}, err
	}

	traced, n := trialTime(tr.spans)
	layerMetrics(res.Metrics, rp, n)
	lt := aggregate(tr.spans)
	for _, name := range []string{"service.submit", "service.first_line", "service.report", "service.boot", "service.replay"} {
		res.Metrics[name+"_ms"] = metricValue{lt.perTrialMS(name), "ms"}
	}
	res.Metrics["service.journal_bytes_per_trial"] = metricValue{float64(info.Size()) / float64(trials), "B"}
	res.Metrics["service.resumed_trials"] = metricValue{float64(resumed), "count"}
	retries := 0
	for _, rd := range rounds {
		retries += rd.retries
	}
	res.Metrics["service.stream_retries"] = metricValue{float64(retries), "count"}
	res.Metrics["service.overhead_cpu_ms_per_trial"] = metricValue{(ms(w.cpu) - ms(ref.cpu)) / float64(trials), "ms"}
	res.Metrics["runtime.gc_cpu_ms_per_trial"] = metricValue{1000 * w.gcCPU / float64(trials), "ms"}
	res.Metrics["bench.trace_overhead_ms_per_trial"] = metricValue{(ms(traced) - ms(ref.wall)) / float64(trials), "ms"}
	res.Correct = res.Failed == 0
	if err := tr.write(cfg.spanOut); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	logf("spans: %d written to %s", len(tr.spans), cfg.spanOut)
	return res, nil
}

// roundTrip submits one campaign, consumes its stream to the terminal line
// and fetches its report.  With restart set it shuts the server down after
// the first streamed trial, boots a new one over the same journal and
// store, and re-attaches; the server in use afterwards is returned.
func roundTrip(tr *tracer, srv *server, camp scenario.Campaign, restart bool, cfg service.Config, hc *http.Client) (round, *server, error) {
	ctx := context.Background()
	rd := round{outcomes: map[key]scenario.TrialOutcome{}}
	sp := tr.begin("service.submit")
	st, err := srv.client.Submit(ctx, camp)
	tr.end(sp)
	if err != nil {
		return rd, srv, err
	}
	rd.id = st.ID
	if want := service.CampaignID(camp); st.ID != want {
		return rd, srv, fmt.Errorf("campaign id %s, want %s", st.ID, want)
	}
	// A stream the server ends without its terminal line is re-attached, as
	// service.ErrStreamEnded tells clients to; it replays from the start.
	stream := func() (service.StreamLine, error) {
		for {
			sp := tr.begin("service.stream")
			first := tr.begin("service.first_line")
			term, err := srv.client.Stream(ctx, rd.id, func(l service.StreamLine) error {
				tr.end(first)
				if l.Outcome != nil {
					rd.outcomes[key{l.Spec, l.Trial}] = *l.Outcome
				}
				if restart {
					restart = false
					return errRestart
				}
				return nil
			})
			tr.end(sp)
			if !errors.Is(err, service.ErrStreamEnded) || rd.retries >= maxStreamRetries {
				return term, err
			}
			rd.retries++
			logf("campaign %s: stream ended without its terminal line; re-attaching", rd.id)
		}
	}
	term, err := stream()
	if errors.Is(err, errRestart) {
		if err := srv.stop(); err != nil {
			return rd, srv, fmt.Errorf("shutdown: %w", err)
		}
		sp := tr.begin("service.boot")
		srv, err = boot(cfg, hc)
		tr.end(sp)
		if err != nil {
			return rd, nil, fmt.Errorf("reboot: %w", err)
		}
		term, err = stream()
	}
	if err != nil {
		return rd, srv, err
	}
	if term.Status != "done" {
		return rd, srv, fmt.Errorf("campaign ended %s: %s", term.Status, term.Error)
	}
	sp = tr.begin("service.report")
	rd.table, err = srv.client.Report(ctx, rd.id)
	tr.end(sp)
	return rd, srv, err
}

// checkRound compares one served campaign against its in-process fold:
// every streamed outcome field by field, and the report as a whole.
func checkRound(camp scenario.Campaign, rd round, ref []*scenario.Result) error {
	if rd.err != nil {
		return rd.err
	}
	want := 0
	for j, spec := range camp.Specs {
		want += spec.Trials
		for k := 0; k < spec.Trials; k++ {
			got, ok := rd.outcomes[key{j, k}]
			if !ok {
				return fmt.Errorf("spec %d trial %d never streamed", j, k)
			}
			if !reflect.DeepEqual(got, outcomeAt(ref[j], k)) {
				return fmt.Errorf("spec %d trial %d streamed %+v, in-process run gives %+v", j, k, got, outcomeAt(ref[j], k))
			}
		}
	}
	if len(rd.outcomes) != want {
		return fmt.Errorf("%d trials streamed, want %d", len(rd.outcomes), want)
	}
	if table := scenario.CampaignTable(camp.Name, ref); !reflect.DeepEqual(rd.table, table) {
		return fmt.Errorf("served report differs from the in-process campaign table")
	}
	return nil
}
