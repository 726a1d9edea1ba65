// Package service is the campaign-as-a-service layer behind cmd/explframed:
// a long-running HTTP server that accepts the same strict-JSON scenario and
// campaign specs the CLI loads, runs their specs in declaration order
// through scenario.Campaign with each spec's trials on a bounded worker
// pool, streams per-trial results as JSON lines, and checkpoints every
// completed (spec-hash, trial-index) outcome to an append-only journal.
//
// The journal plus the index-keyed per-trial RNG contract make campaigns
// resumable: a killed or restarted server replays the journal into a
// scenario.Checkpoint, merges the completed trials without recomputing
// them, and produces a byte-identical campaign table to an uninterrupted
// run.  Completed tables are persisted into the typed report store (the
// same JSON shape as docs/results.json), so the results book, bench
// baselines and any future client consume one execution engine.
//
// API surface (all JSON):
//
//	GET  /v1/healthz                   liveness probe
//	POST /v1/campaigns                 submit a campaign or single spec
//	GET  /v1/campaigns                 list campaign statuses
//	GET  /v1/campaigns/{id}            one campaign's status
//	GET  /v1/campaigns/{id}/stream     per-trial results as JSON lines
//	POST /v1/campaigns/{id}/cancel     cancel a running campaign
//	GET  /v1/campaigns/{id}/report     the completed campaign's table
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"sort"
	"strings"
	"sync"

	"explframe/internal/harness"
	"explframe/internal/report"
	"explframe/internal/scenario"
	"explframe/internal/stats"
)

// Config sizes one Server.
type Config struct {
	// Journal is the append-only checkpoint file path.
	Journal string
	// Store is the directory completed campaign tables are persisted to.
	Store string
	// TrialWorkers bounds each spec's trial pool (0 = GOMAXPROCS); the
	// member specs of one campaign run one at a time in declaration order.
	TrialWorkers int
	// Log receives operational messages; nil uses the process default.
	Log *log.Logger
}

// CampaignStatus is the wire form of one campaign's state.
type CampaignStatus struct {
	// ID is the deterministic campaign id (resubmitting the same campaign
	// returns the same id).
	ID string `json:"id"`
	// Name is the campaign's declared name.
	Name string `json:"name"`
	// Specs counts member scenarios after dedup.
	Specs int `json:"specs"`
	// TotalTrials sums the member specs' trial counts.
	TotalTrials int `json:"total_trials"`
	// DoneTrials counts completed trials, resumed ones included.
	DoneTrials int `json:"done_trials"`
	// ResumedTrials counts trials merged from the journal instead of
	// recomputed when this server (re)started the campaign.
	ResumedTrials int `json:"resumed_trials"`
	// Status is "running", "done", "cancelled" or "failed".
	Status string `json:"status"`
	// Error carries the failure cause when Status is "failed".
	Error string `json:"error,omitempty"`
}

// StreamLine is one line of a campaign's JSONL stream: a completed trial
// (Trial >= 0, Outcome set), or the terminal status line (Trial -1, Status
// set) that ends the stream.
type StreamLine struct {
	// Campaign is the campaign id.
	Campaign string `json:"campaign"`
	// Spec is the member spec's index within the campaign.
	Spec int `json:"spec"`
	// SpecHash is the spec's canonical hash, in %016x form.
	SpecHash string `json:"spec_hash,omitempty"`
	// Trial is the trial index within the spec (-1 on the terminal line).
	Trial int `json:"trial"`
	// Outcome is the trial's result.
	Outcome *scenario.TrialOutcome `json:"outcome,omitempty"`
	// Status is set on the terminal line: "done", "cancelled" or "failed".
	Status string `json:"status,omitempty"`
	// Error carries the failure cause on a "failed" terminal line.
	Error string `json:"error,omitempty"`
}

// CampaignID derives the deterministic campaign id from the (deduplicated)
// campaign's canonical content: name plus every member spec's canonical
// Name().  Identical submissions map to the same id — the property journal
// resume and idempotent resubmission rest on.
func CampaignID(c scenario.Campaign) string {
	var b strings.Builder
	b.WriteString(c.Name)
	for _, s := range c.Specs {
		b.WriteByte('\n')
		b.WriteString(s.Name())
	}
	return fmt.Sprintf("c-%016x", stats.FNV64(b.String()))
}

// campaignRun is one campaign's live state inside the server.
type campaignRun struct {
	id    string
	camp  scenario.Campaign
	total int

	mu            sync.Mutex
	notify        chan struct{} // closed-and-replaced on every append/finish
	lines         [][]byte      // marshaled StreamLines, replayed + live
	status        string        // running | done | cancelled | failed
	errMsg        string
	done          int // completed trials, resumed included
	resumed       int
	userCancelled bool
	cancel        context.CancelFunc
	table         *report.Table
}

// appendLine adds one marshaled stream line and wakes the stream handlers.
func (cr *campaignRun) appendLine(l StreamLine) {
	cr.mu.Lock()
	cr.appendLocked(l)
	cr.mu.Unlock()
}

// appendLocked is appendLine with cr.mu held.
func (cr *campaignRun) appendLocked(l StreamLine) {
	data, err := json.Marshal(l)
	if err != nil {
		return // a TrialOutcome always marshals; defensive only
	}
	cr.lines = append(cr.lines, data)
	close(cr.notify)
	cr.notify = make(chan struct{})
}

// finish moves the run to a terminal status and appends the terminal line
// under one lock, so a snapshot that sees the terminal status also holds
// the terminal line.
func (cr *campaignRun) finish(status, errMsg string, table *report.Table) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	cr.status = status
	cr.errMsg = errMsg
	cr.table = table
	cr.appendLocked(StreamLine{Campaign: cr.id, Spec: -1, Trial: -1, Status: status, Error: errMsg})
}

// snapshot returns the lines from offset on, whether the stream is
// complete once they are consumed, and the channel the next append closes.
func (cr *campaignRun) snapshot(offset int) (lines [][]byte, terminal bool, notify <-chan struct{}) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	if offset < len(cr.lines) {
		lines = cr.lines[offset:]
	}
	return lines, cr.status != "running", cr.notify
}

// currentStatus assembles the wire status under cr.mu; callers must not
// hold it.
func (cr *campaignRun) currentStatus() CampaignStatus {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	return CampaignStatus{
		ID: cr.id, Name: cr.camp.Name, Specs: len(cr.camp.Specs),
		TotalTrials: cr.total, DoneTrials: cr.done, ResumedTrials: cr.resumed,
		Status: cr.status, Error: cr.errMsg,
	}
}

// Server executes submitted campaigns and serves their streams, statuses
// and persisted reports.  It implements http.Handler.
type Server struct {
	cfg     Config
	logger  *log.Logger
	journal *Journal
	store   *report.Store
	mux     *http.ServeMux

	baseCtx  context.Context
	stop     context.CancelFunc
	done     chan struct{} // closed by Shutdown; ends open streams
	shutOnce sync.Once
	wg       sync.WaitGroup

	mu    sync.Mutex
	runs  map[string]*campaignRun
	order []string
}

// New opens the journal and store, replays any journaled campaigns —
// unfinished ones resume immediately, with completed trials merged from
// the checkpoint instead of recomputed — and returns the ready-to-serve
// server.
func New(cfg Config) (*Server, error) {
	logger := cfg.Log
	if logger == nil {
		logger = log.Default()
	}
	store, err := report.NewStore(cfg.Store)
	if err != nil {
		return nil, err
	}
	journal, states, err := OpenJournal(cfg.Journal)
	if err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg: cfg, logger: logger, journal: journal, store: store,
		baseCtx: ctx, stop: stop, done: make(chan struct{}),
		runs: make(map[string]*campaignRun),
	}
	s.routes()
	for _, st := range states {
		s.mu.Lock()
		cr := s.registerLocked(st.ID, st.Campaign)
		s.mu.Unlock()
		s.replayLines(cr, st)
		if st.Status != "" {
			cr.finish(st.Status, st.Error, nil) // a done table reloads lazily from the store
			continue
		}
		s.logger.Printf("resuming campaign %s (%d/%d trials journaled)", st.ID, st.Checkpoint.Trials(), cr.total)
		s.start(cr, st.Checkpoint)
	}
	return s, nil
}

// registerLocked creates the in-memory run for a campaign; the caller
// holds s.mu and has checked that the id is new.
func (s *Server) registerLocked(id string, camp scenario.Campaign) *campaignRun {
	total := 0
	for _, sp := range camp.Specs {
		total += sp.Trials
	}
	cr := &campaignRun{
		id: id, camp: camp, total: total,
		notify: make(chan struct{}), status: "running",
	}
	s.runs[id] = cr
	s.order = append(s.order, id)
	return cr
}

// replayLines regenerates the stream lines of journaled trials in
// deterministic order (spec ascending, trial ascending) so a stream opened
// after a restart sees the full history.
func (s *Server) replayLines(cr *campaignRun, st *CampaignState) {
	seen := make(map[uint64]bool)
	for i, sp := range cr.camp.Specs {
		h := sp.Hash()
		if seen[h] {
			continue
		}
		seen[h] = true
		byTrial := st.Checkpoint[h]
		trials := make([]int, 0, len(byTrial))
		for t := range byTrial {
			trials = append(trials, t)
		}
		sort.Ints(trials)
		for _, t := range trials {
			out := byTrial[t]
			cr.appendLine(StreamLine{
				Campaign: cr.id, Spec: i, SpecHash: fmt.Sprintf("%016x", h),
				Trial: t, Outcome: &out,
			})
		}
		cr.mu.Lock()
		cr.done += len(trials)
		cr.resumed += len(trials)
		cr.mu.Unlock()
	}
}

// testHookSubmit, when set, runs while a submission that found no
// campaign under its id holds the server lock, before it journals and
// registers the campaign; tests use it to widen that window.
var testHookSubmit func(id string)

// testHookFold, when set, runs after a campaign's trials complete and
// before its table is folded; tests use it to fault the fold.
var testHookFold func(id string)

// start launches the campaign's execution goroutine, resuming from cp.
// The harness recovers panics inside trials; a panic anywhere else in the
// goroutine (the fold, the table, the store) fails this campaign instead
// of the whole process.  A failure is journaled, so a restarted server
// reports it rather than running the campaign again.
func (s *Server) start(cr *campaignRun, cp scenario.Checkpoint) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	cr.mu.Lock()
	cr.cancel = cancel
	cr.mu.Unlock()
	fail := func(cause string) {
		if err := s.journal.Fail(cr.id, cause); err != nil {
			s.logger.Printf("campaign %s: %v", cr.id, err)
		}
		cr.finish("failed", cause, nil)
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer cancel()
		defer func() {
			if r := recover(); r != nil {
				msg := fmt.Sprintf("panic: %v", r)
				s.logger.Printf("campaign %s: %s\n%s", cr.id, msg, debug.Stack())
				fail(msg)
			}
		}()
		results, err := cr.camp.Run(ctx,
			scenario.WithTrialEvents(),
			scenario.WithCheckpoint(cp),
			scenario.WithTrialOptions(harness.WithWorkers(s.cfg.TrialWorkers)),
			scenario.WithProgress(func(e scenario.Event) {
				if e.Trial < 0 || e.Outcome == nil {
					return
				}
				// Journal first, then stream: a line a client saw is always
				// checkpointed.  A failed append is survivable — the trial
				// is recomputed on resume — but must not go unnoticed.
				if err := s.journal.Trial(cr.id, e.Index, e.SpecHash, e.Trial, *e.Outcome); err != nil {
					s.logger.Printf("campaign %s: %v", cr.id, err)
				}
				cr.mu.Lock()
				cr.done++
				cr.mu.Unlock()
				cr.appendLine(StreamLine{
					Campaign: cr.id, Spec: e.Index, SpecHash: fmt.Sprintf("%016x", e.SpecHash),
					Trial: e.Trial, Outcome: e.Outcome,
				})
			}),
		)
		switch {
		case err == nil:
			if testHookFold != nil {
				testHookFold(cr.id)
			}
			table := scenario.CampaignTable(cr.camp.Name, results)
			if err := s.store.Save(cr.id, table); err != nil {
				s.logger.Printf("campaign %s: %v", cr.id, err)
				fail(err.Error())
				return
			}
			if err := s.journal.Done(cr.id); err != nil {
				s.logger.Printf("campaign %s: %v", cr.id, err)
			}
			cr.finish("done", "", table)
		case errors.Is(err, context.Canceled):
			cr.mu.Lock()
			user := cr.userCancelled
			cr.mu.Unlock()
			if user {
				if err := s.journal.Cancel(cr.id); err != nil {
					s.logger.Printf("campaign %s: %v", cr.id, err)
				}
				cr.finish("cancelled", "", nil)
			}
			// Server shutdown: no terminal marker — the journal stays
			// resumable and the next server picks the campaign back up.
		default:
			s.logger.Printf("campaign %s: %v", cr.id, err)
			fail(err.Error())
		}
	}()
}

// run looks a campaign up by id.
func (s *Server) run(id string) (*campaignRun, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cr, ok := s.runs[id]
	return cr, ok
}

// Shutdown gracefully stops the server: in-flight trials are cancelled via
// context (running attacks abort between phases), execution goroutines are
// awaited, open streams are ended, and the journal is flushed and closed —
// the final checkpoint.  Unfinished campaigns keep no terminal marker, so
// a server restarted on the same journal resumes them without recomputing
// any journaled trial.
func (s *Server) Shutdown() error {
	var err error
	s.shutOnce.Do(func() {
		s.stop()
		s.wg.Wait()
		close(s.done)
		err = s.journal.Close()
	})
	return err
}

// routes installs the HTTP surface.
func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/campaigns/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/campaigns/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/campaigns/{id}/report", s.handleReport)
	s.mux = mux
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeJSON writes v as an indented JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError writes a JSON error body.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// handleSubmit accepts a campaign (or single spec) in the same strict JSON
// the CLI loads.  Duplicate specs are removed (the sweep-frontend guard),
// the id is derived from the deduplicated content, and resubmitting an
// already-known campaign returns its current status instead of restarting
// it.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	camp, err := scenario.ParseCampaign(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	camp = camp.Dedup()
	if err := camp.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	id := CampaignID(camp)
	// Look up and register under one hold: of concurrent identical
	// submissions exactly one journals and starts the campaign, the rest
	// see it running.
	s.mu.Lock()
	cr, ok := s.runs[id]
	if !ok {
		select {
		case <-s.done:
			s.mu.Unlock()
			writeError(w, http.StatusServiceUnavailable, errors.New("server shutting down"))
			return
		default:
		}
		if testHookSubmit != nil {
			testHookSubmit(id)
		}
		if err := s.journal.Campaign(id, camp); err != nil {
			s.mu.Unlock()
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		cr = s.registerLocked(id, camp)
	}
	s.mu.Unlock()
	if ok {
		writeJSON(w, http.StatusOK, cr.currentStatus())
		return
	}
	s.start(cr, nil)
	writeJSON(w, http.StatusCreated, cr.currentStatus())
}

// handleList returns every campaign's status in submission order.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	statuses := make([]CampaignStatus, 0, len(ids))
	for _, id := range ids {
		if cr, ok := s.run(id); ok {
			statuses = append(statuses, cr.currentStatus())
		}
	}
	writeJSON(w, http.StatusOK, statuses)
}

// handleStatus returns one campaign's status.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	cr, ok := s.run(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, cr.currentStatus())
}

// handleStream serves the campaign's per-trial results as JSON lines:
// journaled history first, then live results as trials complete, ending
// with one terminal status line.  The stream also ends (without a terminal
// line) when the client disconnects or the server shuts down.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	cr, ok := s.run(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	offset := 0
	for {
		lines, terminal, notify := cr.snapshot(offset)
		for _, l := range lines {
			w.Write(l)
			w.Write([]byte{'\n'})
		}
		offset += len(lines)
		if len(lines) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal {
			return // the snapshot ended with the terminal line
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		}
	}
}

// handleCancel cancels a running campaign; cancelling a finished one is a
// no-op that returns its terminal status.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	cr, ok := s.run(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q", r.PathValue("id")))
		return
	}
	cr.mu.Lock()
	cancel := cr.cancel
	if cr.status == "running" {
		cr.userCancelled = true
	}
	cr.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	writeJSON(w, http.StatusOK, cr.currentStatus())
}

// handleReport serves the completed campaign's persisted table (the
// docs/results.json wire shape).  In-memory tables are preferred; after a
// restart the table reloads from the store.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	cr, ok := s.run(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q", r.PathValue("id")))
		return
	}
	cr.mu.Lock()
	status := cr.status
	table := cr.table
	cr.mu.Unlock()
	if status != "done" {
		writeError(w, http.StatusConflict, fmt.Errorf("campaign %s is %s, not done", cr.id, status))
		return
	}
	if table == nil {
		loaded, err := s.store.Load(cr.id)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		table = loaded
		cr.mu.Lock()
		cr.table = table
		cr.mu.Unlock()
	}
	data, err := report.JSON(table)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}
