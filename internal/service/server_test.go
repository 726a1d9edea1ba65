package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"explframe/internal/dram"
	"explframe/internal/harness"
	"explframe/internal/machine"
	"explframe/internal/report"
	"explframe/internal/scenario"
	"explframe/internal/stats"
)

// testServer boots a Server over httptest and returns it with a client.
// journal and store name files under dir so restarts can share them.
func testServer(t *testing.T, dir string) (*Server, *Client, func()) {
	t.Helper()
	return testServerLog(t, dir, discard{})
}

// testServerLog is testServer with the server's log written to w.
func testServerLog(t *testing.T, dir string, w io.Writer) (*Server, *Client, func()) {
	t.Helper()
	srv, err := New(Config{
		Journal:      filepath.Join(dir, "journal.jsonl"),
		Store:        filepath.Join(dir, "store"),
		TrialWorkers: 2,
		Log:          log.New(w, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	c := &Client{Base: hs.URL}
	return srv, c, func() {
		hs.Close()
		srv.Shutdown()
	}
}

// discard silences the server's operational log in tests.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// serviceCampaign is the cheap substrate-free fixture the server tests run:
// both registry-driven kinds, 9 trials total.
func serviceCampaign() scenario.Campaign {
	return scenario.Campaign{Name: "service-fixture", Specs: []scenario.Spec{
		scenario.New(scenario.WithKind(scenario.PFA), scenario.WithCipher("present-80"),
			scenario.WithTrials(5), scenario.WithSeed(11)),
		scenario.New(scenario.WithKind(scenario.DFA), scenario.WithTrials(4), scenario.WithSeed(7)),
	}}
}

// totalTrials sums a campaign's trial counts.
func totalTrials(c scenario.Campaign) int {
	n := 0
	for _, s := range c.Specs {
		n += s.Trials
	}
	return n
}

// Submit → stream → status → report: the happy path end to end, including
// idempotent resubmission and the stream's per-trial line count.
func TestServerSubmitStreamReport(t *testing.T) {
	_, c, stop := testServer(t, t.TempDir())
	defer stop()
	ctx := context.Background()
	camp := serviceCampaign()

	st, err := c.Submit(ctx, camp)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != CampaignID(camp) || st.TotalTrials != totalTrials(camp) {
		t.Fatalf("submit status: %+v", st)
	}

	var trialLines []StreamLine
	final, err := c.Stream(ctx, st.ID, func(l StreamLine) error {
		if l.Outcome == nil || l.Trial < 0 {
			t.Errorf("malformed trial line: %+v", l)
		}
		trialLines = append(trialLines, l)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != "done" {
		t.Fatalf("terminal line: %+v", final)
	}
	if len(trialLines) != totalTrials(camp) {
		t.Fatalf("stream carried %d trial lines, want %d", len(trialLines), totalTrials(camp))
	}
	for _, l := range trialLines {
		if l.SpecHash != hashString(camp.Specs[l.Spec].Hash()) {
			t.Fatalf("line hash %s does not name spec %d", l.SpecHash, l.Spec)
		}
	}

	// A finished campaign's stream replays in full and terminates at once.
	n := 0
	final, err = c.Stream(ctx, st.ID, func(StreamLine) error { n++; return nil })
	if err != nil || final.Status != "done" || n != totalTrials(camp) {
		t.Fatalf("replayed stream: %d lines, final %+v, err %v", n, final, err)
	}

	// Resubmission is idempotent: same id, no restart, done status.
	st2, err := c.Submit(ctx, camp)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != st.ID || st2.Status != "done" || st2.DoneTrials != totalTrials(camp) {
		t.Fatalf("resubmit status: %+v", st2)
	}

	// The report equals the table the scenario layer folds directly.
	got, err := c.Report(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*scenario.Result, 0, len(camp.Specs))
	for _, spec := range camp.Specs {
		res, err := scenario.Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	want := scenario.CampaignTable(camp.Name, results)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("served report diverged from direct fold:\n got %+v\nwant %+v", got, want)
	}

	// Listing shows the one campaign; unknown ids 404 cleanly.
	list, err := c.List(ctx)
	if err != nil || len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list: %+v, %v", list, err)
	}
	if _, err := c.Status(ctx, "c-nope"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown id error: %v", err)
	}
}

// hashString formats a spec hash the way stream lines and journals do.
func hashString(h uint64) string {
	b := make([]byte, 0, 16)
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, digits[(h>>uint(shift))&0xf])
	}
	return string(b)
}

// The acceptance test: a campaign killed mid-run and restarted against the
// same journal must produce a byte-identical report with zero recomputed
// trials.  The kill is simulated deterministically — the resumed journal is
// the full run's campaign entry plus its first K trial lines, then half of
// the next line (the torn SIGKILL write) — so the assertion holds at any
// scheduling.
func TestServerResumeByteIdentical(t *testing.T) {
	ctx := context.Background()
	camp := serviceCampaign()
	id := CampaignID(camp)
	total := totalTrials(camp)

	// Reference run to completion on server 1.
	dir1 := t.TempDir()
	_, c1, stop1 := testServer(t, dir1)
	if _, err := c1.Submit(ctx, camp); err != nil {
		t.Fatal(err)
	}
	if final, err := c1.Stream(ctx, id, nil); err != nil || final.Status != "done" {
		t.Fatalf("reference run: %+v, %v", final, err)
	}
	refReport, err := c1.ReportBytes(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	stop1()

	refJournal, err := os.ReadFile(filepath.Join(dir1, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(refJournal)), "\n")
	// campaign entry + total trial lines + done marker.
	if len(lines) != total+2 {
		t.Fatalf("reference journal has %d lines, want %d", len(lines), total+2)
	}

	// Craft the killed server's journal: submission + first K trials + a
	// torn final write.
	const k = 4
	dir2 := t.TempDir()
	torn := strings.Join(lines[:1+k], "\n") + "\n" + lines[1+k][:len(lines[1+k])/2]
	if err := os.WriteFile(filepath.Join(dir2, "journal.jsonl"), []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	// Server 2 resumes the journaled campaign on boot.
	_, c2, stop2 := testServer(t, dir2)
	defer stop2()
	final, err := c2.Stream(ctx, id, nil)
	if err != nil || final.Status != "done" {
		t.Fatalf("resumed run: %+v, %v", final, err)
	}
	st, err := c2.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.ResumedTrials != k || st.DoneTrials != total {
		t.Fatalf("resume accounting: %+v (want %d resumed of %d)", st, k, total)
	}

	// Byte-identical persisted report, via HTTP and via the store file.
	gotReport, err := c2.ReportBytes(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotReport, refReport) {
		t.Fatalf("resumed report differs:\n got %s\nwant %s", gotReport, refReport)
	}
	f1, err := os.ReadFile(filepath.Join(dir1, "store", id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := os.ReadFile(filepath.Join(dir2, "store", id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f1, f2) {
		t.Fatal("persisted store files differ between reference and resumed runs")
	}

	// Zero recomputation: the resumed journal holds exactly total trial
	// entries — k inherited plus total-k computed, none duplicated.
	states, _, err := replay(filepath.Join(dir2, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || states[0].TrialEntries != total {
		t.Fatalf("resumed journal trial entries = %d, want %d (no recomputation)", states[0].TrialEntries, total)
	}
}

// Graceful shutdown mid-campaign: Shutdown cancels in-flight trials,
// flushes the journal, and a server restarted on the same journal finishes
// the campaign without recomputing any journaled trial, producing the same
// report as an uninterrupted run.
func TestServerGracefulShutdownResume(t *testing.T) {
	ctx := context.Background()
	camp := serviceCampaign()
	id := CampaignID(camp)
	total := totalTrials(camp)
	dir := t.TempDir()

	srv1, c1, stop1 := testServer(t, dir)
	if _, err := c1.Submit(ctx, camp); err != nil {
		t.Fatal(err)
	}
	// Shut down while trials may still be in flight; any interleaving —
	// nothing journaled yet through everything journaled — must resume
	// correctly.
	time.Sleep(10 * time.Millisecond)
	if err := srv1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	stop1()

	srv2, c2, stop2 := testServer(t, dir)
	defer stop2()
	final, err := c2.Stream(ctx, id, nil)
	if err != nil || final.Status != "done" {
		t.Fatalf("resumed campaign: %+v, %v", final, err)
	}

	// No trial computed twice across both server lives.
	if err := srv2.Shutdown(); err != nil {
		t.Fatal(err)
	}
	states, _, err := replay(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || states[0].TrialEntries != total {
		t.Fatalf("journal trial entries = %d, want exactly %d", states[0].TrialEntries, total)
	}
	if states[0].Status != "done" {
		t.Fatal("done marker missing after resumed completion")
	}

	// The persisted table equals the direct scenario fold.
	stored, err := os.ReadFile(filepath.Join(dir, "store", id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*scenario.Result, 0, len(camp.Specs))
	for _, spec := range camp.Specs {
		res, err := scenario.Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	want, err := report.JSON(scenario.CampaignTable(camp.Name, results))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(stored), bytes.TrimSpace(want)) {
		t.Fatal("resumed table differs from an uninterrupted fold")
	}
}

// Cancelling a running campaign reaches a cancelled terminal status that
// survives a restart, and its report endpoint refuses.
func TestServerCancel(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	srv1, c1, stop1 := testServer(t, dir)
	camp := scenario.Campaign{Name: "cancel-fixture", Specs: []scenario.Spec{
		scenario.New(scenario.WithKind(scenario.PFA), scenario.WithCipher("present-80"),
			scenario.WithTrials(400), scenario.WithSeed(3)),
	}}
	st, err := c1.Submit(ctx, camp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c1.Stream(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != "cancelled" && final.Status != "done" {
		t.Fatalf("terminal status after cancel: %+v", final)
	}
	if _, err := c1.Report(ctx, st.ID); (final.Status == "cancelled") == (err == nil) {
		t.Fatalf("report availability inconsistent with status %q: %v", final.Status, err)
	}
	if err := srv1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	stop1()

	// The terminal marker persists: a restarted server neither reruns nor
	// forgets the campaign.
	_, c2, stop2 := testServer(t, dir)
	defer stop2()
	st2, err := c2.Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Status != final.Status {
		t.Fatalf("status after restart = %q, want %q", st2.Status, final.Status)
	}
}

// Malformed submissions reject with 400s: broken JSON, unknown fields,
// invalid specs, and budgets or eviction sets beyond their caps (which
// would otherwise size multi-GB allocations when the trials run).
func TestServerRejectsBadSubmissions(t *testing.T) {
	_, c, stop := testServer(t, t.TempDir())
	defer stop()
	ctx := context.Background()
	for _, body := range []string{
		"{not json",
		`{"specs": [{"kind": "pfa", "frobnicate": 1}]}`,
		`{"name": "empty", "specs": []}`,
		`{"kind": "attack", "cipher": "des-56", "trials": 1}`,
		`{"kind": "dfa", "trials": 1, "budget": 1099511627776}`,
		`{"kind": "cache-probe", "trials": 1, "probe": {"technique": "prime-probe", "eviction_set": 1099511627776}}`,
	} {
		data, err := c.do(ctx, "POST", "/v1/campaigns", []byte(body))
		if err == nil {
			t.Fatalf("submission %q accepted: %s", body, data)
		}
		if !strings.Contains(err.Error(), "400") {
			t.Fatalf("submission %q: want 400, got %v", body, err)
		}
	}
}

// A campaign whose inline machine is too large to boot rejects with a 400
// at submission instead of exhausting the server's memory when it runs.
func TestServerRejectsOversizedMachine(t *testing.T) {
	_, c, stop := testServer(t, t.TempDir())
	defer stop()
	huge := machine.New("huge", machine.WithGeometry(dram.Geometry{Banks: 8, Rows: 1 << 33, RowBytes: 8192}))
	camp := scenario.Campaign{Name: "huge", Specs: []scenario.Spec{
		scenario.New(scenario.WithMachine(huge), scenario.WithTrials(1)),
	}}
	st, err := c.Submit(context.Background(), camp)
	if err == nil {
		t.Fatalf("oversized machine accepted: %+v", st)
	}
	if !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "module cap") {
		t.Fatalf("want a 400 naming the module cap, got %v", err)
	}
}

// A steering, PFA or DFA spec naming a machine rejects with a 400: those
// kinds have no machine axis, so accepting one would report a run on a
// machine it never used.
func TestServerRejectsMachineOnMachinelessKinds(t *testing.T) {
	_, c, stop := testServer(t, t.TempDir())
	defer stop()
	for _, body := range []string{
		`{"kind": "steering", "profile": "ddr4", "trials": 1}`,
		`{"kind": "pfa", "profile": "fast", "trials": 1}`,
		`{"kind": "dfa", "profile": "server-1g", "trials": 1}`,
	} {
		data, err := c.do(context.Background(), "POST", "/v1/campaigns", []byte(body))
		if err == nil {
			t.Fatalf("submission %q accepted: %s", body, data)
		}
		if !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "only kinds attack") {
			t.Fatalf("submission %q: want a 400 naming the machine kinds, got %v", body, err)
		}
	}
}

// A trial count too large to allocate rejects with a 400 at submission
// instead of panicking the campaign goroutine (which has no recover, and
// would panic again on every restart that resumes the journaled campaign).
// The server keeps serving: the next campaign runs to completion.
func TestServerRejectsHugeTrials(t *testing.T) {
	_, c, stop := testServer(t, t.TempDir())
	defer stop()
	ctx := context.Background()
	body := `{"kind": "pfa", "cipher": "present-80", "trials": 1125899906842624}`
	data, err := c.do(ctx, "POST", "/v1/campaigns", []byte(body))
	if err == nil {
		t.Fatalf("submission %q accepted: %s", body, data)
	}
	if !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "trials") {
		t.Fatalf("want a 400 naming trials, got %v", err)
	}
	st, err := c.Submit(ctx, serviceCampaign())
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Stream(ctx, st.ID, func(StreamLine) error { return nil })
	if err != nil || final.Status != "done" {
		t.Fatalf("campaign after the rejected one: %+v, %v", final, err)
	}
}

// A campaign with more than MaxSpecs distinct specs rejects with a 400
// naming the cap, before any of them is queued.
func TestServerRejectsTooManySpecs(t *testing.T) {
	_, c, stop := testServer(t, t.TempDir())
	defer stop()
	camp := scenario.Campaign{Name: "wide"}
	for i := 0; i <= scenario.MaxSpecs; i++ {
		camp.Specs = append(camp.Specs, scenario.New(scenario.WithKind(scenario.PFA), scenario.WithSeed(uint64(i)), scenario.WithTrials(1)))
	}
	st, err := c.Submit(context.Background(), camp)
	if err == nil {
		t.Fatalf("%d-spec campaign accepted: %+v", len(camp.Specs), st)
	}
	if !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), fmt.Sprintf("at most %d", scenario.MaxSpecs)) {
		t.Fatalf("want a 400 naming the spec cap, got %v", err)
	}
}

// A panic outside any trial (here in the fold, through the test hook)
// fails that campaign with the panic message; the server stays up and the
// next campaign runs to done.
func TestServerSurvivesCampaignPanic(t *testing.T) {
	faulty := CampaignID(serviceCampaign())
	testHookFold = func(id string) {
		if id == faulty {
			panic("fold fault")
		}
	}
	defer func() { testHookFold = nil }()
	_, c, stop := testServer(t, t.TempDir())
	defer stop()
	ctx := context.Background()

	st, err := c.Submit(ctx, serviceCampaign())
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Stream(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != "failed" || !strings.Contains(final.Error, "fold fault") {
		t.Fatalf("terminal line of the panicking campaign: %+v", final)
	}
	if got, err := c.Status(ctx, st.ID); err != nil || got.Status != "failed" {
		t.Fatalf("status of the panicking campaign: %+v, %v", got, err)
	}

	next := serviceCampaign()
	next.Name = "after-panic"
	st2, err := c.Submit(ctx, next)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID == faulty {
		t.Fatal("second campaign shares the faulted id")
	}
	final, err = c.Stream(ctx, st2.ID, nil)
	if err != nil || final.Status != "done" {
		t.Fatalf("campaign after the panic: %+v, %v", final, err)
	}
}

// lockedBuffer is a log sink the test reads while the server may write.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// panickingTrial panics in trial 1.
func panickingTrial(trial int, _ *stats.RNG) (int, error) {
	if trial == 1 {
		panic("trial fault")
	}
	return trial, nil
}

// A trial that panics fails its campaign with the panic value, and the
// server logs the trial's stack, which names the panicking function.  The
// server stays up and the next campaign runs to done.
func TestServerLogsTrialPanicStack(t *testing.T) {
	faulty := CampaignID(serviceCampaign())
	runCampaign = func(c *scenario.Campaign, ctx context.Context, opts ...scenario.CampaignOption) ([]*scenario.Result, error) {
		if CampaignID(*c) != faulty {
			return c.Run(ctx, opts...)
		}
		_, err := harness.RunTrials(1, 3, panickingTrial, harness.WithWorkers(2))
		return nil, fmt.Errorf("campaign %q: %w", c.Name, err)
	}
	defer func() { runCampaign = (*scenario.Campaign).Run }()
	var logs lockedBuffer
	_, c, stop := testServerLog(t, t.TempDir(), &logs)
	defer stop()
	ctx := context.Background()

	st, err := c.Submit(ctx, serviceCampaign())
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Stream(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != "failed" || !strings.Contains(final.Error, "panic: trial fault") {
		t.Fatalf("terminal line of the panicking campaign: %+v", final)
	}
	got := logs.String()
	if want := "campaign " + st.ID + ": trial 1: panic: trial fault\n"; !strings.Contains(got, want) {
		t.Fatalf("log lacks %q:\n%s", want, got)
	}
	if !strings.Contains(got, "panickingTrial") {
		t.Fatalf("logged stack does not name the panicking function:\n%s", got)
	}

	next := serviceCampaign()
	next.Name = "after-panic"
	st2, err := c.Submit(ctx, next)
	if err != nil {
		t.Fatal(err)
	}
	if final, err = c.Stream(ctx, st2.ID, nil); err != nil || final.Status != "done" {
		t.Fatalf("campaign after the panic: %+v, %v", final, err)
	}
}

// A failed campaign is terminal in the journal: a second server on the same
// journal reports it failed with the same cause, and neither recomputes a
// trial nor folds it again.
func TestFailedCampaignStaysFailedAcrossBoots(t *testing.T) {
	folds := 0
	testHookFold = func(string) {
		folds++
		panic("fold fault")
	}
	defer func() { testHookFold = nil }()
	dir := t.TempDir()
	ctx := context.Background()
	camp := serviceCampaign()

	_, c1, stop1 := testServer(t, dir)
	st, err := c1.Submit(ctx, camp)
	if err != nil {
		t.Fatal(err)
	}
	first, err := c1.Stream(ctx, st.ID, nil)
	if err != nil || first.Status != "failed" {
		t.Fatalf("first boot: %+v, %v", first, err)
	}
	stop1()

	_, c2, stop2 := testServer(t, dir)
	got, err := c2.Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	stop2()
	if got.Status != "failed" || got.Error != first.Error {
		t.Fatalf("second boot: %+v, want failed with %q", got, first.Error)
	}
	if folds != 1 {
		t.Fatalf("fold ran %d times across two boots, want 1", folds)
	}
	states, _, err := replay(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if total := totalTrials(camp); len(states) != 1 || states[0].TrialEntries != total || got.ResumedTrials != total {
		t.Fatalf("journal holds %d trial entries, %d resumed; want %d each", states[0].TrialEntries, got.ResumedTrials, total)
	}
	if states[0].Status != "failed" || states[0].Error != first.Error {
		t.Fatalf("journaled terminal state = %q %q", states[0].Status, states[0].Error)
	}
}

// Streams attached just before a campaign finishes must all end on the
// terminal line: finish publishes the terminal status and its line under one
// lock, so no stream can see the status, drain and leave without the line.
func TestStreamsAttachedAtFinishEndOnTerminalLine(t *testing.T) {
	const rounds, streams, trials = 40, 16, 3
	for round := 0; round < rounds; round++ {
		cr := &campaignRun{id: "c-finish", notify: make(chan struct{}), status: "running"}
		s := &Server{runs: map[string]*campaignRun{cr.id: cr}, done: make(chan struct{})}
		for i := 0; i < trials; i++ {
			cr.appendLine(StreamLine{Campaign: cr.id, Trial: i})
		}
		var wg sync.WaitGroup
		bodies := make([]*httptest.ResponseRecorder, streams)
		for i := range bodies {
			bodies[i] = httptest.NewRecorder()
			wg.Add(1)
			go func(w *httptest.ResponseRecorder) {
				defer wg.Done()
				r := httptest.NewRequest("GET", "/v1/campaigns/"+cr.id+"/stream", nil)
				r.SetPathValue("id", cr.id)
				s.handleStream(w, r)
			}(bodies[i])
		}
		cr.finish("done", "", nil)
		ended := make(chan struct{})
		go func() { wg.Wait(); close(ended) }()
		select {
		case <-ended:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: streams still open 30s after finish", round)
		}
		for i, w := range bodies {
			lines := strings.Split(strings.TrimSuffix(w.Body.String(), "\n"), "\n")
			if len(lines) != trials+1 {
				t.Fatalf("round %d stream %d: %d lines, want %d", round, i, len(lines), trials+1)
			}
			var last StreamLine
			if err := json.Unmarshal([]byte(lines[trials]), &last); err != nil || last.Status != "done" {
				t.Fatalf("round %d stream %d: last line %q (%v), want the done line", round, i, lines[trials], err)
			}
		}
	}
}

// Concurrent identical submissions start the campaign once, however they
// interleave (the hook stalls the first between lookup and register): one
// list entry, one journaled campaign line, every trial journaled once.
func TestConcurrentIdenticalSubmitsStartOnce(t *testing.T) {
	testHookSubmit = func(string) { time.Sleep(20 * time.Millisecond) }
	defer func() { testHookSubmit = nil }()
	dir := t.TempDir()
	_, c, stop := testServer(t, dir)
	ctx := context.Background()
	camp := serviceCampaign()

	const submits = 8
	errs := make(chan error, submits)
	for i := 0; i < submits; i++ {
		go func() {
			_, err := c.Submit(ctx, camp)
			errs <- err
		}()
	}
	for i := 0; i < submits; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if final, err := c.Stream(ctx, CampaignID(camp), nil); err != nil || final.Status != "done" {
		t.Fatalf("campaign: %+v, %v", final, err)
	}
	list, err := c.List(ctx)
	stop()
	if err != nil || len(list) != 1 {
		t.Fatalf("list after %d identical submits: %+v, %v", submits, list, err)
	}
	path := filepath.Join(dir, "journal.jsonl")
	data, _ := os.ReadFile(path)
	states, _, err := replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte(`"kind":"campaign"`)); n != 1 || states[0].TrialEntries != totalTrials(camp) {
		t.Fatalf("journal holds %d campaign lines and %d trial lines; want 1 and %d", n, states[0].TrialEntries, totalTrials(camp))
	}
}
