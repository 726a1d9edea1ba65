package service

import (
	"bytes"
	"context"
	"encoding/json"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"explframe/internal/report"
	"explframe/internal/scenario"
)

// testServer boots a Server over httptest and returns it with a client.
// journal and store name files under dir so restarts can share them.
func testServer(t *testing.T, dir string) (*Server, *Client, func()) {
	t.Helper()
	srv, err := New(Config{
		Journal:      filepath.Join(dir, "journal.jsonl"),
		Store:        filepath.Join(dir, "store"),
		TrialWorkers: 2,
		Log:          log.New(discard{}, "", 0),
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
	if !states[0].Done {
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

// Malformed submissions reject with 400s: broken JSON, unknown fields, and
// invalid specs.
func TestServerRejectsBadSubmissions(t *testing.T) {
	_, c, stop := testServer(t, t.TempDir())
	defer stop()
	ctx := context.Background()
	for _, body := range []string{
		"{not json",
		`{"specs": [{"kind": "pfa", "frobnicate": 1}]}`,
		`{"name": "empty", "specs": []}`,
		`{"kind": "attack", "cipher": "des-56", "trials": 1}`,
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
