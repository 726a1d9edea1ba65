package service

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"explframe/internal/scenario"
)

// journalCampaign is the cheap two-spec fixture the journal tests record.
func journalCampaign() scenario.Campaign {
	return scenario.Campaign{Name: "journal-fixture", Specs: []scenario.Spec{
		scenario.New(scenario.WithKind(scenario.PFA), scenario.WithCipher("present-80"),
			scenario.WithTrials(3), scenario.WithSeed(11)),
		scenario.New(scenario.WithKind(scenario.Steering), scenario.WithTrials(2), scenario.WithSeed(2)),
	}}
}

// A journal written through the appenders must replay into the same
// campaign state: submission, per-trial checkpoints, terminal markers.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, states, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 0 {
		t.Fatalf("fresh journal replayed %d states", len(states))
	}
	camp := journalCampaign()
	id := CampaignID(camp)
	if err := j.Campaign(id, camp); err != nil {
		t.Fatal(err)
	}
	h0 := camp.Specs[0].Hash()
	if err := j.Trial(id, 0, h0, 0, scenario.TrialOutcome{PFA: &scenario.PFATrial{MasterOK: true}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Trial(id, 0, h0, 2, scenario.TrialOutcome{PFA: &scenario.PFATrial{}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, states, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(states) != 1 {
		t.Fatalf("replayed %d states, want 1", len(states))
	}
	st := states[0]
	if st.ID != id || st.Status != "" {
		t.Fatalf("state = %+v", st)
	}
	if st.Campaign.Name != camp.Name || len(st.Campaign.Specs) != 2 {
		t.Fatalf("campaign body lost: %+v", st.Campaign)
	}
	if st.TrialEntries != 2 || st.Checkpoint.Trials() != 2 {
		t.Fatalf("checkpoint = %d entries / %d trials", st.TrialEntries, st.Checkpoint.Trials())
	}
	if out, ok := st.Checkpoint[h0][0]; !ok || out.PFA == nil || !out.PFA.MasterOK {
		t.Fatalf("trial 0 outcome lost: %+v", out)
	}
	if err := j2.Done(id); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, states, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if states[0].Status != "done" {
		t.Fatal("done marker lost on replay")
	}
}

// A truncated final line — the SIGKILL signature — is dropped; a corrupt
// line anywhere else is a hard error.
func TestJournalTruncationTolerance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	camp := journalCampaign()
	id := CampaignID(camp)
	if err := j.Campaign(id, camp); err != nil {
		t.Fatal(err)
	}
	if err := j.Trial(id, 0, camp.Specs[0].Hash(), 1, scenario.TrialOutcome{PFA: &scenario.PFATrial{}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("journal has %d lines, want 2", len(lines))
	}

	// Append half of a trial line: replay drops it and keeps the rest.
	truncated := data
	truncated = append(truncated, []byte(lines[1][:len(lines[1])/2])...)
	if err := os.WriteFile(path, truncated, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, states, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("truncated final line should be tolerated: %v", err)
	}
	j2.Close()
	if len(states) != 1 || states[0].TrialEntries != 1 {
		t.Fatalf("replay after truncation: %+v", states)
	}

	// The same garbage mid-file is corruption, not truncation.
	corrupt := []byte(lines[0] + "\n" + lines[1][:len(lines[1])/2] + "\n" + lines[1] + "\n")
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(path); err == nil {
		t.Fatal("corrupt mid-file line accepted")
	}
}

// Structurally invalid entries — trials for unknown campaigns, missing
// outcomes, bad hashes, unknown kinds — reject on replay.
func TestJournalRejectsInvalidEntries(t *testing.T) {
	for _, tc := range []struct {
		name, line string
	}{
		{"unknown kind", `{"kind":"frobnicate","id":"c-1"}`},
		{"campaign without body", `{"kind":"campaign","id":"c-1"}`},
		{"trial for unknown campaign", `{"kind":"trial","id":"c-missing","spec_hash":"0000000000000001","trial":0,"outcome":{}}`},
		{"unknown field", `{"kind":"done","id":"c-1","extra":true}`},
	} {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		// A valid trailing line keeps the bad one from being read as a
		// truncated final write.
		content := tc.line + "\n" + `{"kind":"done","id":"c-none"}` + "\n"
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenJournal(path); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
}

// CampaignID is deterministic over content and sensitive to it.
func TestCampaignIDDeterministic(t *testing.T) {
	a := journalCampaign()
	b := journalCampaign()
	if CampaignID(a) != CampaignID(b) {
		t.Fatal("identical campaigns got different ids")
	}
	b.Specs = b.Specs[:1]
	if CampaignID(a) == CampaignID(b) {
		t.Fatal("different campaigns collided")
	}
	if !strings.HasPrefix(CampaignID(a), "c-") || len(CampaignID(a)) != len("c-")+16 {
		t.Fatalf("id shape: %q", CampaignID(a))
	}
}

// seedJournal writes a campaign, one trial and a done marker through the
// appenders and returns the journal's bytes.
func seedJournal(f *testing.F) []byte {
	f.Helper()
	path := filepath.Join(f.TempDir(), "journal.jsonl")
	j, _, err := OpenJournal(path)
	if err != nil {
		f.Fatal(err)
	}
	camp := journalCampaign()
	id := CampaignID(camp)
	if err := j.Campaign(id, camp); err != nil {
		f.Fatal(err)
	}
	if err := j.Trial(id, 0, camp.Specs[0].Hash(), 1, scenario.TrialOutcome{PFA: &scenario.PFATrial{MasterOK: true}}); err != nil {
		f.Fatal(err)
	}
	if err := j.Done(id); err != nil {
		f.Fatal(err)
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzJournalReplay opens arbitrary bytes as a journal.  OpenJournal must
// either fail and leave the file byte-identical, or succeed after
// truncating at most the last non-blank line and the whitespace after it;
// a second open of the result then truncates nothing and replays equal
// states.  It must never panic.
func FuzzJournalReplay(f *testing.F) {
	valid := seedJournal(f)
	lines := strings.SplitAfter(string(valid), "\n")
	trial := lines[1]
	fail := `{"kind":"fail","id":"` + CampaignID(journalCampaign()) + `","error":"panic: fold fault"}` + "\n"
	f.Add(valid)
	f.Add([]byte(lines[0] + trial + trial[:len(trial)/2]))
	f.Add([]byte(lines[0] + "{garbage\n" + trial + lines[2]))
	f.Add([]byte(lines[0] + trial + fail))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, states, err := OpenJournal(path)
		after, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !bytes.Equal(after, data) {
				t.Fatalf("failed open (%v) modified the journal: %q -> %q", err, data, after)
			}
			return
		}
		// Close the file without Journal.Close's fsync, which would cap
		// the fuzzer at a few executions per second.
		j.f.Close()
		if !bytes.HasPrefix(data, after) {
			t.Fatalf("open rewrote the journal instead of truncating: %q -> %q", data, after)
		}
		if n := len(after); n < len(data) {
			if n > 0 && after[n-1] != '\n' {
				t.Fatalf("truncated mid-line at %d: %q", n, data)
			}
			if bytes.Contains(bytes.TrimSpace(data[n:]), []byte("\n")) {
				t.Fatalf("truncated more than the last line: dropped %q of %q", data[n:], data)
			}
		}

		j2, states2, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("reopening a replayed journal failed: %v", err)
		}
		j2.f.Close()
		again, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if !bytes.Equal(again, after) {
			t.Fatalf("second open truncated again: %q -> %q", after, again)
		}
		if !reflect.DeepEqual(states, states2) {
			t.Fatalf("second open replayed different states:\n%+v\n%+v", states, states2)
		}
	})
}
