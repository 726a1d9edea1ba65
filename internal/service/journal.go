package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"explframe/internal/scenario"
)

// journalEntry is one line of the append-only campaign journal.  Kind
// selects the arm: "campaign" records a submission (Campaign set), "trial"
// a completed trial (Spec/SpecHash/Trial/Outcome set), "done", "cancel"
// and "fail" (Error set) a campaign's terminal state.  Lines are strict
// JSON — unknown fields reject on replay, the same contract as scenario
// spec files.
type journalEntry struct {
	Kind     string                 `json:"kind"`
	ID       string                 `json:"id"`
	Campaign *scenario.Campaign     `json:"campaign,omitempty"`
	Spec     int                    `json:"spec,omitempty"`
	SpecHash string                 `json:"spec_hash,omitempty"`
	Trial    int                    `json:"trial,omitempty"`
	Outcome  *scenario.TrialOutcome `json:"outcome,omitempty"`
	Error    string                 `json:"error,omitempty"`
}

// CampaignState is one campaign reconstructed from a journal replay.
type CampaignState struct {
	// ID is the deterministic campaign id (see CampaignID).
	ID string
	// Campaign is the submitted (deduplicated) campaign.
	Campaign scenario.Campaign
	// Checkpoint holds every journaled trial outcome, keyed by spec hash
	// then trial index — the resume state Campaign.Run merges.
	Checkpoint scenario.Checkpoint
	// TrialEntries counts raw trial lines (before keyed dedup): the
	// zero-recompute assertion compares it against the campaign's total
	// trial count.
	//
	//doclint:keep the service tests' zero-recompute assertion counts it
	TrialEntries int
	// Status is the replayed terminal status ("done", "cancelled" or
	// "failed"), or "" for a campaign the server resumes.
	Status string
	// Error carries the failure cause when Status is "failed".
	Error string
}

// Journal is the append-only checkpoint log behind explframed.  Every
// completed trial is one JSON line written with a single O_APPEND write, so
// a SIGKILL at any instant loses at most the line being written; Replay
// tolerates exactly one truncated trailing line and drops it (that trial is
// simply recomputed on resume).
type Journal struct {
	mu sync.Mutex
	f  *os.File
}

// OpenJournal opens (creating if needed) the journal at path for appending
// and replays its existing entries into per-campaign states, returned in
// first-submission order.  A torn final line — the write a SIGKILL
// interrupted — is truncated away before appending resumes, so the next
// entry never glues onto the garbage.
func OpenJournal(path string) (*Journal, []*CampaignState, error) {
	states, validLen, err := replay(path)
	if err != nil {
		return nil, nil, err
	}
	if info, err := os.Stat(path); err == nil && info.Size() > validLen {
		if err := os.Truncate(path, validLen); err != nil {
			return nil, nil, fmt.Errorf("service: journal: dropping torn tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("service: journal: %w", err)
	}
	return &Journal{f: f}, states, nil
}

// replay parses the journal file (missing file = empty journal) into
// campaign states, returning alongside them the byte length of the valid
// prefix.  A parse failure on any line but the last is a corrupt journal
// and errors out; a partial final line — the SIGKILL signature — is
// dropped, and validLen excludes it so OpenJournal can truncate it away.
func replay(path string) (states []*CampaignState, validLen int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("service: journal: %w", err)
	}
	byID := make(map[string]*CampaignState)
	var order []*CampaignState

	// Split by hand to keep each line's starting offset: the valid prefix
	// length is the torn final line's start.
	type rawLine struct {
		text  []byte
		start int64
	}
	var lines []rawLine
	for pos := 0; pos < len(data); {
		end := bytes.IndexByte(data[pos:], '\n')
		lineEnd := len(data)
		next := len(data)
		if end >= 0 {
			lineEnd = pos + end
			next = lineEnd + 1
		}
		if text := bytes.TrimSpace(data[pos:lineEnd]); len(text) > 0 {
			lines = append(lines, rawLine{text: text, start: int64(pos)})
		}
		pos = next
	}
	validLen = int64(len(data))
	for i, line := range lines {
		var e journalEntry
		dec := json.NewDecoder(bytes.NewReader(line.text))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&e); err != nil {
			if i == len(lines)-1 {
				// Truncated final line: the write the kill interrupted.
				validLen = line.start
				break
			}
			return nil, 0, fmt.Errorf("service: journal %s line %d: %w", path, i+1, err)
		}
		switch e.Kind {
		case "campaign":
			if e.Campaign == nil || e.ID == "" {
				return nil, 0, fmt.Errorf("service: journal %s line %d: campaign entry missing id or body", path, i+1)
			}
			if byID[e.ID] == nil {
				st := &CampaignState{ID: e.ID, Campaign: *e.Campaign, Checkpoint: make(scenario.Checkpoint)}
				byID[e.ID] = st
				order = append(order, st)
			}
		case "trial":
			st := byID[e.ID]
			if st == nil {
				return nil, 0, fmt.Errorf("service: journal %s line %d: trial for unknown campaign %q", path, i+1, e.ID)
			}
			if e.Outcome == nil {
				return nil, 0, fmt.Errorf("service: journal %s line %d: trial entry missing outcome", path, i+1)
			}
			var hash uint64
			if _, err := fmt.Sscanf(e.SpecHash, "%016x", &hash); err != nil {
				return nil, 0, fmt.Errorf("service: journal %s line %d: bad spec hash %q", path, i+1, e.SpecHash)
			}
			st.Checkpoint.Add(hash, e.Trial, *e.Outcome)
			st.TrialEntries++
		case "done", "cancel", "fail":
			if st := byID[e.ID]; st != nil {
				st.Status, st.Error = terminalStatus[e.Kind], e.Error
			}
		default:
			return nil, 0, fmt.Errorf("service: journal %s line %d: unknown entry kind %q", path, i+1, e.Kind)
		}
	}
	return order, validLen, nil
}

// terminalStatus maps a terminal entry kind to the campaign status it
// records.
var terminalStatus = map[string]string{"done": "done", "cancel": "cancelled", "fail": "failed"}

// append marshals e and writes it as one line (a single write syscall, so
// concurrent appenders never interleave and a kill never splits two lines).
func (j *Journal) append(e journalEntry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("service: journal append: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("service: journal append: %w", err)
	}
	return nil
}

// Campaign records a submission.
func (j *Journal) Campaign(id string, c scenario.Campaign) error {
	return j.append(journalEntry{Kind: "campaign", ID: id, Campaign: &c})
}

// Trial checkpoints one completed trial of campaign id: spec index and
// canonical spec hash identify the scenario, trial the index within it.
func (j *Journal) Trial(id string, spec int, specHash uint64, trial int, out scenario.TrialOutcome) error {
	return j.append(journalEntry{
		Kind: "trial", ID: id, Spec: spec,
		SpecHash: fmt.Sprintf("%016x", specHash), Trial: trial, Outcome: &out,
	})
}

// Done marks campaign id complete (its table is persisted in the store).
func (j *Journal) Done(id string) error {
	return j.append(journalEntry{Kind: "done", ID: id})
}

// Cancel marks campaign id cancelled by the user.
func (j *Journal) Cancel(id string) error {
	return j.append(journalEntry{Kind: "cancel", ID: id})
}

// Fail marks campaign id failed with the given cause, so a restarted
// server reports the failure instead of running the campaign again.
func (j *Journal) Fail(id, cause string) error {
	return j.append(journalEntry{Kind: "fail", ID: id, Error: cause})
}

// Close flushes the journal to stable storage and closes it — the final
// checkpoint of a graceful shutdown.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	syncErr := j.f.Sync()
	closeErr := j.f.Close()
	j.f = nil
	if syncErr != nil {
		return fmt.Errorf("service: journal close: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("service: journal close: %w", closeErr)
	}
	return nil
}
