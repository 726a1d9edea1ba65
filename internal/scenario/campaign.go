package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"explframe/internal/harness"
	"explframe/internal/stats"
)

// Campaign is a named grid of scenarios executed as one unit — the shape of
// every multi-row experiment table and of sweep files on disk.
type Campaign struct {
	// Name labels the campaign (table IDs, file names, progress lines).
	Name string `json:"name"`
	// Specs are the member scenarios, run in declaration order.
	Specs []Spec `json:"specs"`
}

// Validate checks every member spec and joins the failures, each prefixed
// with its index and title.  A campaign over MaxSpecs fails before any spec
// is checked.
func (c *Campaign) Validate() error {
	if len(c.Specs) > MaxSpecs {
		return fmt.Errorf("campaign has %d specs, want at most %d", len(c.Specs), MaxSpecs)
	}
	var errs []error
	if len(c.Specs) == 0 {
		errs = append(errs, errors.New("campaign has no specs"))
	}
	for i, s := range c.Specs {
		if err := s.Validate(); err != nil {
			errs = append(errs, fmt.Errorf("spec %d (%s): %w", i, s.Title(), err))
		}
	}
	return errors.Join(errs...)
}

// Dedup returns a copy of the campaign with semantically duplicate specs
// removed (same canonical Hash; first occurrence wins), the guard sweep
// frontends use before fanning out an expensive grid.
func (c *Campaign) Dedup() Campaign {
	seen := make(map[uint64]bool, len(c.Specs))
	out := Campaign{Name: c.Name}
	for _, s := range c.Specs {
		h := s.Hash()
		if seen[h] {
			continue
		}
		seen[h] = true
		out.Specs = append(out.Specs, s)
	}
	return out
}

// Event reports campaign progress: one event when a spec starts (Done
// false), one when it finishes (Done true, Err set if it failed), and —
// with WithTrialEvents — one per completed trial in between (Trial >= 0,
// Outcome set); Run returns the specs' results.  SpecHash and Trial make
// every event self-identifying: a consumer can attribute it to exactly one
// (spec, trial) without holding the campaign, which is what the service
// journal keys checkpoints on.
type Event struct {
	// Index and Total locate the spec within the campaign.
	Index, Total int
	// Spec is the scenario the event concerns.
	Spec Spec
	// SpecHash is Spec.Hash(), the canonical identity the checkpoint
	// journal and stream consumers key on.
	SpecHash uint64
	// Trial is the completed trial's index for trial-level events, -1 for
	// spec-level start and finish events.
	Trial int
	// Outcome is the completed trial's result (trial-level events only).
	Outcome *TrialOutcome
	// Err is the failure (finish events of failed specs only).
	Err error
	// Done distinguishes finish events from start events.  Trial-level
	// events always carry Done true (the trial is complete).
	Done bool
}

// CampaignOption adjusts one Campaign.Run call.
type CampaignOption func(*campaignOpts)

type campaignOpts struct {
	progress    func(Event)
	trialOpts   []harness.Option
	trialEvents bool
	checkpoint  Checkpoint
}

// WithProgress registers a progress callback.  Events are delivered
// serialized (never concurrently) and spec by spec in declaration order:
// each spec's start, its trial events, then its finish, before the next
// spec starts.
func WithProgress(fn func(Event)) CampaignOption {
	return func(o *campaignOpts) { o.progress = fn }
}

// WithTrialOptions forwards harness options (e.g. harness.WithWorkers) to
// every member spec's trial pool.
func WithTrialOptions(opts ...harness.Option) CampaignOption {
	return func(o *campaignOpts) { o.trialOpts = append(o.trialOpts, opts...) }
}

// WithTrialEvents emits one additional progress event per computed trial
// (Trial >= 0, Outcome set) between each spec's start and finish events —
// the per-trial stream the campaign service journals and serves.  Trials
// merged from a checkpoint are not re-emitted, so a journal fed by these
// events records each trial exactly once across interrupted runs.
func WithTrialEvents() CampaignOption {
	return func(o *campaignOpts) { o.trialEvents = true }
}

// WithCheckpoint resumes the campaign from previously completed trials,
// keyed by spec hash then trial index.  Checkpointed trials are merged
// into the results without recomputing; because trial k only ever draws
// from its private stream, the folded results — and the tables rendered
// from them — are byte-identical to an uninterrupted run.
func WithCheckpoint(cp Checkpoint) CampaignOption {
	return func(o *campaignOpts) { o.checkpoint = cp }
}

// Run validates the campaign and runs its specs one after another in
// declaration order, each parallelizing its own trials, honouring ctx
// mid-campaign: once cancelled, no further spec starts, the running spec
// aborts between phases, and the error carries ctx.Err().
// Results come back in spec order; a failed spec leaves a nil slot and its
// error joined into the returned error, so one broken scenario does not
// discard the rest of the grid.
func (c *Campaign) Run(ctx context.Context, opts ...CampaignOption) ([]*Result, error) {
	var o campaignOpts
	for _, opt := range opts {
		opt(&o)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("campaign %q: %w", c.Name, err)
	}

	// Trial events are emitted on the trial workers' goroutines, spec
	// events on this one; the lock serializes every callback.
	var mu sync.Mutex
	emit := func(e Event) {
		if o.progress == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		o.progress(e)
	}

	// The spec loop rides the same harness as the trials beneath it, at one
	// worker, so a panic outside a trial fails only its spec and ctx stops
	// the next spec; the per-spec rng stream is unused because each spec
	// carries its own seed.
	results, err := harness.RunTrials(0, len(c.Specs), func(i int, _ *stats.RNG) (*Result, error) {
		spec := c.Specs[i]
		hash := spec.Hash()
		emit(Event{Index: i, Total: len(c.Specs), Spec: spec, SpecHash: hash, Trial: -1})
		var onTrial func(int, TrialOutcome)
		if o.trialEvents {
			onTrial = func(t int, out TrialOutcome) {
				emit(Event{Index: i, Total: len(c.Specs), Spec: spec, SpecHash: hash, Trial: t, Outcome: &out, Done: true})
			}
		}
		res, err := RunResumable(ctx, spec, o.checkpoint[hash], onTrial, o.trialOpts...)
		emit(Event{Index: i, Total: len(c.Specs), Spec: spec, SpecHash: hash, Trial: -1, Err: err, Done: true})
		if err != nil {
			return nil, fmt.Errorf("spec %d (%s): %w", i, spec.Title(), err)
		}
		return res, nil
	}, harness.WithWorkers(1), harness.WithContext(ctx))
	if err != nil {
		return results, fmt.Errorf("campaign %q: %w", c.Name, err)
	}
	return results, nil
}

// EncodeJSON renders the campaign as indented JSON.
func (c *Campaign) EncodeJSON() ([]byte, error) {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeCampaign parses a campaign from JSON, rejecting unknown fields.
func DecodeCampaign(data []byte) (Campaign, error) {
	var c Campaign
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Campaign{}, fmt.Errorf("scenario: decode campaign: %w", err)
	}
	return c, nil
}

// ParseCampaign parses either accepted scenario shape from raw JSON: a
// campaign object ({"name", "specs"}) or a single spec, which is wrapped
// as a one-spec campaign named after its title.  The CLI's file loader and
// the service's submit endpoint share it, so both frontends accept exactly
// the same strict JSON.
func ParseCampaign(data []byte) (Campaign, error) {
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return Campaign{}, fmt.Errorf("scenario: %w", err)
	}
	if _, isCampaign := probe["specs"]; isCampaign {
		return DecodeCampaign(data)
	}
	spec, err := DecodeSpec(data)
	if err != nil {
		return Campaign{}, err
	}
	return Campaign{Name: spec.Title(), Specs: []Spec{spec}}, nil
}

// LoadCampaign reads a scenario file in either ParseCampaign shape.
func LoadCampaign(path string) (Campaign, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Campaign{}, fmt.Errorf("scenario: %w", err)
	}
	c, err := ParseCampaign(data)
	if err != nil {
		return Campaign{}, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return c, nil
}
