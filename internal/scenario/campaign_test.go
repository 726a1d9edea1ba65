package scenario

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"explframe/internal/harness"
)

// Dedup must drop semantically identical specs (Label differences do not
// make two specs distinct) while preserving first-seen order.
func TestCampaignDedup(t *testing.T) {
	c := Campaign{Name: "d", Specs: []Spec{
		New(WithLabel("a")),
		New(WithLabel("b")), // same scenario as "a"
		New(WithSeed(2)),
	}}
	out := c.Dedup()
	if len(out.Specs) != 2 {
		t.Fatalf("dedup kept %d specs, want 2", len(out.Specs))
	}
	if out.Specs[0].Label != "a" || out.Specs[1].Seed != 2 {
		t.Fatalf("dedup changed order: %+v", out.Specs)
	}
}

// Campaign.Validate must name the failing spec by index and title.
func TestCampaignValidate(t *testing.T) {
	c := Campaign{Name: "bad", Specs: []Spec{New(), New(WithCipher("des-56"))}}
	err := c.Validate()
	if err == nil || !strings.Contains(err.Error(), "spec 1") {
		t.Fatalf("error does not locate the bad spec: %v", err)
	}
	empty := Campaign{Name: "empty"}
	if empty.Validate() == nil {
		t.Fatal("empty campaign validated")
	}
}

// A campaign run must emit a start and a done event per spec, in spec
// order, and return results in spec order.
func TestCampaignRunEvents(t *testing.T) {
	c := Campaign{Name: "events", Specs: []Spec{
		New(WithKind(Steering), WithTrials(3), WithSeed(1)),
		New(WithKind(Steering), WithTrials(3), WithSeed(2)),
	}}
	var events []Event
	results, err := c.Run(context.Background(), WithProgress(func(e Event) { events = append(events, e) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	for i, res := range results {
		if res == nil || res.Spec.Seed != c.Specs[i].Seed {
			t.Fatalf("result %d out of order: %+v", i, res)
		}
	}
	if len(events) != 4 {
		t.Fatalf("%d events, want 4", len(events))
	}
	wantDone := []bool{false, true, false, true}
	wantIdx := []int{0, 0, 1, 1}
	for i, e := range events {
		if e.Done != wantDone[i] || e.Index != wantIdx[i] || e.Total != 2 {
			t.Fatalf("event %d = %+v", i, e)
		}
		if e.Done && (e.Result == nil || e.Err != nil) {
			t.Fatalf("done event %d missing result: %+v", i, e)
		}
	}
}

// Cancelling mid-campaign must stop later specs from starting and carry
// ctx.Err() out of Run.
func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := Campaign{Name: "cancel", Specs: []Spec{
		New(WithKind(Steering), WithTrials(2)),
		New(WithKind(Steering), WithTrials(2), WithSeed(2)),
		New(WithKind(Steering), WithTrials(2), WithSeed(3)),
	}}
	started := 0
	_, err := c.Run(ctx, WithProgress(func(e Event) {
		if !e.Done {
			started++
			cancel() // cancel as soon as the first spec starts
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if started == len(c.Specs) {
		t.Fatal("cancellation did not stop later specs from starting")
	}
}

// Specs run one after another in declaration order even when each spec's
// trials run on a multi-worker pool: spec i's start, then its trial events,
// then its finish, then spec i+1's start.  Every spec receives the shared
// trial options, and RunResumable copies the slice before appending its own,
// so five options (len 5, cap 8: spare capacity) reach each spec intact.
func TestCampaignSpecsRunInDeclarationOrder(t *testing.T) {
	var specs []Spec
	for i := uint64(1); i <= 4; i++ {
		specs = append(specs, New(WithKind(Steering), WithTrials(4), WithSeed(i)))
	}
	c := Campaign{Name: "ordered", Specs: specs}
	// Wrap the pool-size option so each application is counted: one per
	// spec shows the options are forwarded to every member's trial pool.
	workers := harness.WithWorkers(4)
	applied := 0
	counted := reflect.MakeFunc(reflect.TypeOf(workers), func(args []reflect.Value) []reflect.Value {
		applied++
		return reflect.ValueOf(workers).Call(args)
	}).Interface().(harness.Option)
	noop := harness.WithWorkers(1)

	spec, phase := 0, "start"
	trials := 0
	results, err := c.Run(context.Background(), WithTrialEvents(),
		WithTrialOptions(noop, noop, noop, noop, counted),
		WithProgress(func(e Event) {
			if e.Index != spec {
				t.Fatalf("event for spec %d while spec %d is running: %+v", e.Index, spec, e)
			}
			switch {
			case e.Trial < 0 && !e.Done:
				if phase != "start" {
					t.Fatalf("spec %d started twice", spec)
				}
				phase = "trials"
			case e.Trial >= 0:
				if phase != "trials" {
					t.Fatalf("spec %d trial event outside start/finish", spec)
				}
				trials++
			default:
				if phase != "trials" || trials != specs[spec].Trials {
					t.Fatalf("spec %d finished after %d of %d trial events", spec, trials, specs[spec].Trials)
				}
				spec, phase, trials = spec+1, "start", 0
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if spec != len(specs) {
		t.Fatalf("%d of %d specs finished", spec, len(specs))
	}
	if applied != len(specs) {
		t.Fatalf("trial options applied %d times, want once per spec (%d)", applied, len(specs))
	}
	for i, res := range results {
		if res == nil || res.Spec.Seed != specs[i].Seed {
			t.Fatalf("result %d out of order: %+v", i, res)
		}
	}
}

// LoadCampaign must accept both shapes: a campaign object and a bare spec
// (wrapped as a one-spec campaign).
func TestLoadCampaignShapes(t *testing.T) {
	dir := t.TempDir()

	camp := Campaign{Name: "file-campaign", Specs: []Spec{New(), New(WithSeed(2))}}
	data, err := camp.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	campPath := filepath.Join(dir, "campaign.json")
	if err := os.WriteFile(campPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCampaign(campPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "file-campaign" || len(got.Specs) != 2 {
		t.Fatalf("campaign loaded as %+v", got)
	}

	spec := New(WithLabel("solo"), WithNoise(2, 150))
	data, err = spec.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = LoadCampaign(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Specs) != 1 || got.Name != "solo" || got.Specs[0].Noise.Procs != 2 {
		t.Fatalf("spec loaded as %+v", got)
	}

	if _, err := LoadCampaign(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file loaded")
	}
}
