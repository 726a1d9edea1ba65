// Scenario campaign walkthrough: declare a grid of attack scenarios as
// first-class scenario.Spec values, fan them out through scenario.Campaign
// with live progress events and Ctrl-C cancellation, and print the headline
// success per scenario — the declarative version of the hand-assembled
// loops in examples/defence-evaluation.
//
// The same specs serialize to JSON (shown at the end), so the identical
// grid can be saved to a file and replayed with
//
//	explframe sweep -scenario campaign.json
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"

	"explframe/internal/harness"
	"explframe/internal/scenario"
)

func main() {
	// One base scenario: the fast profile (small vulnerable module, ~1 s
	// per trial), four trials per row.
	base := scenario.New(
		scenario.WithProfile(scenario.ProfileFast),
		scenario.WithSeed(3),
		scenario.WithTrials(4),
	)

	// The grid: defence axis × (implicitly) everything base fixes.  Each
	// row is base plus the options that make it different — no config
	// mutation, no copy-paste.
	camp := scenario.Campaign{Name: "defence-grid", Specs: []scenario.Spec{
		base.With(scenario.WithLabel("no defence")),
		base.With(scenario.WithLabel("TRR"), scenario.WithTRR()),
		base.With(scenario.WithLabel("TRR + many-sided bypass"),
			scenario.WithTRR(), scenario.WithManySided(8)),
		base.With(scenario.WithLabel("ECC SEC-DED"), scenario.WithECC()),
	}}
	if err := camp.Validate(); err != nil {
		log.Fatal(err)
	}

	// Ctrl-C cancels the campaign mid-flight: running attacks abort
	// between phases and unstarted scenarios never launch.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	results, err := camp.Run(ctx,
		scenario.WithTrialOptions(harness.WithWorkers(4)),
		scenario.WithProgress(func(e scenario.Event) {
			if !e.Done {
				fmt.Printf("[%d/%d] %s...\n", e.Index+1, e.Total, e.Spec.Title())
			}
		}))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	for _, res := range results {
		st := res.AttackStats()
		fmt.Printf("%-28s -> key recovered %d/%d (steer %.2f, fault %.2f)\n",
			res.Spec.Title(), st.Key.Successes, st.Key.Trials, st.Steer.Rate(), st.Fault.Rate())
	}

	// The grid is data: the first row's canonical identity and JSON form.
	spec := camp.Specs[0]
	fmt.Printf("\ncanonical name: %s (hash %016x)\n", spec.Name(), spec.Hash())
	data, err := spec.EncodeJSON()
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
}
