package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"time"

	"explframe/internal/harness"
	"explframe/internal/report"
	"explframe/internal/scenario"
)

// cmdSweep runs a scenario (or a whole campaign file) over many trials and
// renders the campaign table in any report format.
func cmdSweep(args []string) int {
	f := newFlags("sweep")
	if code, ok := f.parse(args); !ok {
		return code
	}
	format, err := report.ParseFormat(f.format)
	if err != nil {
		return fail(err)
	}
	camp, err := f.campaign()
	if err != nil {
		return fail(err)
	}
	return sweepCampaign(f, camp, format)
}

// sweepCampaign runs camp and renders scenario.CampaignTable, one row per
// spec, in the given format to -out or stdout.  Progress goes to stderr;
// the rendered table is byte-identical at any -parallel value (the repo's
// determinism contract).  SIGINT cancels the campaign mid-flight.  A
// campaign of one attack-kind spec exits 1 when no trial recovered the key
// (scripts branch on it); otherwise the exit is 0 unless a spec errors.
// Duplicate specs in a campaign file are run as written — only warned
// about — since the file is the user's explicit request.
func sweepCampaign(f *cliFlags, camp scenario.Campaign, format report.Format) int {
	if deduped := camp.Dedup(); len(deduped.Specs) < len(camp.Specs) {
		fmt.Fprintf(os.Stderr, "warning: campaign %q contains %d semantically duplicate spec(s) (same canonical hash); running all as written\n",
			camp.Name, len(camp.Specs)-len(deduped.Specs))
	}
	if err := camp.Validate(); err != nil {
		return fail(fmt.Errorf("campaign %q invalid:\n%w", camp.Name, err))
	}

	endProfile, err := f.startCPUProfile()
	if err != nil {
		return fail(err)
	}
	defer endProfile()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	results, err := camp.Run(ctx,
		scenario.WithTrialOptions(harness.WithWorkers(f.parallel)),
		scenario.WithProgress(func(e scenario.Event) {
			// Events are self-identifying: the spec's canonical hash names
			// the same scenario in journals, streams and checkpoints.
			if e.Done {
				status := "done"
				if e.Err != nil {
					status = fmt.Sprintf("failed: %v", e.Err)
				}
				fmt.Fprintf(os.Stderr, "[%d/%d] %s #%016x %s\n", e.Index+1, e.Total, e.Spec.Title(), e.SpecHash, status)
				return
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s #%016x: %d trials...\n", e.Index+1, e.Total, e.Spec.Title(), e.SpecHash, e.Spec.Trials)
		}))
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep error: %v\n", err)
		return 1
	}
	// Wall time and worker count go to stderr, not the table: rendered
	// sweep output must be byte-identical at any -parallel.
	fmt.Fprintf(os.Stderr, "%d scenario(s) in %.1fs (workers=%d)\n", len(results), time.Since(start).Seconds(), f.parallel)

	rendered, err := report.Render(scenario.CampaignTable(camp.Name, results), format)
	if err != nil {
		fmt.Fprintf(os.Stderr, "render: %v\n", err)
		return 1
	}
	if f.out != "" {
		if err := os.WriteFile(f.out, []byte(rendered), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", f.out)
	} else {
		fmt.Print(rendered)
	}
	if len(results) == 1 && results[0].Spec.Kind == scenario.Attack && results[0].AttackStats().Key.Successes == 0 {
		return 1
	}
	return 0
}
