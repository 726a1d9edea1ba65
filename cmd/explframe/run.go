package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"time"

	"explframe/internal/harness"
	"explframe/internal/scenario"
)

// cmdRun executes one scenario.  Attack scenarios with one trial print the
// classic phase-by-phase report; everything else prints a compact summary.
// Exit codes: 0 on success, 1 when an attack fails to recover the key (so
// scripts can branch on the outcome) or the simulator errors, 2 on bad
// usage.
func cmdRun(args []string) int {
	f := newFlags("run")
	if code, ok := f.parse(args); !ok {
		return code
	}
	camp, err := f.campaign()
	if err != nil {
		return fail(err)
	}
	if len(camp.Specs) != 1 {
		return fail(fmt.Errorf("run executes one scenario; %q holds %d specs (use 'explframe sweep' for campaigns)",
			f.scenarioRef, len(camp.Specs)))
	}
	spec := camp.Specs[0]
	if err := spec.Validate(); err != nil {
		return fail(fmt.Errorf("scenario %q invalid:\n%w", spec.Title(), err))
	}

	endProfile, err := f.startCPUProfile()
	if err != nil {
		return fail(err)
	}
	defer endProfile()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if spec.Kind == scenario.Attack && spec.Trials == 1 {
		return runSingleAttack(ctx, spec)
	}
	return runSummary(ctx, spec, f.parallel)
}

// runSingleAttack prints the phase-by-phase report of one end-to-end run —
// the classic explframe output.  The run is trial 0 of the spec through
// scenario.Run, the one execution path sweep and submit also take, so the
// report describes exactly the trial those commands count.
func runSingleAttack(ctx context.Context, spec scenario.Spec) int {
	cfg, err := spec.AttackConfig()
	if err != nil {
		return fail(err)
	}
	fmt.Printf("ExplFrame attack: %s victim, seed %d\n", cfg.VictimCipher, cfg.Seed)
	fmt.Printf("  machine: %d MiB DRAM, %d CPUs, weak-cell density %g\n",
		cfg.Machine.Geometry.TotalBytes()>>20, cfg.Machine.NumCPUs, cfg.Machine.FaultModel.WeakCellDensity)
	fmt.Printf("  attacker: %d MiB buffer on CPU %d; victim: %d pages on CPU %d\n\n",
		cfg.AttackerMemory>>20, cfg.AttackerCPU, cfg.VictimRequestPages, cfg.VictimCPU)

	start := time.Now()
	res, err := scenario.Run(ctx, spec)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "interrupted")
			return 1
		}
		fmt.Fprintf(os.Stderr, "simulator error: %v\n", err)
		return 1
	}
	elapsed := time.Since(start)
	rep := res.Attack[0]

	fmt.Printf("[template] flips found: %d, usable site: %v\n", rep.FlipsTemplated, rep.SiteFound)
	if rep.SiteFound {
		fmt.Printf("           site: page offset %d bit %d (%d->%d), row %d bank %d\n",
			rep.Site.ByteInPage, rep.Site.Bit, rep.Site.From, 1-rep.Site.From,
			rep.Site.Agg.VictimRow, rep.Site.Agg.Bank)
		fmt.Printf("[plant]    released frame PFN %d into the page frame cache\n", rep.PlantedPFN)
		fmt.Printf("[steer]    victim table frame PFN %d — steering %s\n", rep.VictimTablePFN, verdict(rep.SteeringHit))
		fmt.Printf("[rehammer] fault in victim table: %s", verdict(rep.FaultInjected))
		if rep.FaultInjected {
			fmt.Printf(" (table[%#02x])", rep.CorruptIndex)
		}
		fmt.Println()
		if rep.CiphertextsUsed > 0 || rep.KeyRecovered {
			fmt.Printf("[analyse]  %d faulty ciphertexts, residual entropy %.1f bits\n",
				rep.CiphertextsUsed, rep.ResidualEntropy)
		}
	}
	fmt.Printf("[hammer]   %d activations across %d runs\n", rep.Hammer.Activations, rep.Hammer.Pairsentries)
	fmt.Println()
	if rep.Success() {
		fmt.Printf("SUCCESS: recovered key %x in %.1fs\n", rep.RecoveredKey, elapsed.Seconds())
		return 0
	}
	fmt.Printf("FAILED at phase %q: %s (%.1fs)\n", rep.Phase, rep.FailReason, elapsed.Seconds())
	return 1
}

// runSummary executes a non-attack (or multi-trial) scenario and prints its
// aggregate outcome.  Attack-kind scenarios still gate the exit code on key
// recovery.
func runSummary(ctx context.Context, spec scenario.Spec, parallel int) int {
	fmt.Printf("scenario %s: kind %s, %d trials (seed %d)\n", spec.Title(), spec.Kind, spec.Trials, spec.Seed)
	res, err := scenario.Run(ctx, spec, harness.WithWorkers(parallel))
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenario error: %v\n", err)
		return 1
	}
	switch spec.Kind {
	case scenario.Attack:
		st := res.AttackStats()
		fmt.Printf("  site found:    %d/%d (%.3f)\n", st.Site.Successes, st.Site.Trials, st.Site.Rate())
		fmt.Printf("  steering hit:  %d/%d (%.3f)\n", st.Steer.Successes, st.Steer.Trials, st.Steer.Rate())
		fmt.Printf("  fault planted: %d/%d (%.3f)\n", st.Fault.Successes, st.Fault.Trials, st.Fault.Rate())
		fmt.Printf("  key recovered: %d/%d (%.3f)\n", st.Key.Successes, st.Key.Trials, st.Key.Rate())
		if st.Ciphertexts.N() > 0 {
			fmt.Printf("  ciphertexts to recovery: %s\n", st.Ciphertexts.String())
		}
		if st.Key.Successes == 0 {
			return 1
		}
	case scenario.Steering:
		st := res.SteeringStats()
		fmt.Printf("  first-page steering: %d/%d (%.3f)\n", st.FirstPage.Successes, st.FirstPage.Trials, st.FirstPage.Rate())
		fmt.Printf("  planted frames reused anywhere: mean %.2f\n", st.PlantedReused.Mean())
	case scenario.Baseline:
		st := res.BaselineStats()
		fmt.Printf("  table corrupted: %d/%d (%.3f)\n", st.Corrupted.Successes, st.Corrupted.Trials, st.Corrupted.Rate())
		fmt.Printf("  neighbour rows owned in %d/%d trials\n", st.NeighboursOwned, st.Corrupted.Trials)
	case scenario.PFA:
		st := res.PFAStats()
		fmt.Printf("  last-round key recovered: %d/%d (%.3f)\n", st.Recovered.Successes, st.Recovered.Trials, st.Recovered.Rate())
		fmt.Printf("  master key verified:      %d/%d (%.3f)\n", st.MasterOK.Successes, st.MasterOK.Trials, st.MasterOK.Rate())
		if st.Ciphertexts.N() > 0 {
			fmt.Printf("  ciphertexts to recovery: %s\n", st.Ciphertexts.String())
		}
	case scenario.DFA:
		st := res.DFAStats()
		fmt.Printf("  fault model: %s\n", spec.FaultModel().Name())
		fmt.Printf("  unique key recovered: %d/%d (%.3f)\n", st.Recovered.Successes, st.Recovered.Trials, st.Recovered.Rate())
		fmt.Printf("  master key verified:  %d/%d (%.3f)\n", st.MasterOK.Successes, st.MasterOK.Trials, st.MasterOK.Rate())
		if st.Pairs.N() > 0 {
			fmt.Printf("  pairs to recovery: %s\n", st.Pairs.String())
		}
		fmt.Printf("  surviving key space: mean %.1f bits\n", st.KeySpaceBits.Mean())
	case scenario.CacheProbe:
		st := res.CacheProbeStats()
		fmt.Printf("  technique: %s\n", spec.Probe.Technique)
		fmt.Printf("  full first-round key: %d/%d (%.3f)\n", st.FullKey.Successes, st.FullKey.Trials, st.FullKey.Rate())
		fmt.Printf("  key nibbles recovered: mean %.1f\n", st.Nibbles.Mean())
		fmt.Printf("  bytes leaked: mean %.1f\n", st.BytesLeaked.Mean())
		if st.BitErrorRate.N() > 0 {
			fmt.Printf("  channel bit-error rate: mean %.3f\n", st.BitErrorRate.Mean())
		}
	}
	return 0
}

func verdict(b bool) string {
	if b {
		return "HIT"
	}
	return "miss"
}
