package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"explframe/internal/cipher/registry"
	"explframe/internal/scenario"
)

// cliFlags is the shared scenario flag surface of run, sweep and submit.
// Every flag maps onto one scenario.Spec field; flags the user explicitly
// set override the spec loaded from -scenario, field by field.
type cliFlags struct {
	fs *flag.FlagSet

	scenarioRef string
	machineRef  string
	seed        uint64
	trials      int
	parallel    int
	cipher      string
	noise       int
	noiseOps    int
	crossCPU    bool
	sleep       bool
	ciphertexts int
	budget      int
	trr         bool
	ecc         bool
	manySided   int
	format      string
	out         string
}

// newFlags builds the flag set for a subcommand.  The table-rendering
// flags (-format, -out) only take effect on the sweep path but parse
// everywhere, keeping run/sweep invocations interchangeable.
func newFlags(name string) *cliFlags {
	f := &cliFlags{fs: flag.NewFlagSet(name, flag.ContinueOnError)}
	f.fs.StringVar(&f.scenarioRef, "scenario", "", "scenario source: a preset name (see 'explframe list') or a JSON spec file")
	f.fs.StringVar(&f.machineRef, "machine", "",
		"machine profile the scenario runs on (see 'explframe list -machines'); overrides the spec's profile or inline machine")
	f.fs.Uint64Var(&f.seed, "seed", 1, "attack seed (weak cells, keys, noise)")
	f.fs.IntVar(&f.trials, "trials", 1, "independent trials")
	f.fs.IntVar(&f.parallel, "parallel", runtime.GOMAXPROCS(0),
		"trial workers; results are identical at any value (deterministic per-trial streams)")
	f.fs.StringVar(&f.cipher, "cipher", "aes",
		fmt.Sprintf("victim cipher, any registered name or alias (%s)", strings.Join(registry.Names(), ", ")))
	f.fs.IntVar(&f.noise, "noise", 0, "noise processes churning on the victim CPU")
	f.fs.IntVar(&f.noiseOps, "noise-ops", 0, "allocation events the noise performs")
	f.fs.BoolVar(&f.crossCPU, "cross-cpu", false, "pin the victim to a different CPU (expected to defeat the attack)")
	f.fs.BoolVar(&f.sleep, "sleep", false, "attacker sleeps after planting (expected to defeat the attack)")
	f.fs.IntVar(&f.ciphertexts, "ciphertexts", 12000, "faulty ciphertext budget for PFA")
	f.fs.IntVar(&f.budget, "budget", 0,
		"per-trial work budget: probe measurements (cache-probe), ciphertexts (pfa) or pairs (dfa); 0 inherits the kind default")
	f.fs.BoolVar(&f.trr, "trr", false, "enable the TRR mitigation (tracker 4, threshold 300)")
	f.fs.BoolVar(&f.ecc, "ecc", false, "enable SEC-DED ECC")
	f.fs.IntVar(&f.manySided, "many-sided", 0, "use many-sided hammering with this many decoy rows (TRR bypass)")
	f.fs.StringVar(&f.format, "format", "text", "sweep output format: text, md, csv or json")
	f.fs.StringVar(&f.out, "out", "", "write the sweep table to this file instead of stdout")
	return f
}

// loadScenario resolves a -scenario reference: preset name first, then
// JSON file (campaign or single spec).
func loadScenario(ref string) (scenario.Campaign, error) {
	if p, ok := scenario.LookupPreset(ref); ok {
		return scenario.Campaign{Name: p.Name, Specs: []scenario.Spec{p.Spec}}, nil
	}
	if _, err := os.Stat(ref); err != nil {
		return scenario.Campaign{}, fmt.Errorf("-scenario %q is neither a preset (see 'explframe list') nor a readable file", ref)
	}
	return scenario.LoadCampaign(ref)
}

// campaign assembles the scenario(s) this invocation runs: the -scenario
// preset/file when given (flags explicitly set on the command line override
// each loaded spec field by field), the flag-built spec otherwise.
func (f *cliFlags) campaign() (scenario.Campaign, error) {
	overrides, err := f.overrides()
	if err != nil {
		return scenario.Campaign{}, err
	}
	if f.scenarioRef != "" {
		camp, err := loadScenario(f.scenarioRef)
		if err != nil {
			return scenario.Campaign{}, err
		}
		for i := range camp.Specs {
			camp.Specs[i] = camp.Specs[i].With(overrides...)
		}
		return camp, nil
	}
	spec := scenario.New(overrides...)
	return scenario.Campaign{Name: spec.Title(), Specs: []scenario.Spec{spec}}, nil
}

// overrides translates the flags the user explicitly set into spec options.
// Values the spec model cannot express (it treats 0 as "inherit the
// profile default") are rejected loudly rather than silently remapped.
func (f *cliFlags) overrides() ([]scenario.Option, error) {
	var opts []scenario.Option
	var err error
	f.fs.Visit(func(fl *flag.Flag) {
		switch fl.Name {
		case "machine":
			opts = append(opts, scenario.WithProfile(scenario.Profile(f.machineRef)))
		case "seed":
			opts = append(opts, scenario.WithSeed(f.seed))
		case "trials":
			opts = append(opts, scenario.WithTrials(f.trials))
		case "cipher":
			opts = append(opts, scenario.WithCipher(f.cipher))
		case "noise":
			opts = append(opts, func(s *scenario.Spec) { s.Noise.Procs = f.noise })
		case "noise-ops":
			opts = append(opts, func(s *scenario.Spec) { s.Noise.Ops = f.noiseOps })
		case "cross-cpu":
			if f.crossCPU {
				opts = append(opts, scenario.WithCrossCPU())
			}
		case "sleep":
			if f.sleep {
				opts = append(opts, scenario.WithSleepingAttacker())
			}
		case "ciphertexts":
			if f.ciphertexts <= 0 {
				err = fmt.Errorf("-ciphertexts %d: the budget must be >= 1 (omit the flag for the default)", f.ciphertexts)
				return
			}
			opts = append(opts, scenario.WithCiphertexts(f.ciphertexts))
		case "budget":
			if f.budget <= 0 {
				err = fmt.Errorf("-budget %d: the budget must be >= 1 (omit the flag for the kind default)", f.budget)
				return
			}
			opts = append(opts, scenario.WithBudget(f.budget))
		case "trr":
			if f.trr {
				opts = append(opts, scenario.WithTRR(0, 0))
			}
		case "ecc":
			if f.ecc {
				opts = append(opts, scenario.WithECC())
			}
		case "many-sided":
			if f.manySided > 0 {
				opts = append(opts, scenario.WithManySided(f.manySided))
			}
		}
	})
	return opts, err
}

// parse runs the flag set through parseBare.
func (f *cliFlags) parse(args []string) (code int, ok bool) {
	return parseBare(f.fs, args)
}

// fail prints a usage-level error and returns exit code 2.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return 2
}
