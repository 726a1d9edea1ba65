package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"explframe/internal/cipher/registry"
	"explframe/internal/fault"
	"explframe/internal/fault/dfa"
	"explframe/internal/machine"
	"explframe/internal/scenario"
)

// parseBare runs a subcommand's flag set and maps -h/-help onto a clean
// exit: code 0 and ok=false for help, code 2 and ok=false for a real parse
// error.
func parseBare(fs *flag.FlagSet, args []string) (code int, ok bool) {
	switch err := fs.Parse(args); {
	case err == nil:
		return 0, true
	case errors.Is(err, flag.ErrHelp):
		return 0, false
	default:
		return 2, false
	}
}

// cmdList prints the catalogues behind every name the CLI accepts: scenario
// presets (-scenario), cache-probe presets (their own section — a different
// attacker primitive than the Rowhammer scenarios), machine profiles
// (-machine / spec "profile"), declarative fault models (the "fault" field
// of DFA-kind specs) and registered ciphers (-cipher), under section
// headers.  -machines, -fault-models and -cache-presets restrict the output
// to one section for scripting.
func cmdList(args []string) int {
	fs := flag.NewFlagSet("list", flag.ContinueOnError)
	machinesOnly := fs.Bool("machines", false, "list only the registered machine profiles")
	faultsOnly := fs.Bool("fault-models", false, "list only the fault-model presets and DFA analyzers")
	cachesOnly := fs.Bool("cache-presets", false, "list only the cache-probe scenario presets")
	if code, ok := parseBare(fs, args); !ok {
		return code
	}
	all := !*machinesOnly && !*faultsOnly && !*cachesOnly
	if all {
		fmt.Println("Scenario presets (run with: explframe run -scenario <name>):")
		for _, p := range scenario.Presets() {
			if p.Spec.Kind == scenario.CacheProbe {
				continue // listed under their own section below
			}
			fmt.Printf("  %-14s %s\n", p.Name, p.Description)
		}
		fmt.Println()
	}
	if all || *cachesOnly {
		fmt.Println("Cache-probe presets (run with: explframe run -scenario <name>):")
		for _, p := range scenario.CachePresets() {
			fmt.Printf("  %-16s %s\n", p.Name, p.Description)
		}
	}
	if all {
		fmt.Println()
	}
	if all || *machinesOnly {
		fmt.Println("Machine profiles (run with: explframe run -machine <name>):")
		for _, name := range machine.Names() {
			ms := machine.MustGet(name)
			fmt.Printf("  %-14s %4d MiB, %d cpus, %s mapper — %s\n",
				name, ms.Geometry.TotalBytes()>>20, ms.CPUs, ms.MapperName(), ms.Description)
		}
	}
	if all {
		fmt.Println()
	}
	if all || *faultsOnly {
		fmt.Println("Fault models (the \"fault\" field of dfa-kind scenarios):")
		for _, p := range fault.Presets() {
			fmt.Printf("  %-14s %s\n", p.Name, p.Description)
		}
		fmt.Println("\nDFA analyzers (ladder strongest-first):")
		for _, name := range dfa.Names() {
			a := dfa.MustGet(name)
			rungs := make([]string, 0, len(a.Ladder()))
			for _, m := range a.Ladder() {
				rungs = append(rungs, m.Name())
			}
			fmt.Printf("  %-14s round %d: %s\n", name, a.DefaultRound(), strings.Join(rungs, " > "))
		}
	}
	if !all {
		return 0
	}
	fmt.Printf("\nRegistered ciphers (-cipher): %s\n", strings.Join(registry.Names(), ", "))
	fmt.Println("\nDescribe any of them with: explframe describe <name|file.json> or explframe describe machine <name>")
	return 0
}

// cmdDescribe resolves a name to its canonical JSON: `describe machine X`
// prints the machine profile X; `describe X` tries scenario presets and
// spec/campaign files first and falls back to machine profiles, then to
// fault-model presets, so every name `list` prints is describable.  Unknown
// names exit 2 with the usage contract's "not a scenario, machine or fault
// model" report.
func cmdDescribe(args []string) int {
	fs := flag.NewFlagSet("describe", flag.ContinueOnError)
	if code, ok := parseBare(fs, args); !ok {
		return code
	}
	switch fs.NArg() {
	case 1:
		ref := fs.Arg(0)
		if p, ok := scenario.LookupPreset(ref); ok {
			return describeCampaign(scenario.Campaign{Name: p.Name, Specs: []scenario.Spec{p.Spec}})
		}
		if _, err := os.Stat(ref); err == nil {
			// An existing file must parse as a spec/campaign; a parse error
			// is the diagnosis, not a reason to try other namespaces.
			camp, err := scenario.LoadCampaign(ref)
			if err != nil {
				return fail(err)
			}
			return describeCampaign(camp)
		}
		if ms, ok := machine.Get(ref); ok {
			return describeMachine(ms)
		}
		if p, ok := fault.LookupPreset(ref); ok {
			return describeFaultModel(p)
		}
		return fail(fmt.Errorf("%q is not a scenario (preset or spec file), machine or fault model; see 'explframe list'", ref))
	case 2:
		if fs.Arg(0) != "machine" {
			return fail(fmt.Errorf("usage: explframe describe <preset|spec.json> | explframe describe machine <name>"))
		}
		ms, ok := machine.Get(fs.Arg(1))
		if !ok {
			return fail(fmt.Errorf("machine %q is not registered (known: %s)",
				fs.Arg(1), strings.Join(machine.Names(), ", ")))
		}
		return describeMachine(ms)
	default:
		return fail(fmt.Errorf("usage: explframe describe <preset|spec.json> | explframe describe machine <name>"))
	}
}

// describeCampaign prints each member scenario's canonical name, hash,
// validation verdict and JSON — the ground truth of what `run`/`sweep`
// would execute.
func describeCampaign(camp scenario.Campaign) int {
	if len(camp.Specs) > 1 {
		fmt.Printf("campaign %q: %d scenarios\n\n", camp.Name, len(camp.Specs))
	}
	code := 0
	for i, spec := range camp.Specs {
		if len(camp.Specs) > 1 {
			fmt.Printf("--- spec %d ---\n", i)
		}
		fmt.Printf("name:  %s\n", spec.Name())
		fmt.Printf("hash:  %016x\n", spec.Hash())
		if err := spec.Validate(); err != nil {
			fmt.Printf("valid: NO\n%v\n", err)
			code = 2
		} else {
			fmt.Println("valid: yes")
		}
		data, err := spec.EncodeJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		os.Stdout.Write(data)
	}
	return code
}

// describeFaultModel prints one fault-model preset's identity, the
// analyzers whose ladders cover it, and its canonical JSON (pasteable into
// a dfa-kind scenario file's "fault" field).
func describeFaultModel(p fault.Preset) int {
	fmt.Printf("fault model: %s (%s)\n", p.Model.Name(), p.Description)
	fmt.Printf("hash:        %016x\n", p.Model.Hash())
	var supported []string
	for _, name := range dfa.Names() {
		if dfa.MustGet(name).Supports(p.Model) == nil {
			supported = append(supported, name)
		}
	}
	fmt.Printf("analyzers:   %s\n", strings.Join(supported, ", "))
	code := 0
	if err := p.Model.Validate(); err != nil {
		fmt.Printf("valid:       NO\n%v\n", err)
		code = 2
	} else {
		fmt.Println("valid:       yes")
	}
	data, err := p.Model.EncodeJSON()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	os.Stdout.Write(data)
	return code
}

// describeMachine prints one machine profile's identity and canonical JSON
// (pasteable into a scenario file's "machine" field).  Registered specs
// are valid by construction (Register rejects anything else), but the
// verdict mirrors describeCampaign's exit-2 contract for symmetry and for
// any future non-registry source.
func describeMachine(ms machine.Spec) int {
	fmt.Printf("machine: %s\n", ms.CanonicalName())
	fmt.Printf("hash:    %016x\n", ms.Hash())
	fmt.Printf("mapper:  %s\n", ms.MapperName())
	g := ms.Geometry
	fmt.Printf("dram:    %d MiB (%dx%dx%d, %d banks x %d rows x %d B)\n",
		g.TotalBytes()>>20, g.Channels, g.DIMMs, g.Ranks, g.Banks, g.Rows, g.RowBytes)
	code := 0
	if err := ms.Validate(); err != nil {
		fmt.Printf("valid:   NO\n%v\n", err)
		code = 2
	} else {
		fmt.Println("valid:   yes")
	}
	data, err := ms.EncodeJSON()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	os.Stdout.Write(data)
	return code
}
