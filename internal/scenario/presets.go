package scenario

import (
	"explframe/internal/cache"
	"explframe/internal/fault"
)

// Preset is a named, documented scenario the CLI can list, describe and run
// without a spec file.
type Preset struct {
	// Name is the CLI handle (explframe run -scenario <name> also resolves
	// presets).
	Name string
	// Description is the one-line catalogue entry `explframe list` prints.
	Description string
	// Spec is the scenario itself.
	Spec Spec
}

// Presets returns the built-in scenario catalogue, in display order.  Every
// entry validates; TestPresetsValid pins that.
func Presets() []Preset {
	return []Preset{
		{
			Name:        "baseline",
			Description: "quiet same-CPU AES-128 attack on the default 256 MiB module",
			Spec:        New(WithLabel("baseline")),
		},
		{
			Name:        "present",
			Description: "the baseline attack against a PRESENT-80 victim",
			Spec:        New(WithLabel("present"), WithCipher("present-80")),
		},
		{
			Name:        "lilliput",
			Description: "the baseline attack against a LILLIPUT-80 victim",
			Spec:        New(WithLabel("lilliput"), WithCipher("lilliput-80")),
		},
		{
			Name:        "ddr4-aes",
			Description: "the baseline attack on the ddr4 machine (XOR-folded bank function)",
			Spec:        New(WithLabel("ddr4-aes"), WithProfile("ddr4")),
		},
		{
			Name:        "server-aes",
			Description: "the baseline attack on the 1 GiB server-1g machine (slower cells)",
			Spec:        New(WithLabel("server-aes"), WithProfile("server-1g")),
		},
		{
			Name:        "noisy",
			Description: "attack under allocator churn: 2 noise processes, 150 events",
			Spec:        New(WithLabel("noisy"), WithNoise(2, 150)),
		},
		{
			Name:        "cross-cpu",
			Description: "victim pinned to another CPU — expected to defeat steering",
			Spec:        New(WithLabel("cross-cpu"), WithCrossCPU()),
		},
		{
			Name:        "sleeping",
			Description: "attacker sleeps after planting — the Section V mistake",
			Spec:        New(WithLabel("sleeping"), WithSleepingAttacker()),
		},
		{
			Name:        "trr",
			Description: "double-sided hammering against TRR(track=4,thr=300)",
			Spec:        New(WithLabel("trr"), WithTRR()),
		},
		{
			Name:        "trrespass",
			Description: "many-sided hammering (8 decoys) bypassing the TRR tracker",
			Spec:        New(WithLabel("trrespass"), WithTRR(), WithManySided(8)),
		},
		{
			Name:        "ecc",
			Description: "attack against SEC-DED ECC correcting single-bit faults",
			Spec:        New(WithLabel("ecc"), WithECC()),
		},
		{
			Name:        "fifo",
			Description: "steering sweep with the pcp ablated to FIFO (40 trials)",
			Spec:        New(WithLabel("fifo"), WithKind(Steering), WithPCPFIFO(), WithTrials(40)),
		},
		{
			Name:        "steer",
			Description: "steering-only sweep, quiet same-CPU (40 trials)",
			Spec:        New(WithLabel("steer"), WithKind(Steering), WithTrials(40)),
		},
		{
			Name:        "pfa-aes",
			Description: "crypto-only PFA on AES-128 (16 trials, no DRAM simulation)",
			Spec:        New(WithLabel("pfa-aes"), WithKind(PFA), WithTrials(16)),
		},
		{
			Name:        "dfa-aes",
			Description: "Piret-Quisquater DFA on AES-128 under precise-byte faults (12 trials)",
			Spec: New(WithLabel("dfa-aes"),
				WithFaultModel(fault.New(fault.PreciseByte)), WithTrials(12)),
		},
		{
			Name:        "dfa-lilliput",
			Description: "round-29 nibble-fault DFA on LILLIPUT-80, 40-pair budget (8 trials)",
			Spec: New(WithLabel("dfa-lilliput"), WithCipher("lilliput-80"),
				WithFaultModel(fault.New(fault.Nibble)), WithTrials(8), WithBudget(40)),
		},
		{
			Name:        "prime-probe",
			Description: "LLC Prime+Probe on AES T-tables, default machine, 4096 measurements (4 trials)",
			Spec: New(WithLabel("prime-probe"), WithProbe(cache.TechPrimeProbe),
				WithProbeNoise(0.05), WithTrials(4)),
		},
		{
			Name:        "evict-reload",
			Description: "Evict+Reload of the AES T-table lines at round resolution, 1024 measurements (4 trials)",
			Spec: New(WithLabel("evict-reload"), WithProbe(cache.TechEvictReload),
				WithProbeNoise(0.05), WithBudget(1024), WithTrials(4)),
		},
		{
			Name:        "page-cache",
			Description: "mincore-style page-cache probing of the victim's table page, 2048 windows (4 trials)",
			Spec: New(WithLabel("page-cache"), WithProbe(cache.TechPageCache),
				WithProbeNoise(0.05), WithBudget(2048), WithTrials(4)),
		},
		{
			Name:        "ddr4-prime-probe",
			Description: "Prime+Probe on the ddr4 machine: XOR-folded slice hash, 4 slices (4 trials)",
			Spec: New(WithLabel("ddr4-prime-probe"), WithProfile("ddr4"),
				WithProbe(cache.TechPrimeProbe), WithProbeNoise(0.05), WithTrials(4)),
		},
		{
			Name:        "spray",
			Description: "prior-work baseline: blind spraying on the fast module (12 trials)",
			Spec: New(WithLabel("spray"), WithProfile(ProfileFast),
				WithBaseline("random-spray"), WithTrials(12)),
		},
		{
			Name:        "pagemap",
			Description: "prior-work baseline: pagemap-targeted hammering (12 trials)",
			Spec: New(WithLabel("pagemap"), WithProfile(ProfileFast),
				WithBaseline("pagemap-targeted"), WithTrials(12)),
		},
	}
}

// CachePresets returns the CacheProbe-kind subset of the catalogue — the
// section `explframe list` prints under its own heading.
func CachePresets() []Preset {
	var out []Preset
	for _, p := range Presets() {
		if p.Spec.Kind == CacheProbe {
			out = append(out, p)
		}
	}
	return out
}

// LookupPreset resolves a preset by name.
func LookupPreset(name string) (Preset, bool) {
	for _, p := range Presets() {
		if p.Name == name {
			return p, true
		}
	}
	return Preset{}, false
}
