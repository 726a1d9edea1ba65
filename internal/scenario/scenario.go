// Package scenario makes ExplFrame evaluation scenarios first-class values.
//
// A Spec declares one scenario — victim cipher, deployed defences, hammer
// strategy, allocator noise, attacker behaviour, ciphertext budget, pcp
// policy and trial count — as plain serializable data.  Specs are built with
// functional options (New, With), validated with joined field errors
// (Validate), named and hashed canonically for dedup and result keys
// (Name, Hash), and round-trip losslessly through JSON so they can live in
// files next to the code that runs them.
//
// On top of the declarative layer sits context-aware execution: Run
// executes one spec's trials on the deterministic harness pool, and
// Campaign fans a named grid of specs out through internal/harness with
// cancellation and progress events.  Every frontend — cmd/explframe, the
// E6/E8/E11/E13/E15 experiment drivers, future service endpoints —
// constructs the same Spec values and shares one execution path, so the
// statistics a scenario produces are fixed by (spec, seed) alone.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"

	"explframe/internal/cache"
	"explframe/internal/cipher/registry"
	"explframe/internal/fault"
	"explframe/internal/fault/dfa"
	"explframe/internal/machine"
	"explframe/internal/stats"
)

// Kind selects which trial pipeline a Spec drives.
type Kind string

// The five scenario kinds, one per trial pipeline in internal/core,
// internal/fault/pfa and internal/fault/dfa.
const (
	// Attack runs the full pipeline: template → plant → steer → re-hammer
	// → persistent fault analysis.
	Attack Kind = "attack"
	// Steering runs the Section V page-frame-cache mechanics only (no
	// hammering) — cheap enough for thousand-trial sweeps.
	Steering Kind = "steering"
	// Baseline runs a prior-work attack model (random spraying or
	// pagemap-assisted targeting) for comparison tables.
	Baseline Kind = "baseline"
	// PFA runs the crypto-only persistent-fault key recovery: a random
	// single-bit S-box fault and ciphertext collection, no simulated DRAM.
	PFA Kind = "pfa"
	// DFA runs the crypto-only differential-fault key recovery: transient
	// faults drawn from a declarative fault.Model, analysed by the cipher's
	// registered dfa.Analyzer — the baseline the persistent route is
	// compared against.
	DFA Kind = "dfa"
	// CacheProbe runs a cache-timing side channel from internal/cache:
	// Prime+Probe or Evict+Reload against the victim's T-table lines, or
	// mincore-style page-cache probing of the victim's table page, on the
	// machine's LLC model.
	CacheProbe Kind = "cache-probe"
)

// Profile selects the simulated machine the scenario runs on: any built-in
// name of internal/machine ("explframe list -machines" prints them).
type Profile string

// Handles for the two historical machine profiles: convenience names for
// the built-in entries the results book pins, not an enumeration.
const (
	// ProfileDefault is the 256 MiB module of core.DefaultConfig — the
	// paper-proportioned setting cmd/explframe uses.
	ProfileDefault Profile = "default"
	// ProfileFast is the small, vulnerable 32 MiB module the end-to-end
	// experiment tables (E6/E8/E13) use so every trial stays ~1 s.
	ProfileFast Profile = "fast"
)

// HammerSpec declares the Rowhammer strategy.  Zero values inherit the
// profile's defaults (double-sided at the profile's pair count).
type HammerSpec struct {
	// Mode is "", "single-sided", "double-sided" or "many-sided".
	Mode string `json:"mode,omitempty"`
	// Decoys is the tracker-thrashing row count; requires many-sided mode.
	Decoys int `json:"decoys,omitempty"`
	// Pairs overrides the activation pairs per hammer run (0 = profile
	// default).
	Pairs int `json:"pairs,omitempty"`
}

// DefenceSpec declares the deployed DRAM mitigations.
type DefenceSpec struct {
	// TRR enables target-row-refresh with the given tracker geometry.
	TRR bool `json:"trr,omitempty"`
	// TRRTracker is the TRR tracker size (0 = 4, the E13 setting).
	TRRTracker int `json:"trr_tracker,omitempty"`
	// TRRThreshold is the TRR refresh threshold (0 = 300).
	TRRThreshold int `json:"trr_threshold,omitempty"`
	// ECC enables SEC-DED correction on reads.
	ECC bool `json:"ecc,omitempty"`
}

// NoiseSpec declares unrelated allocation churn on the victim CPU between
// plant and steer.
type NoiseSpec struct {
	// Procs is the number of background noise processes.
	Procs int `json:"procs,omitempty"`
	// Ops is the number of allocation events the noise performs.
	Ops int `json:"ops,omitempty"`
}

// AttackerSpec declares the attacker's scheduling behaviour.
type AttackerSpec struct {
	// Sleeps sends the attacker idle after planting — the mistake Section V
	// warns about.
	Sleeps bool `json:"sleeps,omitempty"`
	// CrossCPU pins the victim to a different CPU than the attacker.
	CrossCPU bool `json:"cross_cpu,omitempty"`
	// NoIdleDrain disables the kernel's pcp drain on CPU idle — the E11
	// ablation, equivalent to a busy peer process keeping the CPU awake.
	NoIdleDrain bool `json:"no_idle_drain,omitempty"`
}

// VictimSpec declares the victim process's allocation shape.
type VictimSpec struct {
	// RequestPages is the size of the victim's single mmap request
	// (0 = the 4-page default).
	RequestPages int `json:"request_pages,omitempty"`
}

// ProbeSpec declares a CacheProbe-kind scenario's attacker primitive and
// tuning.  Zero values inherit the cache layer's defaults (an eviction set
// per monitored line at the LLC's associativity, no background noise).
type ProbeSpec struct {
	// Technique selects the primitive: "prime-probe", "evict-reload" or
	// "page-cache" (cache.Techniques lists them).
	Technique string `json:"technique"`
	// Noise is the per-measurement probability of background working-set
	// interference in [0, 1).
	Noise float64 `json:"noise,omitempty"`
	// EvictionSet is the lines per eviction set (0 = the LLC's
	// associativity; fewer than the associativity cannot evict a set).
	EvictionSet int `json:"eviction_set,omitempty"`
}

// PCP policies for the page-frame-cache ablation.
const (
	// PCPLIFO is Linux's policy — the one the steering primitive exploits.
	PCPLIFO = "lifo"
	// PCPFIFO is the ablated policy of experiment E14.
	PCPFIFO = "fifo"
)

// Spec declares one scenario.  The zero value of every optional field means
// "inherit the profile default", so a Spec serializes to exactly the knobs
// the scenario turns.  Build Specs with New/With rather than struct
// literals so defaults stay in one place.
type Spec struct {
	// Label is an optional human-readable name (table row captions).  It is
	// ignored by Name, Hash and Validate: two specs differing only in Label
	// are the same scenario.
	Label string `json:"label,omitempty"`
	// Kind selects the trial pipeline; New defaults it to Attack.
	Kind Kind `json:"kind"`
	// Profile names a built-in machine of internal/machine; New defaults
	// it to ProfileDefault.  Steering, PFA and DFA
	// kinds have no machine axis (steering runs on core's fixed steering
	// machine, PFA and DFA on no machine), so Validate rejects any other
	// profile, or an inline machine, on them.
	Profile Profile `json:"profile,omitempty"`
	// Machine is an optional inline machine spec, the file-local
	// alternative to naming a built-in profile; setting both is a
	// validation error.
	Machine *machine.Spec `json:"machine,omitempty"`
	// Seed drives every stochastic component of every trial.
	Seed uint64 `json:"seed"`
	// Trials is the number of independent trials Run executes, at most
	// MaxTrials.
	Trials int `json:"trials"`

	// Cipher names the victim (any name or alias registered in
	// internal/cipher/registry); "" means aes-128.
	Cipher string `json:"cipher,omitempty"`

	// Hammer, Defences, Noise, Attacker and Victim declare the scenario
	// axes; their zero values inherit the profile defaults.  Validate
	// rejects an axis set on a kind that never reads it.
	Hammer   HammerSpec   `json:"hammer"`
	Defences DefenceSpec  `json:"defences"`
	Noise    NoiseSpec    `json:"noise"`
	Attacker AttackerSpec `json:"attacker"`
	Victim   VictimSpec   `json:"victim"`

	// Ciphertexts bounds the faulty ciphertexts an attack or baseline
	// trial collects for fault analysis (0 = profile default).
	Ciphertexts int `json:"ciphertexts,omitempty"`
	// PCP is the page-frame-cache policy of the machine-backed kinds
	// (attack, baseline, steering): "", PCPLIFO or PCPFIFO.
	PCP string `json:"pcp,omitempty"`
	// BaselineModel selects the prior-work model for Kind Baseline:
	// "random-spray" or "pagemap-targeted".
	BaselineModel string `json:"baseline,omitempty"`
	// Budget bounds the ciphertexts of a PFA-kind trial (0 = 25 per
	// S-box value, the coupon-collector scaling), the correct/faulty
	// pairs of a DFA-kind trial (0 = 16), or the probe measurements of a
	// CacheProbe-kind trial (0 = 4096).
	Budget int `json:"budget,omitempty"`
	// Fault is the transient fault model of a DFA-kind trial; nil inherits
	// the strongest rung of the cipher analyzer's ladder.
	Fault *fault.Model `json:"fault,omitempty"`
	// Probe is the attacker primitive of a CacheProbe-kind trial; it is
	// required on that kind and forbidden on every other.
	Probe *ProbeSpec `json:"probe,omitempty"`
}

// Option mutates a Spec under construction.
type Option func(*Spec)

// New builds a Spec from the baseline scenario — a quiet same-CPU AES-128
// attack, one trial, seed 1, on the default machine — and applies opts.
func New(opts ...Option) Spec {
	s := Spec{
		Kind:    Attack,
		Profile: ProfileDefault,
		Seed:    1,
		Trials:  1,
		Cipher:  "aes-128",
	}
	return s.With(opts...)
}

// With returns a copy of s with opts applied — the grid-building idiom:
// one base spec, per-row variations.
func (s Spec) With(opts ...Option) Spec {
	for _, opt := range opts {
		opt(&s)
	}
	return s
}

// WithLabel sets the human-readable caption.
func WithLabel(label string) Option { return func(s *Spec) { s.Label = label } }

// WithKind selects the trial pipeline.
func WithKind(k Kind) Option { return func(s *Spec) { s.Kind = k } }

// WithProfile selects a built-in simulated machine by name, clearing any
// inline machine spec.
func WithProfile(p Profile) Option {
	return func(s *Spec) {
		s.Profile = p
		s.Machine = nil
	}
}

// WithMachine runs the scenario on an inline machine spec, any machine
// besides the built-in profiles, clearing any named profile.
func WithMachine(ms machine.Spec) Option {
	return func(s *Spec) {
		s.Machine = &ms
		s.Profile = ""
	}
}

// WithSeed sets the root seed.
func WithSeed(seed uint64) Option { return func(s *Spec) { s.Seed = seed } }

// WithTrials sets the trial count.
func WithTrials(n int) Option { return func(s *Spec) { s.Trials = n } }

// WithCipher names the victim cipher.
func WithCipher(name string) Option { return func(s *Spec) { s.Cipher = name } }

// WithTRR deploys target-row-refresh with the given tracker size and
// refresh threshold (0, 0 selects the 4/300 E13 setting).
func WithTRR(tracker, threshold int) Option {
	return func(s *Spec) {
		s.Defences.TRR = true
		s.Defences.TRRTracker = tracker
		s.Defences.TRRThreshold = threshold
	}
}

// WithECC deploys SEC-DED correction.
func WithECC() Option { return func(s *Spec) { s.Defences.ECC = true } }

// WithManySided switches to many-sided hammering with n decoy rows — the
// TRRespass-style tracker bypass.
func WithManySided(decoys int) Option {
	return func(s *Spec) {
		s.Hammer.Mode = "many-sided"
		s.Hammer.Decoys = decoys
	}
}

// WithNoise runs procs background processes performing ops allocation
// events on the victim CPU between plant and steer.
func WithNoise(procs, ops int) Option {
	return func(s *Spec) {
		s.Noise.Procs = procs
		s.Noise.Ops = ops
	}
}

// WithSleepingAttacker makes the attacker go idle after planting.
func WithSleepingAttacker() Option { return func(s *Spec) { s.Attacker.Sleeps = true } }

// WithCrossCPU pins the victim to a different CPU.
func WithCrossCPU() Option { return func(s *Spec) { s.Attacker.CrossCPU = true } }

// WithNoIdleDrain disables the pcp drain on CPU idle (E11 ablation).
func WithNoIdleDrain() Option { return func(s *Spec) { s.Attacker.NoIdleDrain = true } }

// WithVictimPages sets the victim's mmap request size in pages.
func WithVictimPages(n int) Option { return func(s *Spec) { s.Victim.RequestPages = n } }

// WithCiphertexts bounds the faulty ciphertexts collected for analysis.
func WithCiphertexts(n int) Option { return func(s *Spec) { s.Ciphertexts = n } }

// WithPCPFIFO ablates the page frame cache to FIFO service order.
func WithPCPFIFO() Option { return func(s *Spec) { s.PCP = PCPFIFO } }

// WithBaseline selects a Baseline-kind prior-work model ("random-spray" or
// "pagemap-targeted") and sets the kind accordingly.
func WithBaseline(model string) Option {
	return func(s *Spec) {
		s.Kind = Baseline
		s.BaselineModel = model
	}
}

// WithBudget bounds a PFA-kind trial's ciphertext budget or a DFA-kind
// trial's pair budget.
func WithBudget(n int) Option { return func(s *Spec) { s.Budget = n } }

// WithFaultModel selects a DFA-kind scenario under the given transient
// fault model, the way WithBaseline selects its kind.
func WithFaultModel(m fault.Model) Option {
	return func(s *Spec) {
		s.Kind = DFA
		s.Fault = &m
	}
}

// WithProbe selects a CacheProbe-kind scenario under the given probe
// technique (see cache.Techniques), the way WithBaseline selects its kind.
func WithProbe(technique string) Option {
	return func(s *Spec) {
		s.Kind = CacheProbe
		s.Probe = &ProbeSpec{Technique: technique}
	}
}

// WithProbeNoise sets a CacheProbe-kind scenario's background-interference
// probability; apply it after WithProbe.
func WithProbeNoise(p float64) Option {
	return func(s *Spec) {
		if s.Probe == nil {
			s.Probe = &ProbeSpec{}
		}
		s.Probe.Noise = p
	}
}

// hammerModes lists the accepted HammerSpec.Mode strings.
var hammerModes = map[string]bool{
	"": true, "single-sided": true, "double-sided": true, "many-sided": true,
}

// baselineModels lists the accepted BaselineModel strings.
var baselineModels = map[string]bool{
	"random-spray": true, "pagemap-targeted": true,
}

// MaxTrials caps Spec.Trials: Run allocates one outcome per trial up
// front, so one submitted spec must not ask for an unbounded slice.
const MaxTrials = 1 << 20

// MaxBudget caps Spec.Budget, far above every in-tree budget (8192 probe
// measurements in E18, the 6400-ciphertext AES PFA default).  A DFA-kind
// trial allocates its whole pair budget up front in dfa.CollectPairs, about
// 240 B per AES pair, so the cap bounds that at 15 MiB per trial; PFA and
// cache-probe budgets cost time, not memory.
const MaxBudget = 1 << 16

// MaxEvictionSet caps ProbeSpec.EvictionSet, 128 times the default LLC
// associativity.  cache.BuildEvictionSet sizes each monitored table's set
// at EvictionSet+1 addresses of 8 B, so the cap bounds that at 8 KiB per
// table (32 KiB for AES's four T-tables).
const MaxEvictionSet = 1 << 10

// MaxSpecs caps Campaign.Specs: a campaign runs and journals every spec,
// so one submission must not queue an unbounded grid.  In-tree campaigns
// have at most a few dozen.
const MaxSpecs = 4096

// kindList renders two or more kinds as "a, b and c".
func kindList(kinds []Kind) string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = string(k)
	}
	return strings.Join(names[:len(names)-1], ", ") + " and " + names[len(names)-1]
}

// Validate checks every field and returns all violations joined into one
// error (errors.Join), so a config file with three mistakes reports three
// mistakes.
func (s Spec) Validate() error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	switch s.Kind {
	case Attack, Steering, Baseline, PFA, DFA, CacheProbe:
	default:
		fail("kind: unknown %q (want attack, steering, baseline, pfa, dfa or cache-probe)", s.Kind)
	}
	if s.Machine != nil {
		if s.Profile != "" {
			fail("profile: %q and an inline machine are both set (pick one)", s.Profile)
		}
		if err := s.Machine.Validate(); err != nil {
			fail("machine: %w", err)
		}
	} else if s.Profile != "" {
		if _, ok := machine.Get(string(s.Profile)); !ok {
			fail("profile: unknown machine %q (registered: %s)", s.Profile, strings.Join(machine.Names(), ", "))
		}
	}
	if (s.Kind == Steering || s.Kind == PFA || s.Kind == DFA) &&
		(s.Machine != nil || s.Profile != "" && s.Profile != ProfileDefault) {
		fail("profile: machine %q set on kind %q (only kinds attack, baseline and cache-probe use it)", s.MachineName(), s.Kind)
	}
	if s.Trials <= 0 || s.Trials > MaxTrials {
		fail("trials: %d, want within [1, %d]", s.Trials, MaxTrials)
	}
	if s.Kind != Steering { // every other kind (known or not) names a victim
		if _, ok := registry.Get(s.cipherName()); !ok {
			fail("cipher: unknown %q (registered: %s)", s.cipherName(), strings.Join(registry.Names(), ", "))
		}
	}
	if !hammerModes[s.Hammer.Mode] {
		fail("hammer.mode: unknown %q (want single-sided, double-sided or many-sided)", s.Hammer.Mode)
	}
	if s.Hammer.Decoys < 0 {
		fail("hammer.decoys: %d, want >= 0", s.Hammer.Decoys)
	}
	if s.Hammer.Decoys > 0 && s.Hammer.Mode != "many-sided" {
		fail("hammer.decoys: %d decoy rows need many-sided mode (got %q)", s.Hammer.Decoys, s.Hammer.Mode)
	}
	if s.Hammer.Pairs < 0 {
		fail("hammer.pairs: %d, want >= 0", s.Hammer.Pairs)
	}
	if s.Defences.TRRTracker < 0 || s.Defences.TRRThreshold < 0 {
		fail("defences: negative TRR tracker/threshold (%d, %d)", s.Defences.TRRTracker, s.Defences.TRRThreshold)
	}
	if (s.Defences.TRRTracker > 0 || s.Defences.TRRThreshold > 0) && !s.Defences.TRR {
		fail("defences: TRR tracker/threshold set but trr is false")
	}
	if s.Noise.Procs < 0 || s.Noise.Ops < 0 {
		fail("noise: negative procs/ops (%d, %d)", s.Noise.Procs, s.Noise.Ops)
	}
	if s.Victim.RequestPages < 0 {
		fail("victim.request_pages: %d, want >= 0", s.Victim.RequestPages)
	}
	if s.Ciphertexts < 0 {
		fail("ciphertexts: %d, want >= 0", s.Ciphertexts)
	}
	if s.Budget < 0 || s.Budget > MaxBudget {
		fail("budget: %d, want within [0, %d]", s.Budget, MaxBudget)
	}
	switch s.PCP {
	case "", PCPLIFO, PCPFIFO:
	default:
		fail("pcp: unknown policy %q (want lifo or fifo)", s.PCP)
	}
	hammerKinds := []Kind{Attack, Baseline}
	machineKinds := []Kind{Attack, Baseline, Steering}
	for _, ax := range []struct {
		field string
		value any
		set   bool
		kinds []Kind // the kinds whose trials read the field
	}{
		{"hammer", s.Hammer, s.Hammer != HammerSpec{}, hammerKinds},
		{"defences", s.Defences, s.Defences != DefenceSpec{}, hammerKinds},
		{"noise", s.Noise, s.Noise != NoiseSpec{}, machineKinds},
		{"attacker", s.Attacker, s.Attacker != AttackerSpec{}, machineKinds},
		{"victim", s.Victim, s.Victim != VictimSpec{}, machineKinds},
		{"ciphertexts", s.Ciphertexts, s.Ciphertexts != 0, hammerKinds},
		{"pcp", s.PCP, s.PCP != "", machineKinds},
		{"budget", s.Budget, s.Budget != 0, []Kind{PFA, DFA, CacheProbe}},
	} {
		if ax.set && !slices.Contains(ax.kinds, s.Kind) {
			v, _ := json.Marshal(ax.value) // plain data: cannot fail
			fail("%s: %s set on kind %q (only kinds %s use it)", ax.field, v, s.Kind, kindList(ax.kinds))
		}
	}
	if s.Kind == Baseline {
		if !baselineModels[s.BaselineModel] {
			fail("baseline: unknown model %q (want random-spray or pagemap-targeted)", s.BaselineModel)
		}
	} else if s.BaselineModel != "" {
		fail("baseline: model %q set on kind %q (only kind baseline uses it)", s.BaselineModel, s.Kind)
	}
	if s.Kind == DFA {
		a, ok := dfa.Get(s.cipherName())
		if !ok {
			fail("cipher: no DFA analyzer registered for %q (have: %s)", s.CipherName(), strings.Join(dfa.Names(), ", "))
		}
		if s.Fault != nil {
			if err := s.Fault.Validate(); err != nil {
				fail("fault: %w", err)
			} else if ok {
				if err := a.Supports(*s.Fault); err != nil {
					fail("fault: %w", err)
				}
			}
		}
	} else if s.Fault != nil {
		fail("fault: model %q set on kind %q (only kind dfa uses it)", s.Fault.Name(), s.Kind)
	}
	if s.Kind == CacheProbe {
		if s.Probe == nil {
			fail("probe: required for kind cache-probe (technique: one of %s)", strings.Join(cache.Techniques(), ", "))
		} else {
			if !cache.KnownTechnique(s.Probe.Technique) {
				fail("probe.technique: unknown %q (want %s)", s.Probe.Technique, strings.Join(cache.Techniques(), ", "))
			}
			if s.Probe.Noise < 0 || s.Probe.Noise >= 1 {
				fail("probe.noise: %g, want within [0, 1)", s.Probe.Noise)
			}
			g := s.cacheGeometry()
			if s.Probe.EvictionSet != 0 && s.Probe.EvictionSet < g.Ways {
				fail("probe.eviction_set: %d lines cannot evict a %d-way set (0 inherits the associativity)",
					s.Probe.EvictionSet, g.Ways)
			}
			if s.Probe.EvictionSet > MaxEvictionSet {
				fail("probe.eviction_set: %d lines, want at most %d", s.Probe.EvictionSet, MaxEvictionSet)
			}
			if c, ok := registry.Get(s.cipherName()); ok {
				if err := cache.Observable(c, g.LineBytes); err != nil {
					fail("cipher: %w", err)
				}
			}
		}
	} else if s.Probe != nil {
		fail("probe: technique %q set on kind %q (only kind cache-probe uses it)", s.Probe.Technique, s.Kind)
	}
	return errors.Join(errs...)
}

// cacheGeometry derives the LLC geometry of the machine the scenario runs
// on (the scenario-layer policy: cache shape follows the machine's CPU
// count, so machine specs stay unchanged and their hashes stable).
func (s Spec) cacheGeometry() cache.Geometry {
	cpus := 2
	if ms, err := s.MachineSpec(); err == nil && ms.CPUs > 0 {
		cpus = ms.CPUs
	}
	return cache.DefaultGeometry(cpus)
}

// MachineSpec resolves the machine the scenario runs on: the inline spec
// when present, otherwise the built-in profile (ProfileDefault when the
// field is empty).
func (s Spec) MachineSpec() (machine.Spec, error) {
	if s.Machine != nil {
		return *s.Machine, nil
	}
	name := string(s.Profile)
	if name == "" {
		name = string(ProfileDefault)
	}
	ms, ok := machine.Get(name)
	if !ok {
		return machine.Spec{}, fmt.Errorf("scenario: unknown machine profile %q (registered: %s)",
			name, strings.Join(machine.Names(), ", "))
	}
	return ms, nil
}

// MachineName returns the canonical name of the machine the scenario runs
// on — the built-in profile name, or the inline spec's derived handle.
func (s Spec) MachineName() string {
	if s.Machine != nil {
		return s.Machine.CanonicalName()
	}
	if s.Profile == "" {
		return string(ProfileDefault)
	}
	return string(s.Profile)
}

// FaultModel resolves the fault model a DFA-kind scenario runs under: the
// explicit Fault when set, otherwise the strongest rung of the cipher
// analyzer's ladder.
func (s Spec) FaultModel() fault.Model {
	if s.Fault != nil {
		return *s.Fault
	}
	if a, ok := dfa.Get(s.cipherName()); ok {
		if l := a.Ladder(); len(l) > 0 {
			return l[0]
		}
	}
	return fault.New(fault.PreciseByte)
}

// cipherName resolves the cipher default.
func (s Spec) cipherName() string {
	if s.Cipher == "" {
		return "aes-128"
	}
	return s.Cipher
}

// CipherName returns the victim cipher's canonical registry name, resolving
// the aes-128 default and any alias; an unknown name comes back verbatim
// (Validate reports it).
func (s Spec) CipherName() string {
	if c, ok := registry.Get(s.cipherName()); ok {
		return c.Name()
	}
	return s.cipherName()
}

// Name returns the canonical scenario name: a compact, deterministic
// encoding of every semantic field (Label excluded).  Two specs are the
// same scenario iff their Names are equal, which makes Name usable as a
// dedup and result key.
func (s Spec) Name() string {
	var b strings.Builder
	b.WriteString(string(s.Kind))
	if s.Machine != nil {
		// An inline machine is identified by content, not label: two specs
		// embedding same-named but differently-configured machines must not
		// collide (Dedup would silently drop one).  Anonymous machines
		// already derive a hash handle; named ones get the hash appended.
		if s.Machine.Name == "" {
			fmt.Fprintf(&b, ":%s", s.Machine.CanonicalName())
		} else {
			fmt.Fprintf(&b, ":%s#%08x", s.Machine.Name, uint32(s.Machine.Hash()))
		}
	} else if p := s.Profile; p != "" && p != ProfileDefault {
		fmt.Fprintf(&b, ":%s", p)
	}
	if s.Kind == Attack || s.Kind == PFA || s.Kind == Baseline || s.Kind == DFA || s.Kind == CacheProbe {
		fmt.Fprintf(&b, ":%s", s.CipherName())
	}
	if s.Kind == Baseline {
		fmt.Fprintf(&b, ":%s", s.BaselineModel)
	}
	fmt.Fprintf(&b, ":seed%d:x%d", s.Seed, s.Trials)
	if m := s.Hammer.Mode; m != "" && m != "double-sided" {
		fmt.Fprintf(&b, "+%s", m)
	}
	if s.Hammer.Decoys > 0 {
		fmt.Fprintf(&b, "(%d)", s.Hammer.Decoys)
	}
	if s.Hammer.Pairs > 0 {
		fmt.Fprintf(&b, "+pairs=%d", s.Hammer.Pairs)
	}
	if s.Defences.TRR {
		fmt.Fprintf(&b, "+trr(%d,%d)", s.trrTracker(), s.trrThreshold())
	}
	if s.Defences.ECC {
		b.WriteString("+ecc")
	}
	if s.Noise.Procs > 0 {
		fmt.Fprintf(&b, "+noise(%d,%d)", s.Noise.Procs, s.Noise.Ops)
	}
	if s.Attacker.Sleeps {
		b.WriteString("+sleep")
	}
	if s.Attacker.CrossCPU {
		b.WriteString("+cross-cpu")
	}
	if s.Attacker.NoIdleDrain {
		b.WriteString("+no-idle-drain")
	}
	if s.Victim.RequestPages > 0 {
		fmt.Fprintf(&b, "+pages=%d", s.Victim.RequestPages)
	}
	if s.Ciphertexts > 0 {
		fmt.Fprintf(&b, "+cts=%d", s.Ciphertexts)
	}
	if s.PCP == PCPFIFO {
		b.WriteString("+fifo")
	}
	if s.Budget > 0 {
		fmt.Fprintf(&b, "+budget=%d", s.Budget)
	}
	if s.Fault != nil {
		fmt.Fprintf(&b, "+fault=%s", s.Fault.Name())
	}
	if s.Probe != nil {
		fmt.Fprintf(&b, "+probe=%s", s.Probe.Technique)
		if s.Probe.Noise > 0 {
			fmt.Fprintf(&b, "@%g", s.Probe.Noise)
		}
		if s.Probe.EvictionSet > 0 {
			fmt.Fprintf(&b, "+evset=%d", s.Probe.EvictionSet)
		}
	}
	return b.String()
}

// Title returns the Label when set, the canonical Name otherwise — the
// string table rows and progress lines display.
func (s Spec) Title() string {
	if s.Label != "" {
		return s.Label
	}
	return s.Name()
}

// trrTracker resolves the TRR tracker-size default (the E13 setting).
func (s Spec) trrTracker() int {
	if s.Defences.TRRTracker > 0 {
		return s.Defences.TRRTracker
	}
	return 4
}

// trrThreshold resolves the TRR threshold default (the E13 setting).
func (s Spec) trrThreshold() int {
	if s.Defences.TRRThreshold > 0 {
		return s.Defences.TRRThreshold
	}
	return 300
}

// Hash returns a 64-bit FNV-1a digest of the canonical Name — stable
// across processes, usable for dedup and cache keys.
func (s Spec) Hash() uint64 { return stats.FNV64(s.Name()) }

// EncodeJSON renders the spec as indented JSON.  Only the knobs the
// scenario turns appear (zero-valued fields are omitted), so the encoding
// round-trips losslessly: DecodeSpec(EncodeJSON(s)) == s.
func (s Spec) EncodeJSON() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeSpec parses one spec from JSON.  Unknown fields are rejected so a
// typoed knob in a scenario file fails loudly instead of silently running
// the wrong scenario.
func DecodeSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: decode spec: %w", err)
	}
	return s, nil
}
