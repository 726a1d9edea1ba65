// Package machine makes simulated machines first-class values, the way
// internal/cipher/registry did for victims and internal/scenario did for
// scenarios.  A Spec declares one machine — DRAM geometry, address-mapper
// kind, fault model, CPU count, page-frame-cache sizing and the attack
// sizing an end-to-end run on that machine defaults to — as plain
// serializable data with functional options (New, With), joined-field
// validation (Validate), canonical naming and hashing (Name, Hash) and
// lossless JSON (EncodeJSON), decoded strictly inside scenario specs.
//
// A fixed table of built-in profiles (see builtin.go), looked up by Get
// and listed by Names, gives scenario.Spec.Profile its machine names; any
// other machine travels inline in the scenario spec itself.  The
// page-frame-cache behaviour the paper exploits and the row-adjacency
// Rowhammer needs both vary with platform details (Page Cache Attacks, the
// pigeonhole defence literature), and this package is where that axis
// lives.
package machine

import (
	"encoding/json"
	"errors"
	"fmt"

	"explframe/internal/dram"
	"explframe/internal/kernel"
	"explframe/internal/stats"
)

// AttackSizing carries the end-to-end attack defaults a machine implies:
// how hard a hammer run must push given the module's cell thresholds, how
// much memory the attacker templates, and the ciphertext budget for fault
// analysis.  Scenario lowering starts from these and lets the scenario
// override the knobs it names.
type AttackSizing struct {
	// HammerPairs is the activation-pair budget per hammer run; it must
	// comfortably exceed the module's worst-case cell threshold.
	HammerPairs int `json:"hammer_pairs"`
	// AttackerMemory is the templating buffer size in bytes.
	AttackerMemory uint64 `json:"attacker_memory"`
	// Ciphertexts is the faulty-ciphertext budget for fault analysis.
	Ciphertexts int `json:"ciphertexts"`
}

// Spec declares one machine.  Build Specs with New/With rather than struct
// literals so defaults stay in one place; the zero value is not a valid
// machine.
type Spec struct {
	// Name is the machine's handle ("default", "fast", "ddr4", ...).  An
	// inline spec may leave it empty; Name() then derives a stable
	// hash-based handle.
	Name string `json:"name,omitempty"`
	// Description is the one-line catalogue entry list/describe print.
	Description string `json:"description,omitempty"`

	// Geometry is the DRAM topology.
	Geometry dram.Geometry `json:"geometry"`
	// Mapper names the physical-to-DRAM address mapping (see
	// dram.MapperNames); empty means "linear".
	Mapper string `json:"mapper,omitempty"`
	// FaultModel parameterises the module's Rowhammer vulnerability,
	// including any TRR/ECC mitigation shipped with the machine.
	FaultModel dram.FaultModel `json:"fault_model"`

	// CPUs is the processor count; each CPU owns a page frame cache.
	CPUs int `json:"cpus"`
	// PCPBatch and PCPHigh size the per-CPU page frame cache (Linux's
	// ->batch and ->high).
	PCPBatch int `json:"pcp_batch"`
	PCPHigh  int `json:"pcp_high"`
	// MinWatermarkPages is the per-zone allocation reserve.
	MinWatermarkPages uint64 `json:"min_watermark_pages"`

	// Attack is the end-to-end attack sizing this machine defaults to.
	Attack AttackSizing `json:"attack"`
}

// Option mutates a Spec under construction.
type Option func(*Spec)

// New builds a Spec from neutral small-machine defaults — the paper's
// kernel parameters (2 CPUs, Linux pcp 31/186, 32-page watermark), the
// default 256 MiB geometry and fault model, linear mapping — and applies
// opts.
func New(name string, opts ...Option) Spec {
	s := Spec{
		Name:              name,
		Geometry:          dram.DefaultGeometry(),
		Mapper:            dram.MapperLinear,
		FaultModel:        dram.DefaultFaultModel(),
		CPUs:              2,
		PCPBatch:          31,
		PCPHigh:           186,
		MinWatermarkPages: 32,
		Attack:            AttackSizing{HammerPairs: 55000, AttackerMemory: 32 << 20, Ciphertexts: 12000},
	}
	return s.With(opts...)
}

// With returns a copy of s with opts applied.
func (s Spec) With(opts ...Option) Spec {
	for _, opt := range opts {
		opt(&s)
	}
	return s
}

// WithDescription sets the catalogue line.
func WithDescription(d string) Option { return func(s *Spec) { s.Description = d } }

// WithGeometry sets the DRAM topology.
func WithGeometry(g dram.Geometry) Option { return func(s *Spec) { s.Geometry = g } }

// WithMapper selects the address-mapper kind.
func WithMapper(name string) Option { return func(s *Spec) { s.Mapper = name } }

// WithFaultModel sets the Rowhammer vulnerability model.
func WithFaultModel(m dram.FaultModel) Option { return func(s *Spec) { s.FaultModel = m } }

// WithCPUs sets the processor count.
func WithCPUs(n int) Option { return func(s *Spec) { s.CPUs = n } }

// WithWatermark sets the per-zone allocation reserve in pages.
func WithWatermark(pages uint64) Option { return func(s *Spec) { s.MinWatermarkPages = pages } }

// WithAttackSizing sets the end-to-end attack defaults.
func WithAttackSizing(pairs int, attackerMem uint64, ciphertexts int) Option {
	return func(s *Spec) {
		s.Attack = AttackSizing{HammerPairs: pairs, AttackerMemory: attackerMem, Ciphertexts: ciphertexts}
	}
}

// WithTRR ships the machine with an in-DRAM Target Row Refresh sampler.
func WithTRR(tracker, threshold int) Option {
	return func(s *Spec) {
		s.FaultModel.TRR = dram.TRRConfig{Enabled: true, TrackerSize: tracker, Threshold: threshold}
	}
}

// MaxCPUs caps Spec.CPUs: booting a machine allocates a page frame cache
// per CPU and its cache model a slice per CPU, up front.
const MaxCPUs = 256

// Validate checks every field and returns all violations joined into one
// error, so a machine file with three mistakes reports three mistakes.
func (s Spec) Validate() error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	if err := s.Geometry.Validate(); err != nil {
		fail("geometry: %v", err)
	}
	if _, err := dram.NewNamedMapper(s.Mapper, okGeometry(s.Geometry)); err != nil {
		fail("mapper: %v", err)
	}
	fm := s.FaultModel
	if fm.WeakCellDensity < 0 || fm.WeakCellDensity > 1 {
		fail("fault_model.weak_cell_density: %g, want within [0, 1]", fm.WeakCellDensity)
	}
	if fm.BaseThreshold <= 0 {
		fail("fault_model.base_threshold: %d, want >= 1", fm.BaseThreshold)
	}
	if fm.ThresholdSpread < 0 {
		fail("fault_model.threshold_spread: %g, want >= 0", fm.ThresholdSpread)
	}
	if fm.NeighbourWeight < 0 || fm.NeighbourWeight > 1 {
		fail("fault_model.neighbour_weight: %g, want within [0, 1]", fm.NeighbourWeight)
	}
	if fm.RefreshInterval == 0 {
		fail("fault_model.refresh_interval: 0, want >= 1")
	}
	if fm.FlipReliability <= 0 || fm.FlipReliability > 1 {
		fail("fault_model.flip_reliability: %g, want within (0, 1]", fm.FlipReliability)
	}
	if fm.TRR.Enabled && (fm.TRR.TrackerSize <= 0 || fm.TRR.Threshold <= 0) {
		fail("fault_model.trr: enabled needs positive tracker_size and threshold (%d, %d)",
			fm.TRR.TrackerSize, fm.TRR.Threshold)
	}
	if s.CPUs <= 0 || s.CPUs > MaxCPUs {
		fail("cpus: %d, want within [1, %d]", s.CPUs, MaxCPUs)
	}
	if s.PCPBatch <= 0 || s.PCPHigh < s.PCPBatch {
		fail("pcp: need 0 < pcp_batch (%d) <= pcp_high (%d)", s.PCPBatch, s.PCPHigh)
	}
	if s.Attack.HammerPairs <= 0 {
		fail("attack.hammer_pairs: %d, want >= 1", s.Attack.HammerPairs)
	}
	if s.Attack.AttackerMemory == 0 || s.Attack.AttackerMemory >= s.Geometry.TotalBytes() {
		fail("attack.attacker_memory: %d bytes, want within (0, module size %d)",
			s.Attack.AttackerMemory, s.Geometry.TotalBytes())
	}
	if s.Attack.Ciphertexts <= 0 {
		fail("attack.ciphertexts: %d, want >= 1", s.Attack.Ciphertexts)
	}
	return errors.Join(errs...)
}

// okGeometry substitutes a valid geometry when the spec's own is broken, so
// mapper validation reports the mapper name problem rather than repeating
// the geometry error.
func okGeometry(g dram.Geometry) dram.Geometry {
	if g.Validate() != nil {
		return dram.DefaultGeometry()
	}
	return g
}

// canonical renders every semantic field (Description excluded) into a
// deterministic string — the input to Hash and the derived name of
// anonymous specs.  The literal "g=1.1.1." prefix encodes the one channel,
// DIMM and rank of every module: it keeps every machine hash stable, and
// with them the names of inline-machine specs.
func (s Spec) canonical() string {
	g, fm := s.Geometry, s.FaultModel
	return fmt.Sprintf("g=1.1.1.%d.%d.%d;map=%s;fm=%g,%d,%g,%g,%d,%g;trr=%v,%d,%d;ecc=%d;cpu=%d;pcp=%d,%d;wm=%d;atk=%d,%d,%d",
		g.Banks, g.Rows, g.RowBytes,
		s.MapperName(),
		fm.WeakCellDensity, fm.BaseThreshold, fm.ThresholdSpread, fm.NeighbourWeight, fm.RefreshInterval, fm.FlipReliability,
		fm.TRR.Enabled, fm.TRR.TrackerSize, fm.TRR.Threshold, fm.ECC,
		s.CPUs, s.PCPBatch, s.PCPHigh, s.MinWatermarkPages,
		s.Attack.HammerPairs, s.Attack.AttackerMemory, s.Attack.Ciphertexts)
}

// Hash returns a 64-bit FNV-1a digest of the canonical encoding — stable
// across processes, usable for dedup and per-machine seed derivation
// (experiment tables key trial streams on it so adding a machine never
// re-randomizes existing rows).
func (s Spec) Hash() uint64 { return stats.FNV64(s.canonical()) }

// CanonicalName returns the spec's Name when it has one, and a
// stable "custom-<hash>" handle for anonymous inline specs, so every
// machine has a printable identity.
func (s Spec) CanonicalName() string {
	if s.Name != "" {
		return s.Name
	}
	return fmt.Sprintf("custom-%08x", uint32(s.Hash()))
}

// MapperName resolves the mapper default: the empty field means linear.
func (s Spec) MapperName() string {
	if s.Mapper == "" {
		return dram.MapperLinear
	}
	return s.Mapper
}

// KernelConfig lowers the machine onto the kernel layer's assembly config.
// The seed threads through to weak-cell placement; DrainOnIdle starts true
// (Linux behaviour) and scenario ablations flip it per run.
func (s Spec) KernelConfig(seed uint64) kernel.Config {
	return kernel.Config{
		Geometry:          s.Geometry,
		FaultModel:        s.FaultModel,
		Mapper:            s.Mapper,
		NumCPUs:           s.CPUs,
		PCPBatch:          s.PCPBatch,
		PCPHigh:           s.PCPHigh,
		MinWatermarkPages: s.MinWatermarkPages,
		Seed:              seed,
		DrainOnIdle:       true,
	}
}

// EncodeJSON renders the spec as indented JSON, round-tripping losslessly
// through a strict decode.
func (s Spec) EncodeJSON() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
