package scenario

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"explframe/internal/cache"
	"explframe/internal/dram"
	"explframe/internal/fault"
	"explframe/internal/machine"
)

// grid of representative specs used by the round-trip and hash tests.
func sampleSpecs() []Spec {
	return []Spec{
		New(),
		New(WithLabel("noisy row"), WithNoise(2, 150), WithTrials(10), WithSeed(42)),
		New(WithProfile(ProfileFast), WithCipher("present-80"), WithCrossCPU()),
		New(WithTRR(), WithManySided(8)),
		New(WithECC(), WithSleepingAttacker(), WithCiphertexts(4000)),
		New(WithKind(Steering), WithPCPFIFO(), WithVictimPages(16), WithNoIdleDrain(), WithTrials(25)),
		New(WithProfile(ProfileFast), WithBaseline("pagemap-targeted"), WithTrials(12)),
		New(WithBaseline("random-spray"), WithCrossCPU(), WithTRR(), WithNoise(1, 10), WithCiphertexts(100), WithTrials(2)),
		New(WithKind(PFA), WithCipher("lilliput-80"), WithBudget(500), WithTrials(16)),
		New(WithKind(DFA), WithTrials(8)),
		New(WithFaultModel(fault.New(fault.PreciseByte)), WithTrials(8)),
		New(WithCipher("lilliput-80"), WithFaultModel(fault.New(fault.Nibble, fault.WithPosition(3))), WithBudget(40), WithTrials(4)),
		New(WithProfile("ddr4"), WithTrials(4)),
		New(WithMachine(machine.MustGet("server-1g")), WithCipher("present-80")),
		New(WithMachine(machine.New("", machine.WithTRR(4, 300))), WithTrials(2)),
		New(WithProbe(cache.TechPrimeProbe), WithProbeNoise(0.05), WithTrials(2)),
		New(WithProbe(cache.TechEvictReload), WithEvictionSet(12), WithBudget(512), WithTrials(2)),
		New(WithProfile("ddr4"), WithProbe(cache.TechPageCache), WithTrials(2)),
	}
}

// Specs must survive JSON encode/decode byte- and value-losslessly:
// decode(encode(s)) == s and re-encoding is byte-identical (idempotence).
func TestSpecJSONRoundTrip(t *testing.T) {
	for _, s := range sampleSpecs() {
		data, err := s.EncodeJSON()
		if err != nil {
			t.Fatalf("%s: encode: %v", s.Name(), err)
		}
		back, err := DecodeSpec(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", s.Name(), err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Errorf("%s: round trip changed the spec:\n in: %+v\nout: %+v", s.Name(), s, back)
		}
		again, err := back.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(again) {
			t.Errorf("%s: re-encoding is not byte-identical:\n%s\nvs\n%s", s.Name(), data, again)
		}
	}
}

// A typoed field in a scenario file must fail the decode, not silently run
// a different scenario.  So must a field the spec no longer has: the
// hammer-pairs and TRR-tracker knobs, the fault model's pinned round and
// the geometry's channel, DIMM and rank counts.
func TestDecodeSpecRejectsUnknownFields(t *testing.T) {
	if _, err := DecodeSpec([]byte(`{"kind":"attack","seed":1,"trials":1,"cihper":"aes"}`)); err == nil {
		t.Fatal("unknown field decoded without error")
	}
	machineJSON, err := machine.MustGet("fast").EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	inline := `{"kind":"attack","seed":1,"trials":1,"machine":` + string(machineJSON) + `}`
	geometry := func(field string) string {
		return strings.Replace(inline, `"geometry": {`, `"geometry": {"`+field+`": 1,`, 1)
	}
	attack := func(section, fields string) string {
		return `{"kind":"attack","seed":1,"trials":1,"` + section + `":{` + fields + `}}`
	}
	dfa := func(fields string) string {
		return `{"kind":"dfa","seed":1,"trials":1,"fault":{"kind":"nibble","position":-1` + fields + `}}`
	}
	cases := []struct {
		field, base, removed string
	}{
		{"pairs", attack("hammer", ``), attack("hammer", `"pairs":6400`)},
		{"trr_tracker", attack("defences", `"trr":true`), attack("defences", `"trr":true,"trr_tracker":4`)},
		{"trr_threshold", attack("defences", `"trr":true`), attack("defences", `"trr":true,"trr_threshold":300`)},
		{"round", dfa(``), dfa(`,"round":29`)},
		{"channels", inline, geometry("channels")},
		{"dimms", inline, geometry("dimms")},
		{"ranks", inline, geometry("ranks")},
	}
	for _, tc := range cases {
		if _, err := DecodeSpec([]byte(tc.base)); err != nil {
			t.Errorf("%s: base spec rejected: %v", tc.field, err)
		}
		_, err := DecodeSpec([]byte(tc.removed))
		if err == nil || !strings.Contains(err.Error(), `unknown field "`+tc.field+`"`) {
			t.Errorf("%s: removed field decoded, err = %v", tc.field, err)
		}
	}
}

// hugeMachine is a 2^49-byte module: sized without a cap, booting it would
// exhaust the host's memory instead of failing validation.
func hugeMachine() machine.Spec {
	return machine.New("huge", machine.WithGeometry(dram.Geometry{Banks: 8, Rows: 1 << 33, RowBytes: 8192}))
}

// The Validate rejection table: every entry must fail with a message
// naming the offending field, and multiple violations must all surface in
// one joined error.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string // substring of the error
	}{
		{"unknown kind", New(WithKind("exploit")), "kind"},
		{"unknown profile", New(WithProfile("huge")), "profile"},
		{"profile and inline machine", New(WithMachine(machine.MustGet("fast"))).With(func(s *Spec) { s.Profile = ProfileFast }), "pick one"},
		{"invalid inline machine", New(WithMachine(machine.New("", machine.WithCPUs(0)))), "machine"},
		{"oversized inline machine", New(WithMachine(hugeMachine())), "module cap"},
		{"oversized steering machine", New(WithKind(Steering), WithMachine(hugeMachine())), "module cap"},
		{"cpu count near MaxInt on cache-probe", New(WithProbe(cache.TechPrimeProbe), WithMachine(machine.MustGet("default").With(machine.WithCPUs(math.MaxInt)))), "cpus"},
		{"profile on steering kind", New(WithKind(Steering), WithProfile("ddr4")), "only kinds attack"},
		{"profile on pfa kind", New(WithKind(PFA), WithProfile(ProfileFast)), "only kinds attack"},
		{"profile on dfa kind", New(WithKind(DFA), WithProfile("server-1g")), "only kinds attack"},
		{"inline machine on steering kind", New(WithKind(Steering), WithMachine(machine.MustGet("fast"))), "only kinds attack"},
		{"inline machine on pfa kind", New(WithKind(PFA), WithMachine(machine.MustGet("default"))), "only kinds attack"},
		{"zero trials", New(WithTrials(0)), "trials"},
		{"negative trials", New(WithTrials(-3)), "trials"},
		{"trials beyond the cap", New(WithKind(PFA), WithTrials(1<<50)), "trials"},
		{"trr on pfa kind", New(WithKind(PFA), WithTRR()), "defences: {\"trr\":true} set on kind \"pfa\" (only kinds attack and baseline use it)"},
		{"ecc on steering kind", New(WithKind(Steering), WithECC()), "defences"},
		{"hammer on dfa kind", New(WithKind(DFA), WithManySided(8)), "hammer"},
		{"hammer on steering kind", New(WithKind(Steering), WithHammerMode("single-sided")), "hammer"},
		{"noise on cache-probe kind", New(WithProbe(cache.TechPrimeProbe), WithNoise(2, 150)), "only kinds attack, baseline and steering"},
		{"attacker on pfa kind", New(WithKind(PFA), WithCrossCPU()), "attacker"},
		{"victim on dfa kind", New(WithKind(DFA), WithVictimPages(8)), "victim"},
		{"ciphertexts on pfa kind", New(WithKind(PFA), WithCiphertexts(4000)), "ciphertexts"},
		{"ciphertexts on steering kind", New(WithKind(Steering), WithCiphertexts(4000)), "ciphertexts"},
		{"pcp on pfa kind", New(WithKind(PFA), WithPCPFIFO()), "pcp"},
		{"budget on attack kind", New(WithBudget(500)), "only kinds pfa, dfa and cache-probe"},
		{"budget on steering kind", New(WithKind(Steering), WithBudget(500)), "budget"},
		{"budget on baseline kind", New(WithBaseline("random-spray"), WithBudget(500)), "budget"},
		{"unknown cipher", New(WithCipher("des-56")), "cipher"},
		{"unknown hammer mode", New(WithHammerMode("quad-sided")), "hammer.mode"},
		{"decoys without many-sided", New().With(func(s *Spec) { s.Hammer.Decoys = 8 }), "many-sided"},
		{"negative decoys", New(WithManySided(-1)), "decoys"},
		{"negative noise", New().With(func(s *Spec) { s.Noise.Ops = -1 }), "noise"},
		{"negative victim pages", New(WithVictimPages(-4)), "victim.request_pages"},
		{"negative ciphertext budget", New(WithCiphertexts(-1)), "ciphertexts"},
		{"negative pfa budget", New(WithKind(PFA), WithBudget(-10)), "budget"},
		{"dfa budget beyond the cap", New(WithKind(DFA), WithBudget(MaxBudget+1)), "budget"},
		{"probe budget beyond the cap", New(WithProbe(cache.TechPrimeProbe), WithBudget(1<<40)), "budget"},
		{"unknown pcp", New().With(func(s *Spec) { s.PCP = "random" }), "pcp"},
		{"baseline without model", New(WithKind(Baseline)), "baseline"},
		{"unknown baseline model", New(WithBaseline("rowpress")), "baseline"},
		{"baseline model on attack kind", New().With(func(s *Spec) { s.BaselineModel = "random-spray" }), "baseline"},
		{"dfa without analyzer", New(WithKind(DFA), WithCipher("present-80")), "no DFA analyzer"},
		{"invalid fault model", New(WithFaultModel(fault.Model{Kind: "laser", Position: fault.Anywhere})), "kind: unknown"},
		{"unsupported fault model", New(WithFaultModel(fault.New(fault.RandomBytes, fault.WithWidth(5)))), "fault"},
		{"fault model on attack kind", New().With(func(s *Spec) { m := fault.New(fault.PreciseBit); s.Fault = &m }), "only kind dfa"},
		{"cache-probe without probe", New(WithKind(CacheProbe)), "probe: required"},
		{"unknown probe technique", New(WithProbe("flush-reload")), "probe.technique"},
		{"probe noise at one", New(WithProbe(cache.TechPrimeProbe), WithProbeNoise(1.0)), "probe.noise"},
		{"negative probe noise", New(WithProbe(cache.TechPrimeProbe), WithProbeNoise(-0.1)), "probe.noise"},
		{"undersized eviction set", New(WithProbe(cache.TechPrimeProbe), WithEvictionSet(3)), "probe.eviction_set"},
		{"eviction set beyond the cap", New(WithProbe(cache.TechPrimeProbe), WithEvictionSet(MaxEvictionSet+1)), "probe.eviction_set"},
		{"unobservable probe victim", New(WithProbe(cache.TechEvictReload), WithCipher("present-80")), "cache line"},
		{"probe on attack kind", New().With(func(s *Spec) { s.Probe = &ProbeSpec{Technique: cache.TechPrimeProbe} }), "only kind cache-probe"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if err == nil {
			t.Errorf("%s: validated cleanly", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// The machine axis: profile names resolve through the registry, an inline
// spec that copies a registered profile lowers onto the identical
// core.Config, and the machine identity enters the canonical Name.
func TestMachineResolution(t *testing.T) {
	if ms, err := New().MachineSpec(); err != nil || ms.Name != "default" {
		t.Fatalf("default resolution = %+v, %v", ms, err)
	}
	byProfile := New(WithProfile("fast"), WithSeed(9))
	inline := New(WithMachine(machine.MustGet("fast")), WithSeed(9))
	a, err := byProfile.AttackConfig()
	if err != nil {
		t.Fatal(err)
	}
	b, err := inline.AttackConfig()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("inline copy of a profile lowers differently:\n%+v\nvs\n%+v", a, b)
	}
	if name := byProfile.Name(); !strings.Contains(name, ":fast") {
		t.Errorf("profile missing from canonical name %q", name)
	}
	if name := inline.Name(); !strings.Contains(name, ":fast") {
		t.Errorf("inline machine identity missing from canonical name %q", name)
	}
	anon := New(WithMachine(machine.New("", machine.WithCPUs(8))))
	if name := anon.Name(); !strings.Contains(name, ":custom-") {
		t.Errorf("anonymous machine handle missing from canonical name %q", name)
	}
	// Two inline machines sharing a label but differing in configuration
	// are different scenarios: Name/Hash must not collide, or Dedup would
	// silently drop one.
	x := New(WithMachine(machine.New("my-dimm", machine.WithCPUs(2))))
	y := New(WithMachine(machine.New("my-dimm", machine.WithCPUs(8))))
	if x.Name() == y.Name() || x.Hash() == y.Hash() {
		t.Errorf("same-named inline machines collide: %q vs %q", x.Name(), y.Name())
	}
	if _, err := New(WithProfile("missing-machine")).AttackConfig(); err == nil {
		t.Error("AttackConfig resolved an unregistered profile")
	}
	if got := New(WithProfile("ddr4")).MachineName(); got != "ddr4" {
		t.Errorf("MachineName = %q", got)
	}
}

// All violations must surface at once (errors.Join), so a broken scenario
// file reports every mistake in one pass.
func TestValidateJoinsAllErrors(t *testing.T) {
	s := New(WithKind("exploit"), WithTrials(-1), WithCipher("des-56"))
	err := s.Validate()
	if err == nil {
		t.Fatal("expected errors")
	}
	for _, want := range []string{"kind", "trials", "cipher"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q misses the %q violation", err, want)
		}
	}
}

// Valid specs — including every preset, every sample and the budget and
// eviction-set caps themselves — must validate.
func TestValidAccepted(t *testing.T) {
	for _, s := range append(sampleSpecs(), New(WithKind(DFA), WithBudget(MaxBudget)),
		New(WithProbe(cache.TechPrimeProbe), WithEvictionSet(MaxEvictionSet))) {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
	for _, p := range Presets() {
		if err := p.Spec.Validate(); err != nil {
			t.Errorf("preset %s: %v", p.Name, err)
		}
		if p.Name == "" || p.Description == "" {
			t.Errorf("preset %+v missing name/description", p)
		}
	}
}

// Preset names must be unique and resolvable.
func TestPresetLookup(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Presets() {
		if seen[p.Name] {
			t.Fatalf("duplicate preset %q", p.Name)
		}
		seen[p.Name] = true
		got, ok := LookupPreset(p.Name)
		if !ok || got.Name != p.Name {
			t.Fatalf("LookupPreset(%q) = %+v, %v", p.Name, got, ok)
		}
	}
	if _, ok := LookupPreset("no-such-preset"); ok {
		t.Fatal("LookupPreset invented a preset")
	}
}

// Name must be canonical: label-independent, alias-normalising, and
// distinct across semantically different specs; Hash must follow Name.
func TestNameAndHash(t *testing.T) {
	a := New(WithLabel("row one"), WithNoise(2, 150))
	b := New(WithLabel("row two"), WithNoise(2, 150))
	if a.Name() != b.Name() || a.Hash() != b.Hash() {
		t.Fatal("Label leaked into the canonical name/hash")
	}
	aliased := New(WithCipher("aes"))
	canonical := New(WithCipher("aes-128"))
	if aliased.Name() != canonical.Name() {
		t.Fatalf("alias not normalised: %q vs %q", aliased.Name(), canonical.Name())
	}
	seen := map[uint64]string{}
	for _, s := range sampleSpecs() {
		h := s.Hash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("hash collision between %q and %q", prev, s.Name())
		}
		seen[h] = s.Name()
	}
	probe := New(WithProbe(cache.TechPrimeProbe), WithProbeNoise(0.05), WithEvictionSet(12))
	if name := probe.Name(); !strings.Contains(name, "cache-probe") ||
		!strings.Contains(name, "+probe=prime-probe@0.05") || !strings.Contains(name, "+evset=12") {
		t.Errorf("probe fields missing from canonical name %q", name)
	}
	if New().Title() != New().Name() {
		t.Fatal("Title without label should fall back to Name")
	}
	if s := New(WithLabel("x")); s.Title() != "x" {
		t.Fatal("Title should prefer the label")
	}
	// The TRR presets' names and hashes are pinned: they name service
	// campaigns and seed experiment rows, so the sampler constants behind
	// "+trr(4,300)" must not drift.
	for _, pin := range []struct {
		preset, name string
		hash         uint64
	}{
		{"trr", "attack:aes-128:seed1:x1+trr(4,300)", 0xd36baf926a673a20},
		{"trrespass", "attack:aes-128:seed1:x1+many-sided(8)+trr(4,300)", 0xab688192f961b213},
	} {
		p, ok := LookupPreset(pin.preset)
		if !ok {
			t.Fatalf("preset %q missing", pin.preset)
		}
		if got := p.Spec.Name(); got != pin.name {
			t.Errorf("preset %s: Name() = %q, want %q", pin.preset, got, pin.name)
		}
		if got := p.Spec.Hash(); got != pin.hash {
			t.Errorf("preset %s: Hash() = %#x, want %#x", pin.preset, got, pin.hash)
		}
	}
}
