package cache

import (
	"strings"
	"testing"

	"explframe/internal/cipher/registry"
	"explframe/internal/dram"
	"explframe/internal/stats"
)

func aesView(t *testing.T, mapperName string) *View {
	t.Helper()
	m, err := dram.NewNamedMapper(mapperName, dram.DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(m, DefaultGeometry(2), DefaultSliceHash(mapperName))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestLayoutFor(t *testing.T) {
	aes := registry.MustGet("aes-128")
	l, err := LayoutFor(aes, 64)
	if err != nil {
		t.Fatal(err)
	}
	if l.Tables != 4 || l.TableBytes != 1024 || l.LinesPerTable != 16 || l.IdxPerLine != 16 || l.IdxShift != 4 {
		t.Fatalf("AES layout = %+v", l)
	}
	// Nibble ciphers' 16-entry tables fit in one line: no layout.
	if err := Observable(registry.MustGet("present-80"), 64); err == nil {
		t.Fatal("present-80 T-table layout accepted")
	} else if !strings.Contains(err.Error(), "cache line") {
		t.Fatalf("unhelpful rejection: %v", err)
	}
}

func TestNewAttackRejects(t *testing.T) {
	v := aesView(t, dram.MapperLinear)
	aes := registry.MustGet("aes-128")
	cases := []ProbeConfig{
		{Technique: "flush-reload", Budget: 64},
		{Technique: TechPrimeProbe, Budget: 0},
		{Technique: TechPrimeProbe, Budget: 64, Noise: 1.0},
		{Technique: TechPrimeProbe, Budget: 64, Noise: -0.1},
		{Technique: TechPrimeProbe, Budget: 64, EvictionSet: 3},
	}
	for _, cfg := range cases {
		if _, err := NewAttack(v, aes, cfg, stats.NewRNG(1)); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := NewAttack(v, registry.MustGet("present-80"),
		ProbeConfig{Technique: TechPrimeProbe, Budget: 64}, stats.NewRNG(1)); err == nil {
		t.Error("single-line T-table victim accepted")
	}
}

// TestAttackRecoversNibbles pins the headline property: under a generous
// measurement budget the line-granular techniques recover every
// first-round key nibble on both mappers, while page-cache probing stays
// at chance level (page granularity carries no line information).
func TestAttackRecoversNibbles(t *testing.T) {
	aes := registry.MustGet("aes-128")
	for _, mapper := range dram.MapperNames() {
		v := aesView(t, mapper)
		for _, tech := range []string{TechPrimeProbe, TechEvictReload} {
			budget := 4096
			if tech == TechEvictReload {
				budget = 512 // round-granular reloads converge much faster
			}
			a, err := NewAttack(v, aes, ProbeConfig{Technique: tech, Budget: budget, Noise: 0.05}, stats.NewRNG(7))
			if err != nil {
				t.Fatalf("%s/%s: %v", mapper, tech, err)
			}
			res := a.Run()
			if res.Nibbles != res.NibbleTotal || res.NibbleTotal != 16 {
				t.Errorf("%s/%s: recovered %d/%d nibbles", mapper, tech, res.Nibbles, res.NibbleTotal)
			}
			if res.EvictionSets != 4 || res.Measurements != budget {
				t.Errorf("%s/%s: result %+v", mapper, tech, res)
			}
			if want := float64(16*4) / 8; res.BytesLeaked != want {
				t.Errorf("%s/%s: bytes leaked %g, want %g", mapper, tech, res.BytesLeaked, want)
			}
		}
	}

	v := aesView(t, dram.MapperLinear)
	a, err := NewAttack(v, aes, ProbeConfig{Technique: TechPageCache, Budget: 2048, Noise: 0.05}, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	res := a.Run()
	if res.Nibbles > 4 {
		t.Errorf("page-cache probing recovered %d nibbles; page granularity should stay near chance", res.Nibbles)
	}
	if res.EvictionSets != 0 {
		t.Errorf("page-cache probing built %d eviction sets", res.EvictionSets)
	}
	// The activity channel still leaks: capacity-scaled bytes well above
	// the line techniques' 8-byte ceiling, with a small error rate.
	if res.BytesLeaked < 100 {
		t.Errorf("page-cache channel leaked %g bytes over %d windows", res.BytesLeaked, res.Measurements)
	}
	if rate := float64(res.BitErrors) / float64(res.Measurements); rate > 0.1 {
		t.Errorf("page-cache channel error rate %g", rate)
	}
}

// TestAttackStarvedBudget pins the budget axis E18 sweeps: at a starved
// budget Prime+Probe recovers only part of the key, strictly less than
// Evict+Reload's round-granular observations recover from the same
// number of measurements.
func TestAttackStarvedBudget(t *testing.T) {
	aes := registry.MustGet("aes-128")
	v := aesView(t, dram.MapperLinear)
	nibbles := func(tech string) int {
		a, err := NewAttack(v, aes, ProbeConfig{Technique: tech, Budget: 384, Noise: 0.05}, stats.NewRNG(11))
		if err != nil {
			t.Fatal(err)
		}
		return a.Run().Nibbles
	}
	pp, er := nibbles(TechPrimeProbe), nibbles(TechEvictReload)
	if pp >= 16 {
		t.Errorf("starved Prime+Probe recovered the full key (%d nibbles)", pp)
	}
	if er <= pp {
		t.Errorf("Evict+Reload (%d nibbles) not ahead of Prime+Probe (%d) when starved", er, pp)
	}
}

// TestAttackDeterminism pins that one (config, seed) is one attack:
// identical runs produce identical results.
func TestAttackDeterminism(t *testing.T) {
	aes := registry.MustGet("aes-128")
	run := func() Result {
		v := aesView(t, dram.MapperXORFold)
		a, err := NewAttack(v, aes, ProbeConfig{Technique: TechPrimeProbe, Budget: 256, Noise: 0.05}, stats.NewRNG(3))
		if err != nil {
			t.Fatal(err)
		}
		return a.Run()
	}
	if r1, r2 := run(), run(); r1 != r2 {
		t.Fatalf("identical runs diverged: %+v vs %+v", r1, r2)
	}
}

// TestStepSteadyStateAllocs pins the allocation-free probe loops at the
// package level; benchtab's -check-trajectory gate re-measures the same
// property per technique through the internal/bench probe workload.
func TestStepSteadyStateAllocs(t *testing.T) {
	aes := registry.MustGet("aes-128")
	for _, tech := range Techniques() {
		v := aesView(t, dram.MapperLinear)
		a, err := NewAttack(v, aes, ProbeConfig{Technique: tech, Budget: 1 << 20, Noise: 0.05}, stats.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			a.Step() // warm-up
		}
		if allocs := testing.AllocsPerRun(100, a.Step); allocs != 0 {
			t.Errorf("%s: %g allocs per Step, want 0", tech, allocs)
		}
	}
}
