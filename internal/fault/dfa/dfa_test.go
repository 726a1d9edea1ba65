package dfa

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"explframe/internal/cipher/aes"
	"explframe/internal/cipher/registry"
	"explframe/internal/fault"
	"explframe/internal/stats"
)

// collectAES builds pairs covering all four columns: state bytes 0..3 at
// the entry of round 9 land in the four distinct MixColumns columns.
func collectAES(t *testing.T, key []byte, perColumn int, rng *stats.RNG) []Pair {
	t.Helper()
	c := registry.MustGet("aes-128")
	inst, err := c.New(key)
	if err != nil {
		t.Fatal(err)
	}
	table := c.SBox()
	var pairs []Pair
	for fb := 0; fb < 4; fb++ {
		m := fault.New(fault.PreciseByte, fault.WithPosition(fb))
		ps, err := CollectPairs(c, inst, table, perColumn, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, ps...)
	}
	return pairs
}

// collectModel draws budget pairs for one cipher under one model.
func collectModel(t *testing.T, cipher string, key []byte, m fault.Model, budget int, rng *stats.RNG) []Pair {
	t.Helper()
	c := registry.MustGet(cipher)
	inst, err := c.New(key)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := CollectPairs(c, inst, c.SBox(), budget, m, rng)
	if err != nil {
		t.Fatal(err)
	}
	return pairs
}

// checkCatalogue reports every way an analyzer table fails the catalogue
// contract: an analyzer whose Cipher is not a canonical name in the cipher
// table, or two analyzers for one cipher.
func checkCatalogue(as []Analyzer) error {
	var errs []error
	seen := map[string]bool{}
	for _, a := range as {
		if c, ok := registry.Get(a.Cipher()); !ok || c.Name() != a.Cipher() {
			errs = append(errs, fmt.Errorf("analyzer cipher %q is not a cipher table name", a.Cipher()))
		}
		key := strings.ToLower(a.Cipher())
		if seen[key] {
			errs = append(errs, fmt.Errorf("two analyzers for %q", a.Cipher()))
		}
		seen[key] = true
	}
	return errors.Join(errs...)
}

// renamed is an analyzer claiming another cipher, for the catalogue check.
type renamed struct {
	aesAnalyzer
	cipher string
}

func (r renamed) Cipher() string { return r.cipher }

// The built-in table is a valid catalogue, and the check catches an
// analyzer for an unknown cipher, for an alias, and a second analyzer.
func TestCatalogueContract(t *testing.T) {
	if err := checkCatalogue(analyzers); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]Analyzer{
		"unknown cipher": renamed{cipher: "des"},
		"alias":          renamed{cipher: "present"},
		"duplicate":      lilliputAnalyzer{},
	} {
		if checkCatalogue(append(slices.Clone(analyzers), bad)) == nil {
			t.Errorf("%s passed the catalogue check", name)
		}
	}
}

func TestRegistryHasBuiltinAnalyzers(t *testing.T) {
	names := Names()
	for _, want := range []string{"aes-128", "lilliput-80"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("Names() = %v, missing %q", names, want)
		}
	}
	// Cipher aliases resolve through the cipher registry.
	if _, ok := Get("aes"); !ok {
		t.Fatal("alias aes did not resolve to the aes-128 analyzer")
	}
	if _, ok := Get("present-80"); ok {
		t.Fatal("present-80 has no analyzer but Get succeeded")
	}
	for _, a := range []Analyzer{MustGet("aes-128"), MustGet("lilliput-80")} {
		if len(a.Ladder()) == 0 {
			t.Fatalf("%s: empty ladder", a.Cipher())
		}
		for _, m := range a.Ladder() {
			if err := a.Supports(m); err != nil {
				t.Fatalf("%s: ladder model %s unsupported: %v", a.Cipher(), m.Name(), err)
			}
		}
	}
}

func TestAESRecoverWithTwoPairsPerColumn(t *testing.T) {
	key := []byte("dfa-test-key-128")
	rng := stats.NewRNG(42)
	pairs := collectAES(t, key, 2, rng)

	res, err := MustGet("aes-128").Analyze(pairs, fault.New(fault.PreciseByte))
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if !res.Unique {
		t.Fatalf("result not unique (remaining %v)", res.Remaining)
	}
	ks, _ := aes.Expand(key)
	k10 := ks.RoundKey(10)
	if !bytes.Equal(res.LastRoundKey, k10[:]) {
		t.Fatalf("K10 = %x want %x", res.LastRoundKey, k10)
	}
	if !bytes.Equal(res.Master, key) {
		t.Fatalf("master = %x want %x", res.Master, key)
	}
	if res.KeySpaceBits != 0 {
		t.Fatalf("unique result reports %v residual bits", res.KeySpaceBits)
	}
}

// One pair per column must narrow the key space but typically not to
// uniqueness: the result should report small per-column candidate counts.
func TestAESOnePairPerColumnNarrowsButInsufficient(t *testing.T) {
	key := []byte("dfa-test-key-two")
	rng := stats.NewRNG(7)
	pairs := collectAES(t, key, 1, rng)

	res, err := MustGet("aes-128").Analyze(pairs, fault.New(fault.PreciseByte))
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if res.Unique {
		// Uniqueness with one pair happens occasionally; accept but verify.
		if !bytes.Equal(res.Master, key) {
			t.Fatalf("unique but wrong: %x", res.Master)
		}
		return
	}
	for c, n := range res.Remaining {
		if n == 0 {
			t.Fatalf("column %d has no candidates", c)
		}
		if n > 100000 {
			t.Fatalf("column %d barely narrowed: %v candidates", c, n)
		}
	}
	if res.KeySpaceBits <= 0 || res.KeySpaceBits >= 128 {
		t.Fatalf("KeySpaceBits = %v, want in (0, 128)", res.KeySpaceBits)
	}
}

// An untouched column must report its full 256^4 candidate space, so the
// key-space size is honest rather than a hard-coded estimate.
func TestAESUntouchedColumnReportsFullSpace(t *testing.T) {
	key := []byte("untouched-key-12")
	c := registry.MustGet("aes-128")
	inst, err := c.New(key)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(11)
	pairs, err := CollectPairs(c, inst, c.SBox(), 1, fault.New(fault.PreciseByte, fault.WithPosition(0)), rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MustGet("aes-128").Analyze(pairs, fault.New(fault.PreciseByte))
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if res.Unique {
		t.Fatal("one pair cannot pin four columns")
	}
	full := 0
	for _, n := range res.Remaining {
		if n == float64(1<<32) {
			full++
		}
	}
	if full != 3 {
		t.Fatalf("%d columns report the full 2^32 space, want 3 (remaining %v)", full, res.Remaining)
	}
	if res.KeySpaceBits <= 96 || res.KeySpaceBits > 128 {
		t.Fatalf("KeySpaceBits = %v, want in (96, 128]", res.KeySpaceBits)
	}
}

// The true key must always survive the intersection, whatever the pair set.
func TestAESTrueKeyAlwaysSurvives(t *testing.T) {
	key := []byte("survival-key-123")
	ks, _ := aes.Expand(key)
	k10 := ks.RoundKey(10)
	rng := stats.NewRNG(19)

	for trial := 0; trial < 5; trial++ {
		pairs := collectAES(t, key, 1, rng)
		for c := 0; c < 4; c++ {
			for _, p := range pairs {
				cand := columnCandidates(p, c)
				if cand == nil {
					continue
				}
				var q quad
				for r := 0; r < 4; r++ {
					q[r] = k10[columnPositions[c][r]]
				}
				if !cand[q] {
					t.Fatalf("trial %d: true quadruple eliminated from column %d", trial, c)
				}
			}
		}
	}
}

func TestAESPairsWithoutFaultCarryNoInformation(t *testing.T) {
	key := []byte("nofault-key-1234")
	ks, _ := aes.Expand(key)
	sb := aes.SBox()
	ct := make([]byte, 16)
	pt := []byte("some plaintext!!")
	aes.EncryptBlock(ks, &sb, ct, pt)
	p := Pair{Correct: ct, Faulty: append([]byte(nil), ct...)} // identical: no fault
	for col := 0; col < 4; col++ {
		if cand := columnCandidates(p, col); cand != nil {
			t.Fatalf("fault-free pair constrained column %d", col)
		}
	}
	res, err := MustGet("aes-128").Analyze([]Pair{p}, fault.New(fault.PreciseByte))
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if res.Unique || res.KeySpaceBits != 128 {
		t.Fatalf("fault-free pair narrowed the space: unique=%v bits=%v", res.Unique, res.KeySpaceBits)
	}
}

// Garbage pairs (random unrelated ciphertexts) should usually violate the
// fault model once intersected with genuine pairs.
func TestAESModelViolationDetected(t *testing.T) {
	key := []byte("violation-key-12")
	rng := stats.NewRNG(23)
	pairs := collectAES(t, key, 2, rng)

	garbage := Pair{Correct: make([]byte, 16), Faulty: make([]byte, 16)}
	rng.Bytes(garbage.Correct)
	rng.Bytes(garbage.Faulty)
	mixed := append(pairs, garbage)

	res, err := MustGet("aes-128").Analyze(mixed, fault.New(fault.PreciseByte))
	if err == nil {
		_ = res // the garbage happened to be consistent; fine
		return
	}
	if !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestAESSupportsRejections(t *testing.T) {
	a := MustGet("aes-128")
	wide := fault.New(fault.RandomBytes, fault.WithWidth(2))
	if err := a.Supports(wide); !errors.Is(err, ErrUnsupportedModel) {
		t.Fatalf("2-byte random fault accepted: %v", err)
	}
	early := fault.New(fault.PreciseByte, withRound(5))
	if err := a.Supports(early); !errors.Is(err, ErrUnsupportedModel) {
		t.Fatalf("round-5 fault accepted: %v", err)
	}
	invalid := fault.Model{Kind: "laser"}
	if err := a.Supports(invalid); err == nil {
		t.Fatal("invalid model accepted")
	}
	if _, err := a.Analyze(nil, wide); !errors.Is(err, ErrUnsupportedModel) {
		t.Fatalf("Analyze skipped the Supports gate: %v", err)
	}
}

func TestCollectPairFaultPropagatesToFourBytes(t *testing.T) {
	key := []byte("prop-key-1234567")
	c := registry.MustGet("aes-128")
	inst, err := c.New(key)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := CollectPairs(c, inst, c.SBox(), 1, fault.New(fault.PreciseByte, fault.WithPosition(0)), stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	p := pairs[0]
	if p.Position != 0 {
		t.Fatalf("Position = %d want 0", p.Position)
	}
	// The plaintext is the first BlockSize bytes the stream draws.
	pt := make([]byte, 16)
	stats.NewRNG(3).Bytes(pt)
	if !bytes.Equal(p.Plaintext, pt) {
		t.Fatalf("Plaintext = %x want %x", p.Plaintext, pt)
	}
	nd := 0
	for i := range p.Correct {
		if p.Correct[i] != p.Faulty[i] {
			nd++
		}
	}
	// Round 0 resolves to the analyzer's round 9, and a round-9
	// single-byte fault spreads to exactly one column = 4 bytes.
	if nd != 4 {
		t.Fatalf("fault affected %d ciphertext bytes, want 4", nd)
	}
	// A pinned last-round fault skips MixColumns and stays in its byte.
	pairs, err = CollectPairs(c, inst, c.SBox(), 1, fault.New(fault.PreciseByte, fault.WithPosition(0), withRound(10)), stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	nd = 0
	for i := range pairs[0].Correct {
		if pairs[0].Correct[i] != pairs[0].Faulty[i] {
			nd++
		}
	}
	if nd != 1 {
		t.Fatalf("round-10 fault affected %d ciphertext bytes, want 1", nd)
	}
}

func TestCollectPairUnknownRound(t *testing.T) {
	c := registry.MustGet("present-80") // no analyzer registered
	inst, err := c.New(make([]byte, 10))
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(1)
	_, err = CollectPairs(c, inst, c.SBox(), 1, fault.New(fault.PreciseByte), rng)
	if err == nil || !strings.Contains(err.Error(), "no registered analyzer") {
		t.Fatalf("want missing-analyzer error, got %v", err)
	}
	// A model that pins its round needs no analyzer.
	m := fault.New(fault.PreciseByte, withRound(30))
	if _, err := CollectPairs(c, inst, c.SBox(), 1, m, rng); err != nil {
		t.Fatalf("pinned-round collection failed: %v", err)
	}
}

// lilliputRecover drives the full ladder loop for one model: collect pairs
// until the analysis pins every nibble or the budget runs out.
func lilliputRecover(t *testing.T, key []byte, m fault.Model, budget int, rng *stats.RNG) (*Result, int) {
	t.Helper()
	a := MustGet("lilliput-80")
	c := registry.MustGet("lilliput-80")
	inst, err := c.New(key)
	if err != nil {
		t.Fatal(err)
	}
	table := c.SBox()
	s, err := a.Begin(m)
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	for n := 1; n <= budget; n++ {
		pairs, err := CollectPairs(c, inst, table, 1, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Add(pairs[0]); err != nil {
			t.Fatalf("pair %d: %v", n, err)
		}
		if res, err = s.Result(); err != nil {
			t.Fatalf("pair %d: %v", n, err)
		}
		if res.Unique {
			return res, n
		}
	}
	return res, budget
}

func TestLilliputLadderRecoversKey(t *testing.T) {
	key := []byte("lil-dfa-80")
	a := MustGet("lilliput-80")
	for _, m := range a.Ladder() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			if testing.Short() && m.Kind == fault.RandomBytes {
				t.Skip("random-fault hypothesis sweep is slow")
			}
			rng := stats.NewRNG(stats.FNV64(m.Name()))
			res, used := lilliputRecover(t, key, m, 40, rng)
			if !res.Unique {
				t.Fatalf("no unique key within 40 pairs (%.1f bits left)", res.KeySpaceBits)
			}
			if !bytes.Equal(res.Master, key) {
				t.Fatalf("master = %x want %x (after %d pairs)", res.Master, key, used)
			}
			t.Logf("%s: unique after %d pairs", m.Name(), used)
		})
	}
}

// Precision must never hurt: at a fixed small budget, the precise-bit model
// cannot leave a larger key space than the nibble model on the same seed.
func TestLilliputPrecisionMonotoneAtSmallBudget(t *testing.T) {
	key := []byte("ladder-key")
	const budget = 2
	bitsFor := func(m fault.Model) float64 {
		rng := stats.NewRNG(99)
		pairs := collectModel(t, "lilliput-80", key, m, budget, rng)
		res, err := MustGet("lilliput-80").Analyze(pairs, m)
		if err != nil {
			t.Fatal(err)
		}
		return res.KeySpaceBits
	}
	precise := bitsFor(fault.New(fault.PreciseBit))
	nibble := bitsFor(fault.New(fault.Nibble))
	if precise > nibble {
		t.Fatalf("precise-bit left %.1f bits > nibble's %.1f at the same budget", precise, nibble)
	}
}

func TestLilliputTrueKeySurvivesEveryModel(t *testing.T) {
	key := []byte("truth-key1")
	c := registry.MustGet("lilliput-80")
	a := MustGet("lilliput-80")
	inst, err := c.New(key)
	if err != nil {
		t.Fatal(err)
	}
	// The true k' nibble values every candidate set must contain.
	ctProbe := make([]byte, 8)
	inst.Encrypt(c.SBox(), ctProbe, make([]byte, 8))
	ladder := a.Ladder()
	if testing.Short() {
		ladder = ladder[:3]
	}
	for _, m := range ladder {
		rng := stats.NewRNG(stats.FNV64("survive-" + m.Name()))
		pairs := collectModel(t, "lilliput-80", key, m, 12, rng)
		res, err := a.Analyze(pairs, m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if res.Unique && !bytes.Equal(res.Master, key) {
			t.Fatalf("%s: converged to the wrong key %x", m.Name(), res.Master)
		}
		if !res.Unique {
			for i, n := range res.Remaining {
				if n == 0 {
					t.Fatalf("%s: nibble %d lost all candidates", m.Name(), i)
				}
			}
		}
	}
}

func TestLilliputSupportsRejections(t *testing.T) {
	a := MustGet("lilliput-80")
	wide := fault.New(fault.RandomBytes, fault.WithWidth(3))
	if err := a.Supports(wide); !errors.Is(err, ErrUnsupportedModel) {
		t.Fatalf("3-byte random fault accepted: %v", err)
	}
	early := fault.New(fault.Nibble, withRound(10))
	if err := a.Supports(early); !errors.Is(err, ErrUnsupportedModel) {
		t.Fatalf("round-10 fault accepted: %v", err)
	}
}

func TestLilliputGarbagePairRejected(t *testing.T) {
	key := []byte("garbage-ki")
	m := fault.New(fault.Nibble)
	rng := stats.NewRNG(5)
	pairs := collectModel(t, "lilliput-80", key, m, 8, rng)
	garbage := Pair{Correct: make([]byte, 8), Faulty: make([]byte, 8), Position: 0}
	rng.Bytes(garbage.Correct)
	rng.Bytes(garbage.Faulty)
	_, err := MustGet("lilliput-80").Analyze(append(pairs, garbage), m)
	if err == nil {
		return // consistent by luck; fine
	}
	if !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestSpaceBits(t *testing.T) {
	if b := spaceBits([]float64{16, 16, 1}); math.Abs(b-8) > 1e-12 {
		t.Fatalf("spaceBits = %v want 8", b)
	}
	if b := spaceBits(nil); b != 0 {
		t.Fatalf("spaceBits(nil) = %v want 0", b)
	}
}

// withRound pins a fault model to the entry of a 1-based round.
func withRound(r int) fault.Option { return func(m *fault.Model) { m.Round = r } }
