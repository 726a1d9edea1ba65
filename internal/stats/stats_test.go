package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequences diverged at step %d", i)
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical prefixes")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(1)
	s1 := parent.Split()
	s2 := parent.Split()
	same := true
	for i := 0; i < 10; i++ {
		if s1.Uint64() != s2.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("split streams identical")
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
		sum += f
	}
	if mean := sum / n; mean < 0.49 || mean > 0.51 {
		t.Fatalf("Float64 mean %f far from 0.5", mean)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(11)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("bad permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGBytesFillsEverything(t *testing.T) {
	r := NewRNG(13)
	for _, n := range []int{0, 1, 7, 8, 9, 64, 100} {
		b := make([]byte, n)
		r.Bytes(b)
		if n >= 16 {
			allZero := true
			for _, v := range b {
				if v != 0 {
					allZero = false
				}
			}
			if allZero {
				t.Fatalf("Bytes(%d) left buffer zero", n)
			}
		}
	}
}

func TestProportion(t *testing.T) {
	var p Proportion
	if p.Rate() != 0 {
		t.Fatal("empty proportion rate")
	}
	lo, hi := p.WilsonCI(1.96)
	if lo != 0 || hi != 1 {
		t.Fatal("empty proportion CI must be [0,1]")
	}
	for i := 0; i < 80; i++ {
		p.Observe(true)
	}
	for i := 0; i < 20; i++ {
		p.Observe(false)
	}
	if p.Rate() != 0.8 {
		t.Fatalf("rate = %f", p.Rate())
	}
	lo, hi = p.WilsonCI(1.96)
	if lo >= 0.8 || hi <= 0.8 || lo < 0.70 || hi > 0.88 {
		t.Fatalf("CI [%f,%f] implausible for 80/100", lo, hi)
	}
	if p.String() == "" {
		t.Fatal("empty string")
	}
}

// Wilson CI must always contain the point estimate and stay within [0,1].
func TestWilsonCIProperty(t *testing.T) {
	f := func(succ, extra uint8) bool {
		var p Proportion
		n := int(succ) + int(extra)
		if n == 0 {
			return true
		}
		for i := 0; i < int(succ); i++ {
			p.Observe(true)
		}
		for i := 0; i < int(extra); i++ {
			p.Observe(false)
		}
		lo, hi := p.WilsonCI(1.96)
		r := p.Rate()
		return lo >= 0 && hi <= 1 && lo <= r+1e-12 && hi >= r-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Std() != 0 || s.Min() != 0 || s.Max() != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("empty summary must be all zeros")
	}
	for _, v := range []float64{4, 1, 3, 2, 5} {
		s.Observe(v)
	}
	if s.N() != 5 || s.Mean() != 3 || s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("summary wrong: %s", s.String())
	}
	if q := s.Quantile(0.5); q != 3 {
		t.Fatalf("median = %f", q)
	}
	if q := s.Quantile(0); q != 1 {
		t.Fatalf("q0 = %f", q)
	}
	if q := s.Quantile(1); q != 5 {
		t.Fatalf("q1 = %f", q)
	}
	want := math.Sqrt(2.5)
	if d := math.Abs(s.Std() - want); d > 1e-12 {
		t.Fatalf("std = %f want %f", s.Std(), want)
	}
}

func TestLog2(t *testing.T) {
	if Log2(8) != 3 {
		t.Fatal("log2(8)")
	}
	if Log2(0) != 0 || Log2(-3) != 0 {
		t.Fatal("log2 of non-positive must be 0")
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(31)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.29 || frac > 0.31 {
		t.Fatalf("Bool(0.3) rate %f", frac)
	}
}
