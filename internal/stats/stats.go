package stats

import (
	"fmt"
	"math"
	"sort"
)

// Proportion summarises a Bernoulli experiment: k successes out of n trials.
type Proportion struct {
	Successes int
	Trials    int
}

// Observe records one trial.
func (p *Proportion) Observe(success bool) {
	p.Trials++
	if success {
		p.Successes++
	}
}

// Rate returns the empirical success probability, or 0 for no trials.
func (p Proportion) Rate() float64 {
	if p.Trials == 0 {
		return 0
	}
	return float64(p.Successes) / float64(p.Trials)
}

// WilsonCI returns the Wilson score interval for the proportion at the given
// z value (1.96 for 95% confidence).  The Wilson interval behaves sensibly at
// the 0 and 1 boundaries where the normal approximation fails, which matters
// for near-deterministic steering experiments.
func (p Proportion) WilsonCI(z float64) (lo, hi float64) {
	n := float64(p.Trials)
	if n == 0 {
		return 0, 1
	}
	phat := p.Rate()
	z2 := z * z
	den := 1 + z2/n
	center := (phat + z2/(2*n)) / den
	half := z / den * math.Sqrt(phat*(1-phat)/n+z2/(4*n*n))
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// String renders the proportion with its 95% Wilson interval.
func (p Proportion) String() string {
	lo, hi := p.WilsonCI(1.96)
	return fmt.Sprintf("%.3f [%.3f, %.3f] (n=%d)", p.Rate(), lo, hi, p.Trials)
}

// Summary accumulates scalar observations and reports moments and quantiles.
type Summary struct {
	vals   []float64
	sorted bool
}

// Observe records one value.
func (s *Summary) Observe(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

// N returns the number of observations.
func (s *Summary) N() int { return len(s.vals) }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Summary) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 {
	n := len(s.vals)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	sum := 0.0
	for _, v := range s.vals {
		d := v - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(n-1))
}

// Min returns the smallest observation.
func (s *Summary) Min() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	min := s.vals[0]
	for _, v := range s.vals[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// Max returns the largest observation.
func (s *Summary) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	max := s.vals[0]
	for _, v := range s.vals[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// Quantile returns the q-quantile (0 <= q <= 1) using nearest-rank on the
// sorted observations.
func (s *Summary) Quantile(q float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	if q <= 0 {
		return s.vals[0]
	}
	if q >= 1 {
		return s.vals[len(s.vals)-1]
	}
	idx := int(math.Ceil(q*float64(len(s.vals)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s.vals[idx]
}

// String renders mean, std, median and extrema.
func (s *Summary) String() string {
	return fmt.Sprintf("mean=%.3f std=%.3f p50=%.3f min=%.3f max=%.3f n=%d",
		s.Mean(), s.Std(), s.Quantile(0.5), s.Min(), s.Max(), s.N())
}

// Log2 returns log base 2 of x, tolerating x <= 0 by returning 0; used for
// key-space entropy accounting where empty candidate sets mean "recovered".
func Log2(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Log2(x)
}
