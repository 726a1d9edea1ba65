// Package stats provides the small statistics toolkit used throughout the
// ExplFrame reproduction: a deterministic random number generator, Bernoulli
// confidence intervals and summary statistics.
//
// Everything in the repository that needs randomness takes a *stats.RNG so
// that every experiment is reproducible from a single seed.
package stats

// RNG is a small, fast, deterministic pseudo random number generator based on
// the splitmix64 / xoshiro256** construction.  It is intentionally not
// math/rand so that the sequence is stable across Go releases; experiment
// tables in EXPERIMENTS.md depend on seed stability.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances a 64-bit state and returns the next output.  It is used
// to seed the xoshiro state from a single word.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from the given value.  Two generators
// with the same seed produce identical sequences.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Split returns a new RNG derived from this one, advancing the parent.  Use
// it to give independent deterministic streams to sub-components.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// NewStream returns the index-th independent stream derived from a root
// seed.  Unlike Split, the derivation is keyed purely on (seed, index):
// stream k is the same generator no matter how many other streams exist or
// in which order they are created.  This is the primitive that lets a
// parallel trial harness hand every trial its own reproducible randomness
// regardless of worker count or scheduling order.
//
// The construction whitens the seed through one splitmix64 step, folds the
// index in with an odd multiplier (a bijection over uint64, so distinct
// indices of one seed can never collide), and then seeds the xoshiro state
// from the combined word exactly as NewRNG does.
func NewStream(seed, index uint64) *RNG {
	sm := seed
	splitmix64(&sm)
	sm ^= (index + 1) * 0xd1342543de82ef95
	r := &RNG{}
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// DeriveSeed returns a whitened sub-seed for the labelled component of a
// root seed.  Experiments use it to give each table row or scenario its own
// seed domain so that per-trial streams never collide across rows.
func DeriveSeed(seed, label uint64) uint64 {
	return NewStream(seed, label).Uint64()
}

// FNV64 returns the 64-bit FNV-1a digest of s — the repo's one string-hash
// primitive, shared by canonical-name hashing (scenario and machine specs)
// and name-keyed seed derivation in the experiment drivers.
func FNV64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniformly random int in [0, n).  It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniformly random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Bytes fills b with random bytes.
func (r *RNG) Bytes(b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		v := r.Uint64()
		for k := 0; k < 8; k++ {
			b[i+k] = byte(v >> (8 * k))
		}
	}
	if i < len(b) {
		v := r.Uint64()
		for ; i < len(b); i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}
