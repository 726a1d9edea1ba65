// Package dfa implements differential fault analysis behind a per-cipher
// Analyzer table, mirroring how internal/fault/pfa runs one collector
// over every victim in internal/cipher/registry.
//
// An Analyzer owns the differential equations of one cipher's final rounds
// and evaluates them under a declarative fault.Model — the precise-to-random
// ladder of "From Precise to Random: A Systematic DFA of LILLIPUT"
// (PAPERS.md).  The built-in analyzers are the classical Piret–Quisquater
// attack on AES-128 (aes.go) and the round-29 ladder analysis of the
// LILLIPUT-style SPN (lilliput.go); adding one means implementing Analyzer
// and listing it in the analyzers table, exactly like adding a victim
// cipher.
//
// DFA serves as the baseline the paper's persistent-fault route is compared
// against (experiments E9 and E17): DFA needs only a handful of
// correct/faulty ciphertext pairs but demands a precisely timed transient
// fault — which Rowhammer cannot deliver, and which the ladder shows
// degrading as precision drops — whereas PFA needs thousands of ciphertexts
// but only one persistent bit flip anywhere in the S-box table, which is
// exactly what ExplFrame produces.
package dfa

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"explframe/internal/cipher/registry"
	"explframe/internal/fault"
	"explframe/internal/stats"
)

// Pair is one correct/faulty ciphertext pair for the same plaintext.
type Pair struct {
	// Plaintext is the (known) plaintext both ciphertexts encrypt; analyzers
	// that cannot invert the key schedule from the last round key alone use
	// it to complete the master key.  It may be nil, which skips completion.
	Plaintext []byte
	// Correct and Faulty are the fault-free and faulted ciphertexts.
	Correct, Faulty []byte
	// Position reports where the injected fault landed, in the fault
	// model's units (bit, nibble or byte index over the byte-form block),
	// for the "precise" kinds whose position is known to the attacker —
	// fault.Anywhere when the model hides it (random-bytes).
	Position int
}

// Result reports the outcome of one Analyze call.
type Result struct {
	// LastRoundKey is the recovered final-round key in the cipher's byte
	// form (valid when Unique).
	LastRoundKey []byte
	// Master is the completed master key (valid when Unique; nil when the
	// cipher needs a known plaintext the pairs did not carry).
	Master []byte
	// Unique reports whether the analysis pinned a single key: every key
	// group converged to one candidate, or the analyzer finished a tiny
	// residual space by enumerating it against a known plaintext.
	Unique bool
	// Remaining[g] is the exact number of last-round-key candidates still
	// standing in independent key group g (a MixColumns column quadruple
	// for AES, one 4-bit nibble for the 64-bit SPNs).  Groups the pairs
	// never constrained report their full space — 256^4 for an AES column,
	// 16 for a nibble — so the product over groups is always the true
	// surviving key-space size.
	Remaining []float64
	// KeySpaceBits is log2 of that product: the surviving last-round-key
	// space in bits, the ladder's figure of merit.
	KeySpaceBits float64
}

// ErrNoCandidates reports pairs inconsistent with the fault model: some key
// group has no surviving candidate.
var ErrNoCandidates = errors.New("dfa: no key candidates survive, pairs violate the fault model")

// ErrUnsupportedModel reports a fault model outside what an analyzer's
// differential equations cover.
var ErrUnsupportedModel = errors.New("dfa: fault model unsupported by this analyzer")

// Analyzer owns one cipher's differential fault equations.
type Analyzer interface {
	// Cipher is the canonical registry name of the cipher analyzed.
	Cipher() string
	// DefaultRound is the 1-based round at whose entry every fault lands:
	// the only round the analyzer's differential equations hold at.
	DefaultRound() int
	// Supports reports whether the analyzer's equations cover the model
	// (nil) or why not (wrapping ErrUnsupportedModel).
	Supports(m fault.Model) error
	// Ladder returns the supported fault models strongest-first — the rows
	// of a precise-to-random key-space table.
	Ladder() []fault.Model
	// Begin opens an incremental analysis under model m: pairs added to
	// the session one at a time narrow the same key space Analyze reports
	// for all of them, without re-deriving earlier pairs' constraints.  It
	// fails when the model is unsupported.
	Begin(m fault.Model) (Session, error)
	// Analyze intersects the key constraints of the pairs, all collected
	// under model m, and reports the surviving key space: Begin, Add every
	// pair, then Result.  A non-unique outcome is a Result with Unique
	// false, not an error; errors mean the model is unsupported or the
	// pairs contradict it.
	Analyze(pairs []Pair, m fault.Model) (*Result, error)
}

// Session is one incremental analysis: after n calls to Add, Result
// reports exactly what Analyze reports for those n pairs.  A Session is
// not safe for concurrent use.
type Session interface {
	// Add folds one more pair into the key constraints.  It fails on a
	// malformed pair or one the model cannot explain; the first failure
	// sticks, and every later Add and Result returns it.
	Add(p Pair) error
	// Result reports the key space the pairs added so far leave.  It does
	// not change the session, so Add may follow it.
	Result() (*Result, error)
}

// analyze is every analyzer's Analyze: one session fed all the pairs.
func analyze(a Analyzer, pairs []Pair, m fault.Model) (*Result, error) {
	s, err := a.Begin(m)
	if err != nil {
		return nil, err
	}
	for _, p := range pairs {
		if err := s.Add(p); err != nil {
			return nil, err
		}
	}
	return s.Result()
}

// checkPair rejects a pair whose ciphertexts, and plaintext when present,
// are not each one block of the named cipher; i is the pair's 0-based
// index in the analysis.
func checkPair(i int, p Pair, cipher string, blockSize int) error {
	if len(p.Correct) != blockSize || len(p.Faulty) != blockSize {
		return fmt.Errorf("pair %d: dfa: %s pair needs %d-byte ciphertexts, got %d and %d",
			i, cipher, blockSize, len(p.Correct), len(p.Faulty))
	}
	if p.Plaintext != nil && len(p.Plaintext) != blockSize {
		return fmt.Errorf("pair %d: dfa: %s pair needs a %d-byte plaintext or none, got %d",
			i, cipher, blockSize, len(p.Plaintext))
	}
	return nil
}

// analyzers is the fixed analyzer table, one per cipher.
var analyzers = []Analyzer{aesAnalyzer{}, lilliputAnalyzer{}}

// Get looks an analyzer up by its cipher's name or alias.
func Get(cipher string) (Analyzer, bool) {
	key := strings.ToLower(cipher)
	if c, ok := registry.Get(cipher); ok {
		key = strings.ToLower(c.Name())
	}
	for _, a := range analyzers {
		if strings.ToLower(a.Cipher()) == key {
			return a, true
		}
	}
	return nil, false
}

// MustGet is Get for built-in-by-construction names; it panics on a miss.
func MustGet(cipher string) Analyzer {
	a, ok := Get(cipher)
	if !ok {
		panic(fmt.Sprintf("dfa: no analyzer registered for cipher %q", cipher))
	}
	return a
}

// Names returns the cipher names with an analyzer, sorted.
func Names() []string {
	out := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		out = append(out, strings.ToLower(a.Cipher()))
	}
	sort.Strings(out)
	return out
}

// faultRound resolves the round a fault injects into: the DefaultRound of
// c's analyzer.
func faultRound(c registry.Cipher) (int, error) {
	a, ok := Get(c.Name())
	if !ok {
		return 0, fmt.Errorf("dfa: cipher %q has no registered analyzer to fix the fault round", c.Name())
	}
	return a.DefaultRound(), nil
}

// CollectPairs produces n correct/faulty pairs under the fault model,
// batching all encryptions through the Instance batch API (bitsliced for
// full 64-lane chunks of the built-in ciphers).  Each pair draws its
// randomness in turn — a BlockSize-byte plaintext first, then the model's
// unpinned choices (position first when unpinned, then fault values) —
// which is the order the results book pins, so n calls with n=1 draw what
// one call with n draws; the encryptions consume no randomness.  The fault
// lands at the DefaultRound of the cipher's analyzer, and a pair records
// the fault position when the model exposes it.
func CollectPairs(c registry.Cipher, inst registry.Instance, table []byte, n int, m fault.Model, rng *stats.RNG) ([]Pair, error) {
	round, err := faultRound(c)
	if err != nil {
		return nil, err
	}
	bs := c.BlockSize()
	pairs := make([]Pair, n)
	pts := make([][]byte, n)
	correct := make([][]byte, n)
	faulty := make([][]byte, n)
	masks := make([][]byte, n)
	for i := 0; i < n; i++ {
		pt := make([]byte, bs)
		rng.Bytes(pt)
		inj, err := m.Draw(rng, bs)
		if err != nil {
			return nil, err
		}
		pairs[i] = Pair{
			Plaintext: pt,
			Correct:   make([]byte, bs),
			Faulty:    make([]byte, bs),
			Position:  inj.Position,
		}
		pts[i] = pt
		correct[i] = pairs[i].Correct
		faulty[i] = pairs[i].Faulty
		masks[i] = inj.Mask
	}
	inst.EncryptBatch(table, correct, pts)
	inst.EncryptWithFaultBatch(table, faulty, pts, round, masks)
	return pairs, nil
}

// spaceBits folds per-group candidate counts into the surviving key-space
// size in bits.
func spaceBits(remaining []float64) float64 {
	bits := 0.0
	for _, r := range remaining {
		if r > 0 {
			bits += math.Log2(r)
		}
	}
	return bits
}
