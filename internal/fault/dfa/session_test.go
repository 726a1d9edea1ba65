package dfa

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"explframe/internal/cipher/registry"
	"explframe/internal/fault"
	"explframe/internal/stats"
)

// sameOutcome fails the test unless a session's result and error equal the
// oracle's: the same *Result under reflect.DeepEqual and the same error.
func sameOutcome(t *testing.T, what string, got *Result, gotErr error, want *Result, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, oracle %v", what, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result %+v, oracle %+v", what, got, want)
	}
}

// checkSession adds the pairs to one session and, after every Add, holds
// its Result to the oracle's analysis of the same prefix.
func checkSession(t *testing.T, cipher string, pairs []Pair, m fault.Model) {
	t.Helper()
	s, err := MustGet(cipher).Begin(m)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= len(pairs); n++ {
		addErr := s.Add(pairs[n-1])
		got, gotErr := s.Result()
		want, wantErr := oracle(cipher, pairs[:n], m)
		what := fmt.Sprintf("%s %s after %d pairs", cipher, m.Name(), n)
		sameOutcome(t, what, got, gotErr, want, wantErr)
		if addErr != nil && addErr != gotErr {
			t.Fatalf("%s: Add failed with %v but Result reports %v", what, addErr, gotErr)
		}
	}
}

// sessionBudget is how many honest pairs the differential test feeds each
// ladder rung: enough for AES to pin most columns and for LILLIPUT to
// reach the end-game or a unique key on the precise rungs.
var sessionBudget = map[string]int{"aes-128": 12, "lilliput-80": 30}

// TestSessionMatchesOracle is the differential pin: for both analyzers
// and every ladder rung, a session fed pairs one at a time reports after
// each Add exactly what the from-scratch oracle reports for that prefix —
// on honest pairs, and on the same pairs with a garbage pair spliced in
// and a truncated pair at the end, so sticky errors are pinned too.
func TestSessionMatchesOracle(t *testing.T) {
	for _, name := range Names() {
		for _, m := range MustGet(name).Ladder() {
			name, m := name, m
			t.Run(name+"/"+m.Name(), func(t *testing.T) {
				c := registry.MustGet(name)
				rng := stats.NewRNG(stats.FNV64("session-" + name + m.Name()))
				key := make([]byte, c.KeyBytes())
				rng.Bytes(key)
				pairs := collectModel(t, name, key, m, sessionBudget[name], rng)
				checkSession(t, name, pairs, m)

				garbage := Pair{Correct: make([]byte, c.BlockSize()), Faulty: make([]byte, c.BlockSize())}
				rng.Bytes(garbage.Correct)
				rng.Bytes(garbage.Faulty)
				short := pairs[0]
				short.Faulty = short.Faulty[:c.BlockSize()-1]
				tampered := append(append(append([]Pair{}, pairs[:3]...), garbage), pairs[3:6]...)
				checkSession(t, name, append(tampered, short), m)
			})
		}
	}
}

// TestMalformedPairsRejected: a nil, short, long or length-mismatched pair
// is an error from both analyzers — from Add, from every later Result and
// from Analyze — never a panic.
func TestMalformedPairsRejected(t *testing.T) {
	for _, name := range Names() {
		bs := registry.MustGet(name).BlockSize()
		block := func(n int) []byte { return make([]byte, n) }
		bad := map[string]Pair{
			"nil":             {},
			"short":           {Correct: block(bs / 2), Faulty: block(bs / 2)},
			"short faulty":    {Correct: block(bs), Faulty: block(bs - 1)},
			"long correct":    {Correct: block(bs + 1), Faulty: block(bs)},
			"short plaintext": {Plaintext: block(bs - 1), Correct: block(bs), Faulty: block(bs)},
		}
		for label, p := range bad {
			m := fault.New(fault.PreciseByte, fault.WithPosition(0))
			if _, err := MustGet(name).Analyze([]Pair{p}, m); err == nil {
				t.Errorf("%s %s pair: Analyze accepted it", name, label)
			}
			s, err := MustGet(name).Begin(m)
			if err != nil {
				t.Fatal(err)
			}
			addErr := s.Add(p)
			if addErr == nil {
				t.Errorf("%s %s pair: Add accepted it", name, label)
				continue
			}
			if _, err := s.Result(); !errors.Is(err, addErr) {
				t.Errorf("%s %s pair: Result after a failed Add reports %v, want %v", name, label, err, addErr)
			}
			if err := s.Add(Pair{Correct: block(bs), Faulty: block(bs)}); !errors.Is(err, addErr) {
				t.Errorf("%s %s pair: Add after a failed Add reports %v, want %v", name, label, err, addErr)
			}
		}
	}
}

// FuzzDFASession holds the session to the oracle on fuzzed pair streams:
// honest pairs for one ladder rung of every analyzer, then tampered by
// 3-byte instructions (pair, op, value) that flip ciphertext bytes, move
// the reported fault position or truncate a ciphertext.  After every Add
// the session must report what the oracle reports for that prefix.  Run
// with: go test -fuzz=FuzzDFASession ./internal/fault/dfa
func FuzzDFASession(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(8), []byte{})
	f.Add(uint64(7), uint8(0), uint8(5), []byte{3, 0x05, 0x40})
	f.Add(uint64(42), uint8(1), uint8(9), []byte{1, 0x83, 0x00, 4, 0x47, 0x01})
	f.Add(uint64(9), uint8(4), uint8(3), []byte{0, 0x20, 0x7f})
	f.Fuzz(func(t *testing.T, seed uint64, rung, budget uint8, tamper []byte) {
		for _, name := range Names() {
			c := registry.MustGet(name)
			ladder := MustGet(name).Ladder()
			m := ladder[int(rung)%len(ladder)]
			rng := stats.NewStream(seed, stats.FNV64(name))
			key := make([]byte, c.KeyBytes())
			rng.Bytes(key)
			pairs := collectModel(t, name, key, m, 1+int(budget)%10, rng)
			bs := c.BlockSize()
			for i := 0; i+2 < len(tamper); i += 3 {
				p := &pairs[int(tamper[i])%len(pairs)]
				op, v := tamper[i+1], tamper[i+2]
				switch {
				case op&0x80 != 0:
					p.Faulty = p.Faulty[:int(v)%bs]
				case op&0x20 != 0:
					p.Position = int(int8(v))
				case op&0x40 != 0:
					p.Correct = flipped(p.Correct, int(op), v)
				default:
					p.Faulty = flipped(p.Faulty, int(op), v)
				}
			}
			checkSession(t, name, pairs, m)
		}
	})
}

// flipped returns a copy of b with v XORed into byte i mod len(b).
func flipped(b []byte, i int, v byte) []byte {
	b = append([]byte(nil), b...)
	if len(b) > 0 {
		b[i%len(b)] ^= v
	}
	return b
}
