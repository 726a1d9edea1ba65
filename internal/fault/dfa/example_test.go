package dfa_test

import (
	"bytes"
	"fmt"

	"explframe/internal/cipher/registry"
	"explframe/internal/fault"
	"explframe/internal/fault/dfa"
	"explframe/internal/stats"
)

// ExampleAnalyzer is the examples/dfa-lilliput walkthrough in miniature: a
// round-29 nibble fault on the LILLIPUT-style SPN, collected and analysed
// entirely through the registry — swap the cipher name and fault model and
// the same loop runs any registered analyzer's ladder.
func ExampleAnalyzer() {
	c := registry.MustGet("lilliput-80")
	analyzer := dfa.MustGet("lilliput-80")
	rng := stats.NewRNG(7)

	key := make([]byte, c.KeyBytes())
	rng.Bytes(key)
	inst, err := c.New(key)
	if err != nil {
		panic(err)
	}
	table := c.SBox()

	// One rung of the ladder: a transient fault in one nibble, anywhere in
	// the round-29 state.
	m := fault.New(fault.Nibble)
	session, err := analyzer.Begin(m)
	if err != nil {
		panic(err)
	}
	for n := 1; n <= 48; n++ {
		pairs, err := dfa.CollectPairs(c, inst, table, 1, m, rng)
		if err != nil {
			panic(err)
		}
		if err := session.Add(pairs[0]); err != nil {
			panic(err)
		}
		res, err := session.Result()
		if err != nil {
			panic(err)
		}
		if res.Unique {
			fmt.Printf("unique master key after %d pairs, correct: %v\n", n, bytes.Equal(res.Master, key))
			return
		}
	}
	fmt.Println("budget exhausted")
	// Output: unique master key after 27 pairs, correct: true
}
