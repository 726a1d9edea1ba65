// Differential fault analysis of the LILLIPUT-style SPN, walking the
// precise-to-random fault-model ladder end to end through the registry:
// pick a victim from internal/cipher/registry, a fault model from
// internal/fault, and the registered analyzer from internal/fault/dfa does
// the rest.  Contrast with examples/pfa-key-recovery, the persistent
// route: DFA needs only a couple of dozen correct/faulty pairs, but every
// pair requires a transient fault placed in round 29 at the modelled
// precision — timing control ExplFrame's Rowhammer channel does not offer,
// which is exactly the comparison tables E9 and E17 quantify.
package main

import (
	"bytes"
	"fmt"
	"log"

	"explframe/internal/cipher/registry"
	"explframe/internal/fault/dfa"
	"explframe/internal/stats"
)

func main() {
	const victim = "lilliput-80"
	c := registry.MustGet(victim)
	analyzer := dfa.MustGet(victim)
	rng := stats.NewRNG(7)

	key := make([]byte, c.KeyBytes())
	rng.Bytes(key)
	inst, err := c.New(key)
	if err != nil {
		log.Fatal(err)
	}
	table := c.SBox()

	// Walk the analyzer's ladder, strongest rung first.  Each rung is a
	// declarative fault model; the same loop runs them all.
	for _, m := range analyzer.Ladder() {
		session, err := analyzer.Begin(m)
		if err != nil {
			log.Fatal(err)
		}
		for n := 1; n <= 48; n++ {
			// Collect one correct/faulty pair: a random plaintext, one
			// transient fault drawn from the model and injected at the
			// analyzer's default round (round 29, the last-but-one).
			pairs, err := dfa.CollectPairs(c, inst, table, 1, m, rng)
			if err != nil {
				log.Fatal(err)
			}

			// Fold the pair into the session and read the surviving key
			// space; stop at a unique key.
			if err := session.Add(pairs[0]); err != nil {
				log.Fatal(err)
			}
			res, err := session.Result()
			if err != nil {
				log.Fatal(err)
			}
			if res.Unique {
				fmt.Printf("%-20s unique master key after %2d pairs, correct: %v\n",
					m.Name(), n, bytes.Equal(res.Master, key))
				break
			}
			if n == 48 {
				fmt.Printf("%-20s budget exhausted, %.1f key-space bits left\n", m.Name(), res.KeySpaceBits)
			}
		}
	}
}
