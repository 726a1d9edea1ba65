package main

import (
	"fmt"
	"math"

	"explframe/internal/fault"
	"explframe/internal/scenario"
	"explframe/internal/stats"
)

// workload is one named set of inputs.  Its work per run is a fixed,
// seeded set of trials run to completion: --seconds scales the number of
// rounds (unitsPerSecond rounds per second asked for), never a timer,
// because trial costs are heavy-tailed and a time box would change the mix.
type workload struct {
	name           string
	unitsPerSecond float64
	run            func(cfg runConfig) (result, error)
}

var workloads = []workload{
	{name: "attack", unitsPerSecond: 0.52, run: runAttack},
	{name: "crypto", unitsPerSecond: 1, run: runCrypto},
	{name: "service", unitsPerSecond: 12, run: runService},
}

// runConfig carries the command line into a workload.
type runConfig struct {
	seed    uint64
	trace   bool
	rounds  int
	spanOut string // where a traced run writes its spans
}

// rounds converts the run length into the workload's unit count.
func (w workload) rounds(seconds int) int {
	return max(1, int(math.Ceil(float64(seconds)*w.unitsPerSecond)))
}

// perRound scales per-round weights to trial counts, at least one each.
func perRound(weights []float64, rounds int) []int {
	out := make([]int, len(weights))
	for i, w := range weights {
		out[i] = max(1, int(math.Ceil(w*float64(rounds)-1e-9)))
	}
	return out
}

// specSeed derives spec i's seed from the workload seed, so every spec of
// every workload draws from its own stream.
func specSeed(seed uint64, workload string, i int) uint64 {
	return stats.FNV64(fmt.Sprintf("perfbench/%s/%d/%d", workload, seed, i))
}

// seeded gives each spec its derived seed, a trial count and a label.
func seeded(specs []scenario.Spec, seed uint64, workload string, trials []int) []scenario.Spec {
	out := make([]scenario.Spec, len(specs))
	for i, s := range specs {
		out[i] = s.With(
			scenario.WithSeed(specSeed(seed, workload, i)),
			scenario.WithTrials(trials[i]),
			scenario.WithLabel(fmt.Sprintf("%s-%d", workload, i)))
	}
	return out
}

// attackWeights is the trials per round of each attack spec.  Trial costs
// form clusters (fast-machine AES ~150 ms with a 7% spread, LILLIPUT ~270,
// PRESENT 300-750, default-machine AES ~450); with equal weights the
// median fell on the gap between two clusters and moved by a tenth between
// seeds.  Five AES trials in eight put it inside the tightest cluster.
var attackWeights = []float64{5, 1, 1, 1}

// attackCampaign is the full ExplFrame pipeline: the three ciphers on the
// 32 MiB fast machine plus AES on the 256 MiB default machine.
func attackCampaign(seed uint64, rounds int) scenario.Campaign {
	specs := []scenario.Spec{
		scenario.New(scenario.WithProfile(scenario.ProfileFast), scenario.WithCipher("aes-128")),
		scenario.New(scenario.WithProfile(scenario.ProfileFast), scenario.WithCipher("present-80")),
		scenario.New(scenario.WithProfile(scenario.ProfileFast), scenario.WithCipher("lilliput-80")),
		scenario.New(scenario.WithProfile(scenario.ProfileDefault), scenario.WithCipher("aes-128")),
	}
	return scenario.Campaign{Name: fmt.Sprintf("perfbench-attack-seed%d", seed), Specs: seeded(specs, seed, "attack", perRound(attackWeights, rounds))}
}

// cryptoWeights is the trials per round of each crypto spec.  Trial costs
// differ by three orders of magnitude and the PRESENT PFA and LILLIPUT DFA
// costs are heavy-tailed (coefficient of variation 0.6 and 0.8, LILLIPUT
// DFA up to 2.7 s), so their share of the run sets the seed-to-seed spread
// of every per-trial mean: the cheap, steady AES specs run most often, and
// LILLIPUT DFA runs once per 25 rounds.
var cryptoWeights = []float64{16, 1, 2, 4, 0.04}

// cryptoCampaign is crypto-only fault analysis: PFA on all three ciphers,
// DFA on AES with precise-byte faults and on LILLIPUT with nibble faults
// at a 40-pair budget.
func cryptoCampaign(seed uint64, rounds int) scenario.Campaign {
	pfa := func(c string) scenario.Spec {
		return scenario.New(scenario.WithKind(scenario.PFA), scenario.WithCipher(c))
	}
	specs := []scenario.Spec{
		pfa("aes-128"), pfa("present-80"), pfa("lilliput-80"),
		scenario.New(scenario.WithCipher("aes-128"), scenario.WithFaultModel(fault.New(fault.PreciseByte))),
		scenario.New(scenario.WithCipher("lilliput-80"), scenario.WithFaultModel(fault.New(fault.Nibble)), scenario.WithBudget(40)),
	}
	return scenario.Campaign{Name: fmt.Sprintf("perfbench-crypto-seed%d", seed), Specs: seeded(specs, seed, "crypto", perRound(cryptoWeights, rounds))}
}

// serviceCampaigns are n small campaigns, each mixing the two cheap
// cache-probe techniques with a Steering-kind spec under fresh seeds, so
// no two share a content-derived id and none is served from the journal
// without running.
func serviceCampaigns(seed uint64, n int) []scenario.Campaign {
	out := make([]scenario.Campaign, n)
	for i := range out {
		specs := []scenario.Spec{
			scenario.New(scenario.WithProbe("page-cache")),
			scenario.New(scenario.WithProbe("evict-reload"), scenario.WithBudget(1024)),
			scenario.New(scenario.WithKind(scenario.Steering)),
		}
		trials := []int{4, 2, 4}
		out[i] = scenario.Campaign{
			Name:  fmt.Sprintf("perfbench-service-seed%d-%d", seed, i),
			Specs: seeded(specs, seed, fmt.Sprintf("service-%d", i), trials),
		}
	}
	return out
}
