package experiments

import (
	"fmt"

	"explframe/internal/core"
	"explframe/internal/harness"
	"explframe/internal/mm"
	"explframe/internal/report"
	"explframe/internal/stats"
)

// E1Buddy exercises the buddy allocator under a churn workload and reports
// split/coalesce activity and external fragmentation over time (Fig. 1's
// mechanism in motion).
func E1Buddy(seed uint64, _ ...harness.Option) (*Table, error) {
	cfg := mm.DefaultConfig()
	cfg.TotalBytes = 64 << 20
	pm, err := mm.New(cfg)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed)

	t := &Table{
		ID:    "E1",
		Title: "buddy allocator: splits, coalesces, fragmentation under churn",
		Claim: "Sec. IV: blocks split in powers of two and coalesce with free buddies on release",
		Columns: []report.Column{
			{Name: "ops"}, {Name: "live_blocks"}, {Name: "free_pages", Unit: "pages"},
			{Name: "splits"}, {Name: "coalesces"}, {Name: "frag@order8", Unit: "fraction"},
			{Name: "largest_order"},
		},
	}

	type block struct {
		p     mm.PFN
		order int
	}
	var live []block
	const totalOps = 30000
	for op := 1; op <= totalOps; op++ {
		if rng.Bool(0.55) || len(live) == 0 {
			order := rng.Intn(6)
			p, err := pm.AllocPages(0, order)
			if err == nil {
				live = append(live, block{p, order})
			}
		} else {
			i := rng.Intn(len(live))
			if err := pm.FreePages(0, live[i].p, live[i].order); err != nil {
				return nil, err
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if op%5000 == 0 {
			if err := pm.CheckInvariants(); err != nil {
				return nil, fmt.Errorf("invariant violated at op %d: %v", op, err)
			}
			st := pm.Stats(mm.ZoneDMA32)
			t.AddRow(
				report.Int(op),
				report.Int(len(live)),
				report.Uint(pm.FreePagesInZone(mm.ZoneDMA32)),
				report.Uint(st.Splits),
				report.Uint(st.Coalesces),
				f3(pm.ExternalFragmentation(mm.ZoneDMA32, 8)),
				report.Int(pm.LargestFreeOrder(mm.ZoneDMA32)),
			)
		}
	}
	t.Notes = append(t.Notes,
		"orders 0-5 uniformly, 55% alloc bias; invariants checked every 5000 ops",
		"fragmentation rises under churn while coalescing keeps the largest order available")
	t.Expect(report.Qualitative(
		"buddy blocks split in powers of two and coalesce with free buddies",
		"mechanism claim, no reported figure", "Sec. IV"))
	return t, nil
}

// E2SelfReuse measures the probability that a process gets its own recently
// freed frames back as a function of request size (Section V's
// "probability of almost 1" claim) for three pcp batch sizes.
func E2SelfReuse(seed uint64, opts ...harness.Option) (*Table, error) {
	t := &Table{
		ID:    "E2",
		Title: "page frame cache self-reuse probability vs request size",
		Claim: "Sec. V: \"with a probability of almost 1, if the process requests for a few pages, the recently deallocated page frames will be reallocated\"",
		Columns: []report.Column{
			{Name: "request_pages", Unit: "pages"},
			{Name: "reuse(batch=16)", Unit: "fraction"},
			{Name: "reuse(batch=31)", Unit: "fraction"},
			{Name: "reuse(batch=64)", Unit: "fraction"},
		},
	}
	requests := []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	batches := []int{16, 31, 64}
	const trials = 8
	const freed = 8

	cell := 0
	for _, req := range requests {
		row := []report.Cell{report.Int(req)}
		for _, batch := range batches {
			request, pcpBatch := req, batch
			fracs, err := harness.RunTrials(stats.DeriveSeed(seed, label(2, uint64(cell))), trials,
				func(_ int, rng *stats.RNG) (float64, error) {
					mc := core.DefaultSteeringConfig().Machine
					mc.PCPBatch = pcpBatch
					mc.PCPHigh = pcpBatch * 6
					return core.SelfReuseTrial(rng.Uint64(), mc, freed, request)
				}, opts...)
			if err != nil {
				return nil, err
			}
			cell++
			sum := 0.0
			for _, frac := range fracs {
				sum += frac
			}
			row = append(row, f3(sum/trials))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d freed pages, %d trials per cell; reuse = freed frames reallocated to the same process", freed, trials),
		"reuse stays ~1.0 for small requests and holds while the cache (plus batch refills) covers the request")
	t.Expect(report.Expectation{
		Metric: "self-reuse probability, 1-page request (batch=31, the Linux default)",
		Row:    0, Col: 2,
		Paper: 1.0, Tol: 0.01,
		PaperText: "\"probability of almost 1\"", Source: "Sec. V",
	})
	return t, nil
}
