package dram

// This file holds the hammer loop: rounds of activations cycling through a
// fixed aggressor set, the access-flush-access loop of Kim et al.  The
// attacker's templating sweep issues millions of such activations per
// trial, and almost all of them are quiet — they add disturbance to rows
// whose cells are still far below threshold, with no refresh due.  The
// loop therefore steps activation by activation only through event rounds
// and fast-forwards the quiet rounds between them, leaving the device
// bit-for-bit as the stepped loop would (docs/ARCHITECTURE.md, "The
// event-horizon hammer loop", states the argument; FuzzHammerLoopEquivalence
// pins it).

// thresholdMargin is how many rounds short of an armed cell's threshold a
// fast-forward stops.  The span estimate divides in floating point; the
// margin absorbs its rounding so the replayed accumulator never reaches the
// threshold inside a fast-forward, and the crossing itself is always stepped.
const thresholdMargin = 2

// hammerPlan is HammerLoop's per-call state: the resolved aggressors and the
// fixed per-round effect of every round after the first.
type hammerPlan struct {
	aggs []aggressor
	// acts and hits count the activations and row-buffer hits of one
	// steady round.
	acts, hits uint64
	// rows lists the weak-cell rows one steady round disturbs; row q's
	// additions are adds[q.lo:q.hi], in activation order.
	rows []quietRow
	adds []float64
}

// quietRow is one disturbed row of a steady round.
type quietRow struct {
	si     int32
	lo, hi int32
	// perRound is the round's total disturbance, used only to estimate how
	// many rounds stay below the row's thresholds.
	perRound float64
}

// HammerLoop issues rounds of activations cycling through addrs in order.
// Each address's bank group and weak-cell neighbour rows are resolved once
// per call.  Only event rounds are stepped activation by activation: the
// first round, a round that reaches the refresh interval, a round while an
// armed cell is within thresholdMargin rounds of its threshold, and every
// round when TRR is enabled.  The quiet rounds in between are fast-forwarded
// by adding their counters in bulk and replaying each disturbed row's
// per-round additions in activation order, so the device ends in exactly
// the state — counters, disturbance bits, flips, RNG position — that
// ActivateRow per address per round would leave.  Steady-state calls
// allocate nothing.
func (d *Device) HammerLoop(addrs []Addr, rounds int) {
	if rounds <= 0 || len(addrs) == 0 {
		return
	}
	d.planHammer(addrs)
	aggs := d.hammer.aggs
	for r := 0; r < rounds; {
		if r > 0 {
			if k := d.quietRounds(rounds - r); k > 0 {
				d.fastForward(k)
				r += k
				continue
			}
		}
		for i := range aggs {
			if ag := &aggs[i]; !d.rowHit(ag.bg, ag.row) {
				d.open(ag)
			}
		}
		r++
	}
}

// planHammer resolves addrs and derives the steady-round effect.  After the
// first round every bank group's row buffer holds the row of the last
// aggressor mapped to it, so each later round issues the same activations:
// an aggressor is a row-buffer hit iff the previous aggressor of its bank
// group, cyclically (itself when it is alone there), opens the same row.
func (d *Device) planHammer(addrs []Addr) {
	p := &d.hammer
	n := len(addrs)
	if cap(p.aggs) < n {
		p.aggs = make([]aggressor, n)
	}
	p.aggs = p.aggs[:n]
	for i, a := range addrs {
		d.resolve(&p.aggs[i], d.mapper.BankGroup(a), a.Row)
	}
	p.acts, p.hits = 0, 0
	for i := range p.aggs {
		ag := &p.aggs[i]
		for j := 1; j <= n; j++ {
			if prev := &p.aggs[(i-j+n)%n]; prev.bg == ag.bg {
				ag.steadyHit = prev.row == ag.row
				break
			}
		}
		if ag.steadyHit {
			p.hits++
		} else {
			p.acts++
		}
	}

	// Group the steady round's additions by row, keeping each row's
	// additions in activation order: the order the fast-forward replays.
	p.rows, p.adds = p.rows[:0], p.adds[:0]
	for i := range p.aggs {
		if p.aggs[i].steadyHit {
			continue
		}
		for _, nb := range p.aggs[i].nb[:p.aggs[i].n] {
			if p.hasRow(nb.si) {
				continue
			}
			q := quietRow{si: nb.si, lo: int32(len(p.adds))}
			for j := i; j < n; j++ {
				if p.aggs[j].steadyHit {
					continue
				}
				for _, other := range p.aggs[j].nb[:p.aggs[j].n] {
					if other.si == nb.si {
						p.adds = append(p.adds, other.w)
						q.perRound += other.w
					}
				}
			}
			q.hi = int32(len(p.adds))
			p.rows = append(p.rows, q)
		}
	}
}

func (p *hammerPlan) hasRow(si int32) bool {
	for _, q := range p.rows {
		if q.si == si {
			return true
		}
	}
	return false
}

// quietRounds returns how many of the next (at most max) rounds are quiet:
// no TRR sampler to feed, no refresh reached, and every armed cell more
// than thresholdMargin rounds short of its threshold.  A result <= 0 means
// the next round is an event round.
func (d *Device) quietRounds(max int) int {
	if d.trr != nil {
		return 0
	}
	p := &d.hammer
	k := max
	if p.acts > 0 {
		// Refresh fires on the activation that brings sinceRefresh to the
		// interval; sinceRefresh is below it between activations.
		if kr := (d.model.RefreshInterval - 1 - d.sinceRefresh) / p.acts; kr < uint64(k) {
			k = int(kr)
		}
	}
	for _, q := range p.rows {
		rs := &d.rowStates[q.si]
		// minThr is +Inf for a row with no armed cell, which never bounds k.
		if f := (rs.minThr-rs.disturb)/q.perRound - thresholdMargin; f < float64(k) {
			if f < 1 {
				return 0
			}
			k = int(f)
		}
	}
	return k
}

// fastForward applies k quiet rounds.  Each row's accumulator receives the
// same float additions in the same order as k stepped rounds would give it;
// rows are independent, so the result is bit-identical (a multiplication
// would round differently for weights such as 0.2).
func (d *Device) fastForward(k int) {
	p := &d.hammer
	d.stats.Activations += uint64(k) * p.acts
	d.stats.RowHits += uint64(k) * p.hits
	d.sinceRefresh += uint64(k) * p.acts
	for _, q := range p.rows {
		rs := &d.rowStates[q.si]
		if rs.disturb == 0 {
			d.dirty = append(d.dirty, q.si)
		}
		acc := rs.disturb
		adds := p.adds[q.lo:q.hi]
		for r := 0; r < k; r++ {
			for _, w := range adds {
				acc += w
			}
		}
		rs.disturb = acc
	}
}
