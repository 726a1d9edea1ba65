package dram

// This file holds the hammer loop: rounds of activations cycling through a
// fixed aggressor set, the access-flush-access loop of Kim et al.  The
// attacker's templating sweep issues millions of such activations per
// trial, and almost all of them are quiet — they count disturbance on rows
// whose cells are still far below threshold, with no refresh due.  The
// loop therefore steps activation by activation only through event rounds
// and fast-forwards the quiet rounds between them, leaving the device
// bit-for-bit as the stepped loop would (docs/ARCHITECTURE.md, "The
// event-horizon hammer loop", states the argument; FuzzHammerLoopEquivalence
// pins it).

// thresholdMargin is how many rounds short of an armed cell's threshold a
// fast-forward stops.  The span estimate divides in floating point; the
// margin absorbs its rounding so no row's level reaches the threshold
// inside a fast-forward, and the crossing itself is always stepped.
const thresholdMargin = 2

// hammerPlan is HammerLoop's per-call state: the resolved aggressors and the
// fixed per-round effect of every round after the first.
type hammerPlan struct {
	aggs []aggressor
	// acts counts the activations of one steady round.
	acts uint64
	// rows lists the weak-cell rows one steady round disturbs.
	rows []quietRow
}

// quietRow is one disturbed row of a steady round with the round's near
// and far activation counts against it.
type quietRow struct {
	si        int32
	near, far uint64
}

// HammerLoop issues rounds of activations cycling through addrs in order.
// Each address's bank group and weak-cell neighbour rows are resolved once
// per call.  Only event rounds are stepped activation by activation: the
// first round, a round that reaches the refresh interval, a round while an
// armed cell is within thresholdMargin rounds of its threshold, and every
// round when TRR is enabled.  The quiet rounds in between are fast-forwarded
// by adding their counters and each disturbed row's near and far counts in
// bulk, so the device ends in exactly the state — counters, disturbance
// counts, flips, RNG position — that ActivateRow per address per round
// would leave.  Steady-state calls allocate nothing.
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
			if ag := &aggs[i]; d.openRow[ag.bg] != ag.row {
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
	for i := range p.aggs {
		ag := &p.aggs[i]
		for j := 1; j <= n; j++ {
			if prev := &p.aggs[(i-j+n)%n]; prev.bg == ag.bg {
				ag.steadyHit = prev.row == ag.row
				break
			}
		}
	}

	// Count the steady round's activations, and its near and far
	// activations per row.
	p.acts = 0
	p.rows = p.rows[:0]
	for i := range p.aggs {
		if p.aggs[i].steadyHit {
			continue
		}
		p.acts++
		for _, nb := range p.aggs[i].nb[:p.aggs[i].n] {
			j := 0
			for j < len(p.rows) && p.rows[j].si != nb.si {
				j++
			}
			if j == len(p.rows) {
				p.rows = append(p.rows, quietRow{si: nb.si})
			}
			if nb.far {
				p.rows[j].far++
			} else {
				p.rows[j].near++
			}
		}
	}
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
		if f := (rs.minThr-d.level(rs.near, rs.far))/d.level(q.near, q.far) - thresholdMargin; f < float64(k) {
			if f < 1 {
				return 0
			}
			k = int(f)
		}
	}
	return k
}

// fastForward applies k quiet rounds.  Each row's counts grow by k times
// their per-round amounts; integer addition is exact, so they equal what k
// stepped rounds leave, for any neighbour weight.
func (d *Device) fastForward(k int) {
	p := &d.hammer
	d.stats.Activations += uint64(k) * p.acts
	d.sinceRefresh += uint64(k) * p.acts
	for _, q := range p.rows {
		rs := &d.rowStates[q.si]
		if rs.near|rs.far == 0 {
			d.dirty = append(d.dirty, q.si)
		}
		rs.near += uint64(k) * q.near
		rs.far += uint64(k) * q.far
	}
}
