package cache

import (
	"fmt"
	"math"
	"sort"

	"explframe/internal/cipher/registry"
	"explframe/internal/stats"
)

// Probe technique names accepted by ProbeConfig.Technique (and the
// scenario layer's probe specs).
const (
	// TechPrimeProbe fills the monitored T-table sets with eviction sets
	// before each victim encryption and times the refill after — set
	// granularity, one observation per encryption.
	TechPrimeProbe = "prime-probe"
	// TechEvictReload evicts the monitored T-table lines and times a
	// reload of each — line granularity at round resolution, the
	// Flush+Reload-family shape for victims without shared clflush.
	TechEvictReload = "evict-reload"
	// TechPageCache probes the victim T-table page's OS page-cache
	// residency mincore-style — page granularity, an activity oracle
	// rather than a line oracle.
	TechPageCache = "page-cache"
)

// techniques maps the registered probe technique names.
var techniques = map[string]bool{
	TechPrimeProbe: true, TechEvictReload: true, TechPageCache: true,
}

// Techniques returns the registered probe technique names, sorted — the
// registry the trajectory coverage check and E18's rows are keyed on.
func Techniques() []string {
	out := make([]string, 0, len(techniques))
	for n := range techniques {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// KnownTechnique reports whether name is a registered probe technique.
func KnownTechnique(name string) bool { return techniques[name] }

// ProbeConfig tunes one cache-probe attack.
type ProbeConfig struct {
	// Technique selects the attacker primitive (TechPrimeProbe,
	// TechEvictReload or TechPageCache).
	Technique string
	// Budget is the measurement count: observed victim encryptions for
	// the line-granular techniques, probe windows for page-cache.
	Budget int
	// Noise is the per-measurement probability of background working-set
	// interference polluting a monitored set (or, for the line- and
	// page-granular observations, scaled to their smaller collision
	// surface).  Must lie in [0, 1).
	Noise float64
	// EvictionSet is the lines per eviction set; 0 means the geometry's
	// associativity.  Fewer lines than ways cannot evict a set.
	EvictionSet int
}

// TTableLayout describes the victim's in-memory T-table realisation of a
// registered cipher: the classic four widened lookup tables of a
// byte-oriented SPN, derived from the registry's S-box metadata.
type TTableLayout struct {
	// Tables is the number of parallel T-tables (4, AES-style: state byte
	// i reads table i mod 4).
	Tables int
	// TableBytes is the footprint of one table.
	TableBytes int
	// LinesPerTable is TableBytes / LineBytes — the attacker's resolution:
	// one observation distinguishes LinesPerTable values of S(p ^ k).
	LinesPerTable int
	// IdxPerLine is the number of table indices sharing one cache line;
	// the low log2(IdxPerLine) bits of p ^ k are invisible to a line
	// oracle.
	IdxPerLine int
	// IdxShift is log2(IdxPerLine): index >> IdxShift is the line.
	IdxShift uint
}

// LayoutFor derives the T-table layout a cipher's registry metadata
// implies for the given line size.  Only byte-oriented ciphers (EntryBits
// 8) have a multi-line T-table realisation; the 16-entry tables of the
// nibble ciphers fit inside a single cache line, where a line oracle
// learns nothing — that case returns an error, which scenario validation
// surfaces.
func LayoutFor(c registry.Cipher, lineBytes int) (TTableLayout, error) {
	const entryBytes = 4 // one 32-bit T-table word per S-box entry
	if c.EntryBits() != 8 {
		return TTableLayout{}, fmt.Errorf(
			"cache: %s's %d-entry %d-bit table occupies %d widened bytes — at most one %d-byte cache line, no line-granular leakage",
			c.Name(), c.TableLen(), c.EntryBits(), c.TableLen()*entryBytes, lineBytes)
	}
	tableBytes := c.TableLen() * entryBytes
	linesPerTable := tableBytes / lineBytes
	if linesPerTable < 2 {
		return TTableLayout{}, fmt.Errorf(
			"cache: %s's T-table (%d bytes) does not span two %d-byte cache lines",
			c.Name(), tableBytes, lineBytes)
	}
	idxPerLine := c.TableLen() / linesPerTable
	return TTableLayout{
		Tables:        4,
		TableBytes:    tableBytes,
		LinesPerTable: linesPerTable,
		IdxPerLine:    idxPerLine,
		IdxShift:      log2(idxPerLine),
	}, nil
}

// Observable reports whether the cipher's T-table realisation leaks at
// line granularity under the given line size — the check cache-probe
// scenario validation runs.
func Observable(c registry.Cipher, lineBytes int) error {
	_, err := LayoutFor(c, lineBytes)
	return err
}

// Result is one completed cache-probe attack.
type Result struct {
	// Measurements is the number of probe measurements taken.
	Measurements int
	// EvictionSets is the number of eviction sets constructed (0 for
	// page-cache probing).
	EvictionSets int
	// Nibbles is the number of correctly recovered first-round key
	// nibbles (the high log2(LinesPerTable) bits of each key byte — the
	// part of p ^ k a line oracle can see).
	Nibbles int
	// NibbleTotal is the number of attackable nibbles (one per state
	// byte).
	NibbleTotal int
	// BytesLeaked is the information extracted, in bytes: recovered key
	// bits for the line-granular techniques, Shannon channel capacity
	// over the measurement budget for the page-cache activity channel.
	BytesLeaked float64
	// BitErrors counts the page-cache channel's flipped bits (0 for the
	// line-granular techniques).
	BitErrors int
}

// Attack is one configured cache-probe attack instance: a victim (random
// key, T-tables placed in simulated physical memory) and an attacker
// (eviction sets or page probes) sharing an LLC and page-cache model.
// Construction performs all set-up and allocation; Step runs exactly one
// measurement and is allocation-free on every technique, which is what
// lets the bench trajectory's probe rows and BenchmarkPrimeProbe time the
// loop itself.
type Attack struct {
	llc    *LLC
	pc     *PageCache
	layout TTableLayout
	cfg    ProbeConfig
	rng    *stats.RNG

	blockSize int
	rounds    int
	key       []byte
	pt        []byte

	tableBase uint64
	lineBytes uint64
	targets   []uint64   // line 0 of each table — the monitored lines
	evsets    [][]uint64 // one eviction set per monitored line
	bgLines   []uint64   // one background-noise line per monitored set

	// counts/trials accumulate the per-(byte, nibble-value) hit
	// statistics the final argmax analysis reads, flattened byte-major.
	counts []uint32
	trials []uint32
	obs    []bool

	measurements int
	bitErrors    int
}

// attackerPoolBytes bounds the candidate pool eviction sets are built
// from: enough for dozens of congruent lines per (set, slice) on the
// default geometry, clamped so small machines keep room for the victim.
const attackerPoolBytes = 4 << 20

// NewAttack sets up one cache-probe attack of the cipher's T-tables as
// seen through the view, drawing the victim key and table placement from
// rng (the trial's private stream, so one (spec, trial) is one attack).
func NewAttack(v *View, c registry.Cipher, cfg ProbeConfig, rng *stats.RNG) (*Attack, error) {
	if !KnownTechnique(cfg.Technique) {
		return nil, fmt.Errorf("cache: unknown probe technique %q (known: %v)", cfg.Technique, Techniques())
	}
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("cache: probe budget %d, want >= 1", cfg.Budget)
	}
	if cfg.Noise < 0 || cfg.Noise >= 1 {
		return nil, fmt.Errorf("cache: probe noise %g, want within [0, 1)", cfg.Noise)
	}
	g := v.CacheGeometry()
	evLines := cfg.EvictionSet
	if evLines == 0 {
		evLines = g.Ways
	}
	if evLines < g.Ways {
		return nil, fmt.Errorf("cache: eviction set of %d lines cannot evict a %d-way set", evLines, g.Ways)
	}
	layout, err := LayoutFor(c, g.LineBytes)
	if err != nil {
		return nil, err
	}

	total := v.Geometry().TotalBytes()
	pool := uint64(attackerPoolBytes)
	if pool > total/2 {
		pool = total / 2
	}
	span := uint64(layout.Tables * layout.TableBytes)
	if pool+span > total {
		return nil, fmt.Errorf("cache: DRAM geometry (%d bytes) too small for attacker pool and victim tables", total)
	}

	a := &Attack{
		llc:       NewLLC(v),
		layout:    layout,
		cfg:       cfg,
		rng:       rng,
		blockSize: c.BlockSize(),
		rounds:    c.Rounds(),
		key:       make([]byte, c.KeyBytes()),
		pt:        make([]byte, c.BlockSize()),
		lineBytes: uint64(g.LineBytes),
		counts:    make([]uint32, c.BlockSize()*layout.LinesPerTable),
		trials:    make([]uint32, c.BlockSize()*layout.LinesPerTable),
		obs:       make([]bool, layout.Tables),
	}
	rng.Bytes(a.key)

	// The victim's tables land on a random page past the attacker pool —
	// ASLR at page granularity; the attacker is assumed to have resolved
	// the mapping (the eviction sets target wherever the tables sit).
	slots := int((total - pool - span) / PageBytes)
	a.tableBase = pool + uint64(rng.Intn(slots+1))*PageBytes

	if cfg.Technique == TechPageCache {
		a.pc = NewPageCache(total)
		return a, nil
	}
	a.targets = make([]uint64, layout.Tables)
	a.evsets = make([][]uint64, layout.Tables)
	a.bgLines = make([]uint64, layout.Tables)
	for t := 0; t < layout.Tables; t++ {
		a.targets[t] = a.tableBase + uint64(t*layout.TableBytes)
		set, slice := v.LineIndex(a.targets[t])
		// One extra congruent line beyond the eviction set models the
		// background working set that aliases into the monitored set.
		ev, err := BuildEvictionSet(v, 0, pool, set, slice, evLines+1)
		if err != nil {
			return nil, fmt.Errorf("cache: table %d: %w", t, err)
		}
		a.evsets[t] = ev[:evLines]
		a.bgLines[t] = ev[evLines]
	}
	return a, nil
}

// Step runs exactly one measurement: prime/evict, one victim encryption's
// table traffic (or one page-cache window), background noise, probe, and
// the statistics update.  It never allocates.
func (a *Attack) Step() {
	a.measurements++
	switch a.cfg.Technique {
	case TechPrimeProbe:
		a.stepPrimeProbe()
	case TechEvictReload:
		a.stepEvictReload()
	default:
		a.stepPageCache()
	}
}

// victimRound1 performs the first round's T-table reads: state byte i
// reads line (p_i ^ k_i) >> IdxShift of table i mod Tables — the accesses
// that leak the high nibble of each key byte.
func (a *Attack) victimRound1() {
	for i := 0; i < a.blockSize; i++ {
		line := (int(a.pt[i]) ^ int(a.key[i])) >> a.layout.IdxShift
		a.llc.Access(a.tableAddr(i%a.layout.Tables, line))
	}
}

// victimLaterRounds performs rounds 2..Rounds' table reads.  Their
// indices depend on full round-key mixing, so the model draws them
// uniformly — the self-noise that saturates the monitored lines and
// forces the attacker to average over many encryptions.
func (a *Attack) victimLaterRounds() {
	for r := 1; r < a.rounds; r++ {
		for i := 0; i < a.blockSize; i++ {
			a.llc.Access(a.tableAddr(i%a.layout.Tables, a.rng.Intn(a.layout.LinesPerTable)))
		}
	}
}

// tableAddr returns the physical address of a line of a table.
func (a *Attack) tableAddr(table, line int) uint64 {
	return a.tableBase + uint64(table*a.layout.TableBytes) + uint64(line)*a.lineBytes
}

func (a *Attack) stepPrimeProbe() {
	a.rng.Bytes(a.pt)
	for _, ev := range a.evsets {
		for _, pa := range ev {
			a.llc.Access(pa)
		}
	}
	a.victimRound1()
	a.victimLaterRounds()
	// Background working-set pressure aliasing into the monitored sets.
	for t := range a.bgLines {
		if a.rng.Float64() < a.cfg.Noise {
			a.llc.Access(a.bgLines[t])
		}
	}
	// Probe: any refill miss means something displaced an attacker line
	// from the monitored set since the prime.
	for t, ev := range a.evsets {
		touched := false
		for _, pa := range ev {
			if lat, _ := a.llc.Time(pa, a.rng); lat > LatencyThreshold {
				touched = true
			}
		}
		a.obs[t] = touched
	}
	a.accumulate()
}

func (a *Attack) stepEvictReload() {
	a.rng.Bytes(a.pt)
	for _, ev := range a.evsets {
		for _, pa := range ev {
			a.llc.Access(pa)
		}
	}
	a.victimRound1()
	// Background interference at line granularity: only traffic mapping
	// to the monitored line itself pollutes a reload, so the set-level
	// noise rate scales down by the line's share of the set.
	for t := range a.targets {
		if a.rng.Float64()*float64(a.layout.IdxPerLine) < a.cfg.Noise {
			a.llc.Access(a.targets[t])
		}
	}
	// Reload at round granularity: the spy polls continuously
	// (Flush+Reload-style temporal resolution), so the later rounds'
	// self-noise lands after the sample instead of inside it.
	for t, target := range a.targets {
		lat, _ := a.llc.Time(target, a.rng)
		a.obs[t] = lat <= LatencyThreshold
	}
	a.victimLaterRounds()
	a.accumulate()
}

func (a *Attack) stepPageCache() {
	// The page-cache probe is an activity oracle: each window the victim
	// either encrypts (touching its table page) or stays idle, and the
	// attacker reads the page's residency back mincore-style.  That is a
	// binary covert/side channel at page granularity.
	active := a.rng.Bool(0.5)
	a.pc.Evict(a.tableBase)
	a.rng.Bytes(a.pt)
	if active {
		a.pc.Touch(a.tableBase)
	}
	// Readahead and unrelated file traffic re-fault the page sometimes.
	if a.rng.Float64() < a.cfg.Noise {
		a.pc.Touch(a.tableBase)
	}
	resident := a.pc.Resident(a.tableBase)
	if resident != active {
		a.bitErrors++
	}
	if active {
		// The in-table nibble analysis still runs on active windows, but
		// a 4 KiB page holds entire tables: residency carries no line
		// information, so this stays at chance level — the honest
		// granularity gap between the page and line oracles.
		for t := range a.obs {
			a.obs[t] = resident
		}
		a.accumulate()
	}
}

// accumulate folds one measurement's observations into the per-(byte,
// nibble-value) statistics.
func (a *Attack) accumulate() {
	cells := a.layout.LinesPerTable
	for i := 0; i < a.blockSize; i++ {
		v := int(a.pt[i]) >> a.layout.IdxShift
		idx := i*cells + v
		a.trials[idx]++
		if a.obs[i%a.layout.Tables] {
			a.counts[idx]++
		}
	}
}

// Finish runs the first-round analysis over the accumulated statistics
// and returns the attack's result.  For each state byte the attacker
// picks the plaintext nibble whose measurements hit the monitored line 0
// most often; that nibble equals the key byte's high nibble, because
// p_i ^ k_i lands in line 0 exactly when their high nibbles agree.
func (a *Attack) Finish() Result {
	res := Result{
		Measurements: a.measurements,
		EvictionSets: len(a.evsets),
		NibbleTotal:  a.blockSize,
		BitErrors:    a.bitErrors,
	}
	cells := a.layout.LinesPerTable
	for i := 0; i < a.blockSize; i++ {
		best := 0
		for v := 1; v < cells; v++ {
			// Cross-multiplied rate comparison keeps the argmax exact in
			// integers; ties keep the lowest value, deterministically.
			if uint64(a.counts[i*cells+v])*uint64(a.trials[i*cells+best]) >
				uint64(a.counts[i*cells+best])*uint64(a.trials[i*cells+v]) {
				best = v
			}
		}
		if best == int(a.key[i])>>a.layout.IdxShift {
			res.Nibbles++
		}
	}
	bitsPerNibble := int(8 - a.layout.IdxShift)
	if a.cfg.Technique == TechPageCache {
		// The page channel's yield is its Shannon capacity over the
		// budget: one bit per window through a binary symmetric channel
		// with the observed error rate.
		eps := float64(a.bitErrors) / float64(max(a.measurements, 1))
		res.BytesLeaked = float64(a.measurements) * bscCapacity(eps) / 8
	} else {
		res.BytesLeaked = float64(res.Nibbles*bitsPerNibble) / 8
	}
	return res
}

// Run executes the configured measurement budget and returns the result.
func (a *Attack) Run() Result {
	for i := 0; i < a.cfg.Budget; i++ {
		a.Step()
	}
	return a.Finish()
}

// bscCapacity returns the capacity, in bits per use, of a binary
// symmetric channel with crossover probability eps.
func bscCapacity(eps float64) float64 {
	if eps <= 0 || eps >= 1 {
		return 1
	}
	h := -eps*math.Log2(eps) - (1-eps)*math.Log2(1-eps)
	return math.Max(0, 1-h)
}
