// Package icache models the GPU L1 instruction cache shared by a group
// of CUs (Table 1: 16KB, 8-way, 64B lines, shared by 4 CUs) and the
// paper's reconfigurable extension of it (§4.3): idle lines store
// translations in "Tx-mode". The package implements every design point
// Figure 13a evaluates:
//
//   - one translation per way (the naive capacity design, Figure 8b);
//   - eight translations per way with widened base-delta-compressed
//     tags (Figure 8c / Figure 10c);
//   - naive LRU replacement that lets translations displace
//     instructions, versus the instruction-aware policy (§4.3.2) that
//     never lets them;
//   - the kernel-boundary instruction flush optimization (§4.3.3).
//
// Translations use direct-mapped indexing across all lines (Figure 9) so
// the existing per-way comparators are reused; scanning a line's eight
// sub-way tags costs extra lookup cycles, reflected in the Tx-mode tag
// latency.
package icache

import (
	"fmt"

	"gpureach/internal/bdc"
	"gpureach/internal/sim"
	"gpureach/internal/tlb"
	"gpureach/internal/vm"
)

// Policy selects the replacement policy for the reconfigurable designs.
type Policy int

const (
	// PolicyInstrAware is §4.3.2: instruction fills prefer Tx/idle
	// victims; translation fills never displace instruction lines.
	PolicyInstrAware Policy = iota
	// PolicyNaive lets translation fills take over instruction lines
	// and instruction fills use plain LRU — the design Figure 13a shows
	// degrading performance by ~1.65%.
	PolicyNaive
)

func (p Policy) String() string {
	if p == PolicyNaive {
		return "naive"
	}
	return "instr-aware"
}

// Mode is the state of one I-cache line.
type Mode uint8

const (
	Invalid Mode = iota
	ICMode       // holds instructions
	TxMode       // holds translations
)

// Config describes one I-cache instance.
type Config struct {
	SizeBytes int
	LineBytes int
	Ways      int
	// TxPerLine is how many translations a Tx-mode line packs: 1 for the
	// basic design (Figure 8b), 8 for the packed design (Figure 8c).
	// 0 disables reconfiguration entirely (pure baseline).
	TxPerLine int
	Policy    Policy
	// FlushAtKernelBoundary enables the §4.3.3 optimization: the runtime
	// flushes instruction lines when consecutive kernels differ.
	FlushAtKernelBoundary bool

	// Latencies from Table 1.
	ICTagLatency     sim.Time // 16 cycles
	TxTagLatency     sim.Time // 20 cycles (sub-way scan included)
	MuxLatency       sim.Time // 1 cycle
	DecompLatency    sim.Time // 4 cycles
	ExtraWireLatency sim.Time // §6.3.3 layout sensitivity
	PortInterval     sim.Time
}

// DefaultConfig returns the Table 1 I-cache with the paper's preferred
// design (8 Tx per line, instruction-aware replacement, flush on).
func DefaultConfig() Config {
	return Config{
		SizeBytes:             16 << 10,
		LineBytes:             64,
		Ways:                  8,
		TxPerLine:             8,
		Policy:                PolicyInstrAware,
		FlushAtKernelBoundary: true,
		ICTagLatency:          16,
		TxTagLatency:          20,
		MuxLatency:            1,
		DecompLatency:         4,
		PortInterval:          1,
	}
}

// Stats reports I-cache activity.
type Stats struct {
	Fetches              uint64
	InstrHits            uint64
	InstrMisses          uint64
	InstrFills           uint64
	TxLookups            uint64
	TxHits               uint64
	TxInserts            uint64
	TxBypassIC           uint64 // fills bypassed: target line held instructions
	TxEvictions          uint64 // translation displaced translation
	TxDroppedByInstrFill uint64
	InstrLinesLostToTx   uint64 // naive policy only
	CompressionRejects   uint64
	Flushes              uint64
	FlushedLines         uint64
	Shootdowns           uint64
}

// InstrHitRate returns the instruction-side hit rate.
func (s Stats) InstrHitRate() float64 {
	if s.Fetches == 0 {
		return 0
	}
	return float64(s.InstrHits) / float64(s.Fetches)
}

// line is one reconfigurable I-cache line. Translation-mode state is
// inline (value-type tag group, fixed arrays sized bdc.MaxSlots) so a
// victim-store probe touches one contiguous struct instead of chasing
// five heap pointers — the dominant cost of a probe at this call
// volume, in detailed mode and fast-forward warming alike.
type line struct {
	mode  Mode
	tag   uint64 // instruction line address when ICMode
	stamp uint64

	txTags   bdc.Group
	txSpaces [bdc.MaxSlots]vm.SpaceID
	txVPNs   [bdc.MaxSlots]vm.VPN
	txPFNs   [bdc.MaxSlots]vm.PFN
	txStamps [bdc.MaxSlots]uint64
}

// ICache is one reconfigurable instruction cache instance.
type ICache struct {
	cfg   Config
	eng   *sim.Engine
	port  *sim.Port
	sets  [][]line
	clock uint64
	stats Stats

	// fills tracks in-flight instruction-line fills (MSHR-style): the
	// first fetch unit to miss on a line owns the backing fetch; later
	// requesters for the same line merge onto it instead of multiplying
	// L2 traffic.
	fills sim.Waiters[uint64, fillWaiter]

	fillsThisKernel uint64
	lastKernel      string
}

// fillWaiter is one request merged onto an in-flight line fill.
type fillWaiter struct {
	h   sim.Handler
	ctx any
}

// New builds an I-cache on engine eng.
func New(eng *sim.Engine, cfg Config) *ICache {
	if cfg.SizeBytes <= 0 || cfg.LineBytes <= 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("icache: bad geometry %+v", cfg))
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if lines%cfg.Ways != 0 {
		panic("icache: lines not divisible by ways")
	}
	c := &ICache{
		cfg:  cfg,
		eng:  eng,
		port: sim.NewPort(eng, cfg.PortInterval),
	}
	numSets := lines / cfg.Ways
	c.sets = make([][]line, numSets)
	for s := range c.sets {
		c.sets[s] = make([]line, cfg.Ways)
		for w := range c.sets[s] {
			c.sets[s][w] = c.newLine()
		}
	}
	return c
}

func (c *ICache) newLine() line {
	l := line{}
	if c.cfg.TxPerLine > 0 {
		// Figure 10c: 32-bit base, 8-bit signed deltas per sub-way tag.
		l.txTags = bdc.NewGroup(c.cfg.TxPerLine, 32, 8)
	}
	return l
}

// Config returns the configuration.
func (c *ICache) Config() Config { return c.cfg }

// Port exposes the access port (Fig 5b measures its idle gaps).
func (c *ICache) Port() *sim.Port { return c.port }

// Stats returns a copy of the counters.
func (c *ICache) Stats() Stats { return c.stats }

// NumLines returns the total line count.
func (c *ICache) NumLines() int { return len(c.sets) * c.cfg.Ways }

// --- instruction side -------------------------------------------------

func (c *ICache) instrSet(addr vm.PA) ([]line, uint64) {
	la := uint64(addr) / uint64(c.cfg.LineBytes)
	return c.sets[la%uint64(len(c.sets))], la
}

// Fetch probes the cache for the instruction line containing addr. It
// occupies the port and returns whether it hit plus the completion time
// of the tag+data access. On a miss the caller fetches the line from the
// L2 and then calls FillInstr.
func (c *ICache) Fetch(addr vm.PA) (bool, sim.Time) {
	c.stats.Fetches++
	grant := c.port.Acquire()
	finish := grant + c.cfg.ICTagLatency + c.cfg.MuxLatency
	set, la := c.instrSet(addr)
	for w := range set {
		if set[w].mode == ICMode && set[w].tag == la {
			c.clock++
			set[w].stamp = c.clock
			c.stats.InstrHits++
			return true, finish
		}
	}
	c.stats.InstrMisses++
	return false, finish
}

// WarmFetch is the functional-warming form of Fetch + FillInstr used
// by sampled execution's fast-forward mode: the same tag check, LRU
// touch, hit/miss counters and (on a miss) victim-selecting fill as
// the detailed path, with no port occupancy and no timing. Keeping
// the content transitions identical is what lets a measurement window
// start against the exact cache image a full-detail run would have.
func (c *ICache) WarmFetch(addr vm.PA) {
	c.stats.Fetches++
	set, la := c.instrSet(addr)
	for w := range set {
		if set[w].mode == ICMode && set[w].tag == la {
			c.clock++
			set[w].stamp = c.clock
			c.stats.InstrHits++
			return
		}
	}
	c.stats.InstrMisses++
	c.FillInstr(addr)
}

// HasInstr reports whether the instruction line containing addr is
// resident, without LRU or counter side effects. Fetch units use it to
// avoid redundant prefetches.
func (c *ICache) HasInstr(addr vm.PA) bool {
	set, la := c.instrSet(addr)
	for w := range set {
		if set[w].mode == ICMode && set[w].tag == la {
			return true
		}
	}
	return false
}

// FillInstr installs the instruction line containing addr after its miss
// was serviced. Victim selection follows the configured policy: the
// instruction-aware policy consumes idle or Tx-mode ways before touching
// instruction lines (§4.3.2 rule 1); either policy drops any
// translations in the chosen way (they are clean).
func (c *ICache) FillInstr(addr vm.PA) {
	set, la := c.instrSet(addr)
	for w := range set {
		if set[w].mode == ICMode && set[w].tag == la {
			return // raced: already filled
		}
	}
	c.clock++
	c.stats.InstrFills++
	c.fillsThisKernel++

	victim := -1
	// 1. Invalid ways first, under both policies.
	for w := range set {
		if set[w].mode == Invalid {
			victim = w
			break
		}
	}
	if victim < 0 && c.cfg.Policy == PolicyInstrAware {
		// 2. LRU among Tx-mode ways.
		for w := range set {
			if set[w].mode != TxMode {
				continue
			}
			if victim < 0 || set[w].stamp < set[victim].stamp {
				victim = w
			}
		}
	}
	if victim < 0 {
		// 3. Plain LRU.
		victim = 0
		for w := 1; w < len(set); w++ {
			if set[w].stamp < set[victim].stamp {
				victim = w
			}
		}
	}
	if set[victim].mode == TxMode {
		c.stats.TxDroppedByInstrFill += uint64(set[victim].txTags.Live())
		set[victim].txTags.Clear()
	}
	set[victim].mode = ICMode
	set[victim].tag = la
	set[victim].stamp = c.clock
}

// --- in-flight fill tracking (MSHR-style dedup) --------------------------

// FillPending reports whether a fill for the line containing addr is
// already in flight.
func (c *ICache) FillPending(addr vm.PA) bool {
	_, la := c.instrSet(addr)
	return c.fills.Busy(la)
}

// StartFill claims ownership of the backing fetch for addr's line. It
// returns true when the caller must issue the fetch and later call
// CompleteFill; false when another fetch already has the fill in flight
// (merge onto it with WaitFill).
func (c *ICache) StartFill(addr vm.PA) bool {
	_, la := c.instrSet(addr)
	return c.fills.Open(la)
}

// WaitFill registers h(ctx) to run when the in-flight fill for addr's
// line completes. The caller must have seen StartFill return false.
func (c *ICache) WaitFill(addr vm.PA, h sim.Handler, ctx any) {
	_, la := c.instrSet(addr)
	if c.fills.Wait(la, fillWaiter{h: h, ctx: ctx}) {
		//gpureach:allow simerr -- WaitFill without StartFill is a fetch-unit wiring bug, caught by the first merged fetch of any run
		panic("icache: WaitFill without an in-flight fill")
	}
}

// CompleteFill installs the fetched line and wakes every merged waiter
// in registration order. It drains waiters even when the install races
// an already-resident line (FillInstr's early-return path): the merged
// fetch units are waiting on the data, not on the array write.
func (c *ICache) CompleteFill(addr vm.PA) {
	c.FillInstr(addr)
	_, la := c.instrSet(addr)
	l, _ := c.fills.Take(la)
	for w, ok := c.fills.Pop(&l); ok; w, ok = c.fills.Pop(&l) {
		w.h(w.ctx)
	}
}

// FillsInflight returns the number of lines with an in-flight fill
// (diagnostics).
func (c *ICache) FillsInflight() int { return c.fills.Len() }

// --- translation side ---------------------------------------------------

// txLine maps a key to its direct-mapped line (Figure 9): the VPN
// selects one specific (set, way) pair so the per-way comparators are
// reused without extra muxing.
func (c *ICache) txLine(key tlb.Key) *line {
	lineIdx := uint64(key.VPN()) % uint64(c.NumLines())
	set := lineIdx % uint64(len(c.sets))
	way := lineIdx / uint64(len(c.sets))
	return &c.sets[set][way]
}

// txTagValue is the compressed tag: the VPN bits above the line index.
// Space tags are verified against the stored full key on hit.
func (c *ICache) txTagValue(key tlb.Key) uint64 {
	return uint64(key.VPN()) / uint64(c.NumLines()) & 0xFFFF_FFFF
}

// TxLookupLatency is the translation probe cost (Table 1: Tx-mode tag
// access + MUX + decompression, plus §6.3.3 wire latency).
func (c *ICache) TxLookupLatency() sim.Time {
	return c.cfg.TxTagLatency + c.cfg.MuxLatency + c.cfg.DecompLatency + c.cfg.ExtraWireLatency
}

// TxLookup probes the victim store for key, occupying the port. It
// returns the entry, whether it hit, and the completion time.
func (c *ICache) TxLookup(key tlb.Key) (tlb.Entry, bool, sim.Time) {
	grant := c.port.Acquire()
	e, hit := c.txLookup(key)
	return e, hit, grant + c.TxLookupLatency()
}

// WarmTxLookup is TxLookup for fast-forward warming: identical probe,
// LRU and counter transitions, but no port acquisition — fast-forward
// consumes no time, so a grant would only distort the port's
// utilization series (which Engine.RelaxPorts then has to unwind).
func (c *ICache) WarmTxLookup(key tlb.Key) (tlb.Entry, bool) {
	return c.txLookup(key)
}

// txLookup is the content half of a victim-store probe, shared by the
// detailed and warming forms.
func (c *ICache) txLookup(key tlb.Key) (tlb.Entry, bool) {
	if c.cfg.TxPerLine == 0 {
		//gpureach:allow simerr -- probing a Tx-disabled I-cache is a wiring bug in the scheme plumbing, caught by the first lookup of any run
		panic("icache: TxLookup with reconfiguration disabled")
	}
	c.stats.TxLookups++
	ln := c.txLine(key)
	if ln.mode != TxMode {
		return tlb.Entry{}, false
	}
	w := ln.txTags.Find(c.txTagValue(key))
	if w < 0 || tlb.MakeKey(ln.txSpaces[w], ln.txVPNs[w]) != key {
		return tlb.Entry{}, false
	}
	c.clock++
	ln.txStamps[w] = c.clock
	c.stats.TxHits++
	return tlb.Entry{Space: ln.txSpaces[w], VPN: ln.txVPNs[w], PFN: ln.txPFNs[w]}, true
}

// TxProbe reports whether key is resident right now, with no port,
// latency, LRU, or counter side effects — the I-cache twin of
// lds.TxProbe, used for mid-flight re-validation and invariant probes.
func (c *ICache) TxProbe(key tlb.Key) (tlb.Entry, bool) {
	if c.cfg.TxPerLine == 0 {
		return tlb.Entry{}, false
	}
	ln := c.txLine(key)
	if ln.mode != TxMode {
		return tlb.Entry{}, false
	}
	w := ln.txTags.Find(c.txTagValue(key))
	if w < 0 || tlb.MakeKey(ln.txSpaces[w], ln.txVPNs[w]) != key {
		return tlb.Entry{}, false
	}
	return tlb.Entry{Space: ln.txSpaces[w], VPN: ln.txVPNs[w], PFN: ln.txPFNs[w]}, true
}

// TxInsert offers a victim translation to the cache (Figure 12 flows
// ③→④). Under the instruction-aware policy an IC-mode target line
// bypasses the fill; under the naive policy the line is converted,
// dropping its instructions. Within a Tx line the LRU sub-way is
// displaced and returned for forwarding to the L2 TLB.
func (c *ICache) TxInsert(e tlb.Entry) (victim tlb.Entry, hasVictim, inserted bool) {
	if c.cfg.TxPerLine == 0 {
		return tlb.Entry{}, false, false
	}
	key := e.Key()
	ln := c.txLine(key)

	switch ln.mode {
	case ICMode:
		if c.cfg.Policy == PolicyInstrAware {
			c.stats.TxBypassIC++
			return tlb.Entry{}, false, false
		}
		// Naive policy: translations may replace instructions (§4.3.2's
		// cautionary design) — the line flips to Tx-mode.
		c.stats.InstrLinesLostToTx++
		ln.mode = TxMode
		ln.txTags.Clear()
	case Invalid:
		ln.mode = TxMode
		ln.txTags.Clear()
	}
	c.port.Acquire() // fills consume port bandwidth

	tag := c.txTagValue(key)
	// Refresh on re-insert.
	if w := ln.txTags.Find(tag); w >= 0 && tlb.MakeKey(ln.txSpaces[w], ln.txVPNs[w]) == key {
		ln.txPFNs[w] = e.PFN
		c.clock++
		ln.txStamps[w] = c.clock
		return tlb.Entry{}, false, true
	}

	way := -1
	for w := 0; w < c.cfg.TxPerLine; w++ {
		if _, live := ln.txTags.Get(w); !live {
			way = w
			break
		}
	}
	evicting := false
	if way < 0 {
		way = 0
		for w := 1; w < c.cfg.TxPerLine; w++ {
			if ln.txStamps[w] < ln.txStamps[way] {
				way = w
			}
		}
		evicting = true
	}
	if evicting {
		victim = tlb.Entry{Space: ln.txSpaces[way], VPN: ln.txVPNs[way], PFN: ln.txPFNs[way]}
		ln.txTags.Invalidate(way)
	}
	if !ln.txTags.Add(way, tag) {
		c.stats.CompressionRejects++
		return victim, evicting, false
	}
	ln.txSpaces[way] = e.Space
	ln.txVPNs[way] = e.VPN
	ln.txPFNs[way] = e.PFN
	c.clock++
	ln.txStamps[way] = c.clock
	c.stats.TxInserts++
	if evicting {
		c.stats.TxEvictions++
	}
	return victim, evicting, true
}

// --- kernel-boundary management ----------------------------------------

// KernelBoundary tells the cache that a kernel named next is about to
// launch. It returns the Equation 1 utilization of the kernel that just
// finished (fills / lines, capped at 1). When the flush optimization is
// enabled and the next kernel differs from the last (§4.3.3: the runtime
// only flushes when the same kernel is not re-launched back-to-back),
// instruction lines are invalidated, freeing them for translations.
func (c *ICache) KernelBoundary(next string) float64 {
	util := float64(c.fillsThisKernel) / float64(c.NumLines())
	if util > 1 {
		util = 1
	}
	c.fillsThisKernel = 0
	if c.cfg.FlushAtKernelBoundary && next != c.lastKernel && c.lastKernel != "" {
		c.stats.Flushes++
		c.stats.FlushedLines += uint64(c.flushInstructions())
	}
	c.lastKernel = next
	return util
}

// flushInstructions invalidates all IC-mode lines, returning the count.
func (c *ICache) flushInstructions() int {
	n := 0
	for s := range c.sets {
		for w := range c.sets[s] {
			if c.sets[s][w].mode == ICMode {
				c.sets[s][w].mode = Invalid
				n++
			}
		}
	}
	return n
}

// --- capacity accounting and maintenance --------------------------------

// FreeTxCapacity returns how many additional translations the cache
// could hold right now (Fig 15 accounting).
func (c *ICache) FreeTxCapacity() int {
	if c.cfg.TxPerLine == 0 {
		return 0
	}
	n := 0
	for s := range c.sets {
		for w := range c.sets[s] {
			switch c.sets[s][w].mode {
			case Invalid:
				n += c.cfg.TxPerLine
			case TxMode:
				n += c.cfg.TxPerLine - c.sets[s][w].txTags.Live()
			}
		}
	}
	return n
}

// TxResident returns the number of translations currently cached.
func (c *ICache) TxResident() int {
	if c.cfg.TxPerLine == 0 {
		return 0
	}
	n := 0
	for s := range c.sets {
		for w := range c.sets[s] {
			if c.sets[s][w].mode == TxMode {
				n += c.sets[s][w].txTags.Live()
			}
		}
	}
	return n
}

// InstrResident returns the number of IC-mode lines.
func (c *ICache) InstrResident() int {
	n := 0
	for s := range c.sets {
		for w := range c.sets[s] {
			if c.sets[s][w].mode == ICMode {
				n++
			}
		}
	}
	return n
}

// Shootdown invalidates key if cached (§7.1).
func (c *ICache) Shootdown(key tlb.Key) bool {
	if c.cfg.TxPerLine == 0 {
		return false
	}
	ln := c.txLine(key)
	if ln.mode != TxMode {
		return false
	}
	w := ln.txTags.Find(c.txTagValue(key))
	if w < 0 || tlb.MakeKey(ln.txSpaces[w], ln.txVPNs[w]) != key {
		return false
	}
	ln.txTags.Invalidate(w)
	c.stats.Shootdowns++
	return true
}

// ForEachTx calls fn for every resident translation.
func (c *ICache) ForEachTx(fn func(tlb.Entry)) {
	if c.cfg.TxPerLine == 0 {
		return
	}
	for s := range c.sets {
		for w := range c.sets[s] {
			ln := &c.sets[s][w]
			if ln.mode != TxMode {
				continue
			}
			for i := 0; i < c.cfg.TxPerLine; i++ {
				if _, live := ln.txTags.Get(i); live {
					fn(tlb.Entry{Space: ln.txSpaces[i], VPN: ln.txVPNs[i], PFN: ln.txPFNs[i]})
				}
			}
		}
	}
}

// TagOverheadBytes returns the extra tag storage the packed design costs
// (§4.3.1: widening each way's tag from 6 to 12 bytes = 1.5KB for a
// 16KB cache). Zero for TxPerLine ≤ 1.
func (c *ICache) TagOverheadBytes() int {
	if c.cfg.TxPerLine <= 1 {
		return 0
	}
	return 6 * c.NumLines()
}
