// Package lds models the per-CU Local Data Share scratchpad and the
// paper's reconfigurable extension of it (§4.2): when segments of the
// LDS are not reserved by any resident work-group, the LDS controller
// repurposes them as a TLB victim cache. Each 32-byte segment co-locates
// three 8-byte translations with one 8-byte compressed tag word
// (Figure 6b-(ii)), is indexed directly by VPN (Figure 6c), and carries
// a mode bit distinguishing application data (LDS-mode) from
// translations (Tx-mode). The §6.3.1 sensitivity study's 64-byte
// segments (6 translation ways) fall out of the same geometry.
package lds

import (
	"fmt"

	"gpureach/internal/bdc"
	"gpureach/internal/sim"
	"gpureach/internal/tlb"
	"gpureach/internal/vm"
)

// Mode is the state of one LDS segment.
type Mode uint8

const (
	// Free segments belong to no work-group and hold no translations.
	Free Mode = iota
	// LDSMode segments are reserved by a resident work-group. The
	// invariant the paper states — "a Tx-mode segment can never
	// overwrite an LDS-mode segment" — is enforced here.
	LDSMode
	// TxMode segments are managed by the LDS controller and hold
	// translations.
	TxMode
)

func (m Mode) String() string {
	switch m {
	case Free:
		return "free"
	case LDSMode:
		return "lds"
	case TxMode:
		return "tx"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Config describes one CU's LDS.
type Config struct {
	SizeBytes    int
	SegmentBytes int
	// Latencies from Table 1.
	AppLatency sim.Time // LDS-mode access: 31 cycles
	TxLatency  sim.Time // Tx-mode access: 35 cycles
	MuxLatency sim.Time // 1 cycle
	DecompLat  sim.Time // base-delta decompression: 4 cycles
	// ExtraWireLatency models the §6.3.3 layout-dependent datapath
	// latency added to translation accesses.
	ExtraWireLatency sim.Time
	PortInterval     sim.Time
}

// DefaultConfig returns the Table 1 LDS configuration (16KB, 32-byte
// segments → 3 translation ways + 1 tag way per segment).
func DefaultConfig() Config {
	return Config{
		SizeBytes:    16 << 10,
		SegmentBytes: 32,
		AppLatency:   31,
		TxLatency:    35,
		MuxLatency:   1,
		DecompLat:    4,
		PortInterval: 1,
	}
}

// TxWaysPerSegment returns how many 8-byte translations fit in one
// segment after reserving a quarter of it for compressed tags: 3 for
// 32-byte segments, 6 for 64-byte (§6.3.1).
func (c Config) TxWaysPerSegment() int {
	return (c.SegmentBytes - c.SegmentBytes/4) / 8
}

// Stats reports reconfigurable-LDS activity.
type Stats struct {
	AppAccesses uint64
	TxLookups   uint64
	TxHits      uint64
	TxInserts   uint64
	// TxBypassLDSMode counts fills rejected because the target segment
	// belonged to an application (§4.4 flow ①→②→③→⑤).
	TxBypassLDSMode uint64
	TxEvictions     uint64
	// TxLostToAlloc counts translations silently reclaimed when a
	// work-group allocation overwrote Tx segments — legal because
	// translations are clean (§4.1).
	TxLostToAlloc uint64
	// CompressionRejects counts inserts refused because the new tag did
	// not fit the segment's base-delta encoding.
	CompressionRejects uint64
	AllocFailures      uint64
	Shootdowns         uint64
}

// segment is one reconfigurable LDS segment: its mode and owner. Its
// Tx-mode state lives in the LDS's tags and ways arrays, which exist
// only once some segment has entered Tx-mode.
type segment struct {
	mode Mode
	wg   int // owning work-group when LDSMode
}

// txWay is one translation way of a Tx-mode segment.
type txWay struct {
	pfn   vm.PFN
	vpn   vm.VPN
	stamp uint64
	space vm.SpaceID
}

type allocation struct {
	wg       int
	startSeg int
	segs     int
}

// LDS is one CU's scratchpad with the reconfigurable Tx extension.
type LDS struct {
	cfg      Config
	eng      *sim.Engine
	port     *sim.Port
	segments []segment
	// Tx-mode state, allocated when the first segment enters Tx-mode
	// (a run whose LDS never holds a translation never pays for it):
	// segment i's compressed tags are tags[i] and its translation ways
	// ways[i*nways:(i+1)*nways], so a probe reads one group and one
	// contiguous run of ways.
	tags   []bdc.Group
	ways   []txWay
	nways  int
	allocs []allocation
	clock  uint64
	stats  Stats
}

// New builds an LDS on engine eng.
func New(eng *sim.Engine, cfg Config) *LDS {
	if cfg.SizeBytes <= 0 || cfg.SegmentBytes <= 0 || cfg.SizeBytes%cfg.SegmentBytes != 0 {
		panic(fmt.Sprintf("lds: bad geometry %+v", cfg))
	}
	ways := cfg.TxWaysPerSegment()
	if ways <= 0 {
		panic("lds: segment too small for any translation way")
	}
	n := cfg.SizeBytes / cfg.SegmentBytes
	return &LDS{cfg: cfg, eng: eng, port: sim.NewPort(eng, cfg.PortInterval), segments: make([]segment, n), nways: ways}
}

// allocTx builds the Tx-mode arrays on the first Free→TxMode switch.
func (l *LDS) allocTx() {
	l.tags = make([]bdc.Group, len(l.segments))
	for i := range l.tags {
		l.tags[i] = bdc.NewGroup(l.nways, 16, 16)
	}
	l.ways = make([]txWay, len(l.segments)*l.nways)
}

// segWays returns segment i's translation ways.
func (l *LDS) segWays(i int) []txWay { return l.ways[i*l.nways : (i+1)*l.nways] }

// find returns the way of Tx-mode segment i holding key, or -1.
// Compressed tags may alias, so a tag match is confirmed against the
// stored full key, as hardware's full compare against the stored VPN
// bits does.
func (l *LDS) find(i int, key tlb.Key) int {
	w := l.tags[i].Find(l.tagValue(key))
	if w < 0 {
		return -1
	}
	if way := &l.ways[i*l.nways+w]; tlb.MakeKey(way.space, way.vpn) != key {
		return -1
	}
	return w
}

// entry returns the translation w holds.
func (w *txWay) entry() tlb.Entry { return tlb.Entry{Space: w.space, VPN: w.vpn, PFN: w.pfn} }

// Config returns the LDS configuration.
func (l *LDS) Config() Config { return l.cfg }

// Port exposes the access port (Fig 4b measures its idle gaps).
func (l *LDS) Port() *sim.Port { return l.port }

// Stats returns a copy of the counters.
func (l *LDS) Stats() Stats { return l.stats }

// NumSegments returns the segment count.
func (l *LDS) NumSegments() int { return len(l.segments) }

// segIndex maps a translation key to its direct-mapped segment
// (Figure 6c: VPN low bits index the segment).
func (l *LDS) segIndex(key tlb.Key) int {
	return int(uint64(key.VPN()) % uint64(len(l.segments)))
}

// tagValue is the compressed tag stored for a key: the VPN bits above
// the segment index, concatenated with the 4 address-space tag bits
// (Figure 7a), folded into the 16-bit base-delta domain. Folding keeps
// the hardware tag width honest; the full key is also kept functionally
// and verified on hit, so aliasing can never return a wrong translation
// — it only wastes a compression slot (counted as a miss like real
// hardware would after the full-tag compare).
func (l *LDS) tagValue(key tlb.Key) uint64 {
	v := uint64(key.VPN())/uint64(len(l.segments))<<4 | uint64(key)&0xF
	return v & 0xFFFF
}

// SegmentMode reports the mode of segment i.
func (l *LDS) SegmentMode(i int) Mode { return l.segments[i].mode }

// AllocWorkgroup reserves bytes of LDS for work-group wg in one
// contiguous block (first fit over segments, as the front-end scheduler
// does — §2.2). Tx-mode segments inside the chosen block are reclaimed
// instantly with no data movement: that is the whole point of the
// co-located tag/data layout (§4.2.3). It reports whether the
// reservation succeeded.
func (l *LDS) AllocWorkgroup(wg int, bytes int) bool {
	if bytes <= 0 {
		return true // LDS-free work-group
	}
	need := (bytes + l.cfg.SegmentBytes - 1) / l.cfg.SegmentBytes
	run := 0
	for i := range l.segments {
		if l.segments[i].mode == LDSMode {
			run = 0
			continue
		}
		run++
		if run == need {
			start := i - need + 1
			for j := start; j <= i; j++ {
				if l.segments[j].mode == TxMode {
					l.stats.TxLostToAlloc += uint64(l.tags[j].Live())
					l.tags[j].Clear()
				}
				l.segments[j].mode = LDSMode
				l.segments[j].wg = wg
			}
			l.allocs = append(l.allocs, allocation{wg: wg, startSeg: start, segs: need})
			return true
		}
	}
	l.stats.AllocFailures++
	return false
}

// FreeWorkgroup releases every allocation owned by wg.
func (l *LDS) FreeWorkgroup(wg int) {
	kept := l.allocs[:0]
	for _, a := range l.allocs {
		if a.wg != wg {
			kept = append(kept, a)
			continue
		}
		for j := a.startSeg; j < a.startSeg+a.segs; j++ {
			l.segments[j].mode = Free
			l.segments[j].wg = 0
		}
	}
	l.allocs = kept
}

// Allocation describes one live work-group reservation: wg owns segs
// contiguous segments starting at StartSeg.
type Allocation struct {
	WG       int
	StartSeg int
	Segs     int
}

// Allocations returns the live work-group reservations. The
// internal/check mode-consistency probe walks them to assert that every
// segment inside a reservation is in LDS-mode — the paper's "a Tx-mode
// segment can never overwrite an LDS-mode segment" invariant, live.
func (l *LDS) Allocations() []Allocation {
	out := make([]Allocation, len(l.allocs))
	for i, a := range l.allocs {
		out[i] = Allocation{WG: a.wg, StartSeg: a.startSeg, Segs: a.segs}
	}
	return out
}

// AllocatedBytes returns the bytes currently reserved by work-groups.
func (l *LDS) AllocatedBytes() int {
	n := 0
	for _, a := range l.allocs {
		n += a.segs * l.cfg.SegmentBytes
	}
	return n
}

// FreeTxCapacity returns how many additional translations the LDS could
// hold right now (Fig 15's "entries gained" accounting).
func (l *LDS) FreeTxCapacity() int {
	n := 0
	for i := range l.segments {
		switch l.segments[i].mode {
		case Free:
			n += l.nways
		case TxMode:
			n += l.nways - l.tags[i].Live()
		}
	}
	return n
}

// TxResident returns the number of translations currently cached.
func (l *LDS) TxResident() int {
	n := 0
	for i := range l.segments {
		if l.segments[i].mode == TxMode {
			n += l.tags[i].Live()
		}
	}
	return n
}

// AppAccess models a regular application LDS reference: it occupies the
// port and returns the completion time.
func (l *LDS) AppAccess() sim.Time {
	l.stats.AppAccesses++
	grant := l.port.Acquire()
	return grant + l.cfg.AppLatency
}

// TxLookupLatency is the full translation probe cost: SRAM access + MUX
// + decompression + any layout wire latency (Table 1 plus §6.3.3).
func (l *LDS) TxLookupLatency() sim.Time {
	return l.cfg.TxLatency + l.cfg.MuxLatency + l.cfg.DecompLat + l.cfg.ExtraWireLatency
}

// TxLookup probes the victim store for key. It occupies the port and
// returns the entry, whether it hit, and the completion time.
func (l *LDS) TxLookup(key tlb.Key) (tlb.Entry, bool, sim.Time) {
	grant := l.port.Acquire()
	e, hit := l.txLookup(key)
	return e, hit, grant + l.TxLookupLatency()
}

// WarmTxLookup is TxLookup for fast-forward warming: identical probe,
// LRU and counter transitions, but no port acquisition — fast-forward
// consumes no time, so a grant would only distort the port's
// utilization series (which Engine.RelaxPorts then has to unwind).
func (l *LDS) WarmTxLookup(key tlb.Key) (tlb.Entry, bool) {
	return l.txLookup(key)
}

// txLookup is the content half of a victim-store probe, shared by the
// detailed and warming forms.
func (l *LDS) txLookup(key tlb.Key) (tlb.Entry, bool) {
	l.stats.TxLookups++
	i := l.segIndex(key)
	if l.segments[i].mode != TxMode {
		return tlb.Entry{}, false
	}
	w := l.find(i, key)
	if w < 0 {
		return tlb.Entry{}, false
	}
	way := &l.segWays(i)[w]
	l.clock++
	way.stamp = l.clock
	l.stats.TxHits++
	return way.entry(), true
}

// TxProbe reports whether key is resident right now, with no port,
// latency, LRU, or counter side effects. The victim path uses it to
// re-validate an in-flight hit at delivery time (the entry may have
// been shot down or reclaimed mid-access), and the internal/check
// probes use it for absence checks after a shootdown.
func (l *LDS) TxProbe(key tlb.Key) (tlb.Entry, bool) {
	i := l.segIndex(key)
	if l.segments[i].mode != TxMode {
		return tlb.Entry{}, false
	}
	w := l.find(i, key)
	if w < 0 {
		return tlb.Entry{}, false
	}
	return l.segWays(i)[w].entry(), true
}

// TxInsert offers entry e to the victim store (an L1-TLB eviction,
// Figure 12 flow ①→②). Outcomes:
//   - inserted, possibly with a victim translation evicted from the
//     segment (the caller forwards victims toward the I-cache / L2 TLB);
//   - bypassed because the segment is application-owned or the tag did
//     not compress.
func (l *LDS) TxInsert(e tlb.Entry) (victim tlb.Entry, hasVictim, inserted bool) {
	key := e.Key()
	i := l.segIndex(key)
	seg := &l.segments[i]
	switch seg.mode {
	case LDSMode:
		l.stats.TxBypassLDSMode++
		return tlb.Entry{}, false, false
	case Free:
		if l.tags == nil {
			l.allocTx()
		}
		seg.mode = TxMode
		l.tags[i].Clear()
	}
	l.port.Acquire() // fills consume port bandwidth

	tags, ways := &l.tags[i], l.segWays(i)

	// Refresh if the same key is already resident.
	if w := l.find(i, key); w >= 0 {
		ways[w].pfn = e.PFN
		l.clock++
		ways[w].stamp = l.clock
		return tlb.Entry{}, false, true
	}

	// Choose a way: first invalid, else LRU.
	way := -1
	for w := range ways {
		if _, live := tags.Get(w); !live {
			way = w
			break
		}
	}
	evicting := false
	if way < 0 {
		way = 0
		for w := 1; w < len(ways); w++ {
			if ways[w].stamp < ways[way].stamp {
				way = w
			}
		}
		evicting = true
	}

	if evicting {
		victim = ways[way].entry()
		tags.Invalidate(way)
	}
	if !tags.Add(way, l.tagValue(key)) {
		// Tag does not fit this segment's base: the hardware cannot
		// store it; the insert is dropped (and the way we freed stays
		// free). The entry continues down the fill flow.
		l.stats.CompressionRejects++
		return victim, evicting, false
	}
	l.clock++
	ways[way] = txWay{pfn: e.PFN, vpn: e.VPN, stamp: l.clock, space: e.Space}
	l.stats.TxInserts++
	if evicting {
		l.stats.TxEvictions++
	}
	return victim, evicting, true
}

// Shootdown invalidates key if cached (§7.1) and reports whether an
// entry was removed.
func (l *LDS) Shootdown(key tlb.Key) bool {
	i := l.segIndex(key)
	if l.segments[i].mode != TxMode {
		return false
	}
	w := l.find(i, key)
	if w < 0 {
		return false
	}
	l.tags[i].Invalidate(w)
	l.stats.Shootdowns++
	return true
}

// ForEachTx calls fn for every resident translation (Fig 14a sharing
// analysis).
func (l *LDS) ForEachTx(fn func(tlb.Entry)) {
	for i := range l.segments {
		if l.segments[i].mode != TxMode {
			continue
		}
		ways := l.segWays(i)
		for w := range ways {
			if _, live := l.tags[i].Get(w); live {
				fn(ways[w].entry())
			}
		}
	}
}
