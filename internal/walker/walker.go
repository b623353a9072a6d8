// Package walker models the IOMMU that services GPU L2-TLB misses
// (Table 1: 32 concurrent page-table walkers, device-side L1/L2 TLBs of
// 32/256 entries, and split PGD/PUD/PMD page-walk caches of 4/8/32
// entries following Barr et al. [10]). Walks are not free abstractions:
// each remaining page-table level issues a real memory reference
// through the cache hierarchy handed to New, so walk latency reflects
// L2-cache and DRAM contention exactly as in the paper's gem5 model.
package walker

import (
	"gpureach/internal/cache"
	"gpureach/internal/sim"
	"gpureach/internal/tlb"
	"gpureach/internal/vm"
)

// Config sets the IOMMU geometry and latencies.
type Config struct {
	NumWalkers int
	L1Entries  int // device L1 TLB
	L2Entries  int // device L2 TLB
	PGDEntries int
	PUDEntries int
	PMDEntries int
	// TLBLatency is charged for probing the device TLBs before a walk.
	TLBLatency sim.Time
}

// DefaultConfig returns the Table 1 IOMMU configuration.
func DefaultConfig() Config {
	return Config{
		NumWalkers: 32,
		L1Entries:  32,
		L2Entries:  256,
		PGDEntries: 4,
		PUDEntries: 8,
		PMDEntries: 32,
		TLBLatency: 20,
	}
}

// Stats reports IOMMU activity.
type Stats struct {
	Requests    uint64
	DevTLBHits  uint64
	Walks       uint64
	WalkSteps   uint64
	PWCHitPGD   uint64
	PWCHitPUD   uint64
	PWCHitPMD   uint64
	PWCMiss     uint64
	MaxQueue    int
	MergedWalks uint64
	// StalledWalks counts walks whose start was deferred by an injected
	// walker stall (chaos harness).
	StalledWalks uint64
}

// pwc is a tiny fully-associative page-walk cache over prefix keys with
// true-LRU replacement, stored as parallel key/stamp arrays (stamp 0
// means the slot is empty; the clock starts at 1). At 4–32 entries a
// linear scan is an order of magnitude cheaper than the map this used
// to be, and both the detailed walkers and fast-forward warming probe
// these caches on every walk. Stamps are unique, so the min-stamp
// eviction is exactly the map version's LRU choice.
type pwc struct {
	keys   []uint64
	stamps []uint64
	clock  uint64
	hits   uint64
}

func newPWC(entries int) *pwc {
	return &pwc{keys: make([]uint64, entries), stamps: make([]uint64, entries)}
}

func (p *pwc) probe(key uint64) bool {
	for i, s := range p.stamps {
		if s != 0 && p.keys[i] == key {
			p.clock++
			p.stamps[i] = p.clock
			p.hits++
			return true
		}
	}
	return false
}

func (p *pwc) fill(key uint64) {
	if len(p.keys) == 0 {
		return
	}
	p.clock++
	free, lru := -1, 0
	for i, s := range p.stamps {
		if s == 0 {
			if free < 0 {
				free = i
			}
			continue
		}
		if p.keys[i] == key {
			p.stamps[i] = p.clock // refresh on re-fill
			return
		}
		if s < p.stamps[lru] {
			lru = i
		}
	}
	if free >= 0 {
		lru = free
	}
	p.keys[lru] = key
	p.stamps[lru] = p.clock
}

// walkReq is the pooled context of one translation request, reused
// across the probe → queue → walk-step → finish event chain so the
// walker schedules every step allocation-free.
type walkReq struct {
	io    *IOMMU
	space *vm.AddrSpace
	vpn   vm.VPN
	key   tlb.Key
	walk  vm.Walk
	idx   int
}

// walkQueue is the FIFO of requests waiting for a free walker: a ring
// over a power-of-two buffer that doubles when full. Dequeue is O(1)
// and a drained queue's storage serves the next burst, so a saturated
// walker pool allocates only while the queue reaches a new depth.
type walkQueue struct {
	buf  []*walkReq
	head int
	n    int // live entries
}

func (q *walkQueue) push(r *walkReq) {
	if q.n == len(q.buf) {
		buf := make([]*walkReq, max(2*len(q.buf), 16))
		copied := copy(buf, q.buf[q.head:])
		copy(buf[copied:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = r
	q.n++
}

func (q *walkQueue) pop() *walkReq {
	r := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return r
}

// IOMMU is the translation agent of last resort before memory.
type IOMMU struct {
	eng  *sim.Engine
	cfg  Config
	mem  cache.Memory
	l1   *tlb.TLB
	l2   *tlb.TLB
	pgd  *pwc
	pud  *pwc
	pmd  *pwc
	coal *tlb.Coalescer

	freeWalkers int
	queue       walkQueue
	reqPool     sim.Pool[walkReq]
	stats       Stats
	// stallUntil defers walks started before this cycle — the chaos
	// harness models a stalled walker pipeline by pushing it forward.
	stallUntil sim.Time
}

// New builds an IOMMU whose walks reference memory through mem
// (normally the shared L2 data cache, which misses to DRAM).
func New(eng *sim.Engine, cfg Config, mem cache.Memory) *IOMMU {
	if cfg.NumWalkers <= 0 {
		panic("walker: need at least one walker")
	}
	return &IOMMU{
		eng:         eng,
		cfg:         cfg,
		mem:         mem,
		l1:          tlb.New("iommu-l1", cfg.L1Entries, cfg.L1Entries),
		l2:          tlb.New("iommu-l2", cfg.L2Entries, min(cfg.L2Entries, 8)),
		pgd:         newPWC(cfg.PGDEntries),
		pud:         newPWC(cfg.PUDEntries),
		pmd:         newPWC(cfg.PMDEntries),
		coal:        tlb.NewCoalescer(),
		freeWalkers: cfg.NumWalkers,
	}
}

// Stats returns a copy of the counters, folding in PWC hits.
func (io *IOMMU) Stats() Stats {
	s := io.stats
	s.PWCHitPGD = io.pgd.hits
	s.PWCHitPUD = io.pud.hits
	s.PWCHitPMD = io.pmd.hits
	return s
}

// DeviceTLBStats exposes the device-side TLB counters (L1, L2).
func (io *IOMMU) DeviceTLBStats() (tlb.Stats, tlb.Stats) {
	return io.l1.Stats(), io.l2.Stats()
}

// DeviceTLBs exposes the device-side TLB arrays (L1, L2) for the live
// invariant probes (internal/check): shootdown coverage and coherence
// must inspect actual residency, not just counters.
func (io *IOMMU) DeviceTLBs() (*tlb.TLB, *tlb.TLB) { return io.l1, io.l2 }

// StallWalkers defers the start of every walk issued during the next d
// cycles to the end of that window — the chaos harness's model of a
// stalled walker pipeline (ECC scrub, ATS retry, fabric backpressure).
// Overlapping stalls extend the window rather than stacking.
func (io *IOMMU) StallWalkers(d sim.Time) {
	if until := io.eng.Now() + d; until > io.stallUntil {
		io.stallUntil = until
	}
}

// WalkersStalled reports whether a stall window is currently open.
func (io *IOMMU) WalkersStalled() bool { return io.stallUntil > io.eng.Now() }

// Translate resolves vpn in space, calling done with the completed
// entry. The path is: device L1/L2 TLB → page-walk caches → remaining
// page-table levels via memory. Concurrent requests for the same page
// are merged.
func (io *IOMMU) Translate(space *vm.AddrSpace, vpn vm.VPN, done func(tlb.Entry)) {
	io.TranslateEvent(space, vpn, callEntryClosure, done)
}

// callEntryClosure adapts the closure-style Translate API onto the
// handler form: the func value rides in the ctx word.
func callEntryClosure(ctx any, e tlb.Entry) { ctx.(func(tlb.Entry))(e) }

// TranslateEvent is the allocation-free form of Translate: h(ctx, e)
// runs with the completed entry.
func (io *IOMMU) TranslateEvent(space *vm.AddrSpace, vpn vm.VPN, h tlb.EntryHandler, ctx any) {
	io.stats.Requests++
	key := tlb.MakeKey(space.ID, vpn)

	first := io.coal.JoinEvent(key, h, ctx)
	if !first {
		io.stats.MergedWalks++
		return
	}

	r := io.reqPool.Get()
	r.io = io
	r.space = space
	r.vpn = vpn
	r.key = key
	io.eng.AfterEvent(io.cfg.TLBLatency, walkerProbe, r)
}

// put recycles a finished request, dropping the references it holds.
func (io *IOMMU) put(r *walkReq) {
	r.space = nil
	io.reqPool.Put(r)
}

// walkerProbe runs after the device-TLB probe latency: TLB hits
// complete immediately, misses enter the walker queue.
func walkerProbe(x any) {
	r := x.(*walkReq)
	io := r.io
	if e, ok := io.l1.Lookup(r.key); ok {
		io.stats.DevTLBHits++
		io.coal.Complete(r.key, e)
		io.put(r)
		return
	}
	if e, ok := io.l2.Lookup(r.key); ok {
		io.stats.DevTLBHits++
		io.l1.Insert(e)
		io.coal.Complete(r.key, e)
		io.put(r)
		return
	}
	io.enqueueWalk(r)
}

func (io *IOMMU) enqueueWalk(r *walkReq) {
	if io.freeWalkers > 0 {
		io.freeWalkers--
		io.startWalk(r)
		return
	}
	io.queue.push(r)
	if io.queue.n > io.stats.MaxQueue {
		io.stats.MaxQueue = io.queue.n
	}
}

func (io *IOMMU) releaseWalker() {
	if io.queue.n == 0 {
		io.freeWalkers++
		return
	}
	io.startWalk(io.queue.pop())
}

// walkerStart re-enters startWalk when a stall window closes.
func walkerStart(x any) {
	r := x.(*walkReq)
	r.io.startWalk(r)
}

// startWalk performs the actual multi-level walk. The deepest page-walk
// cache hit determines how many upper levels are skipped: a PMD hit
// leaves only the PTE access, a PUD hit two accesses, and so on.
func (io *IOMMU) startWalk(r *walkReq) {
	if io.stallUntil > io.eng.Now() {
		io.stats.StalledWalks++
		io.eng.AtEvent(io.stallUntil, walkerStart, r)
		return
	}
	vpn := r.vpn
	io.stats.Walks++
	pt := r.space.PageTable()
	r.walk = pt.Walk(vpn)
	if !r.walk.OK {
		io.eng.Failf(sim.ErrPageFault, "walker: page fault for %s vpn=%#x — workloads must touch only allocated buffers", r.space.ID, vpn)
	}
	r.idx = io.probePWC(pt, vpn, r.walk.Levels)
	io.walkStep(r)
}

// probePWC probes the page-walk caches deepest first and returns how
// many upper levels of a levels-deep walk the hit skips. Prefix level L
// covers the first L radix indices; a hit there means the node for
// level L+1 is known. 2MB pages walk 3 levels, so a "PMD" probe is
// meaningless there, and prefix keys encode the level so the caches
// never alias.
func (io *IOMMU) probePWC(pt *vm.PageTable, vpn vm.VPN, levels int) int {
	switch {
	case levels >= 4 && io.pmd.probe(pt.PrefixKey(vpn, 3)):
		return 3
	case levels >= 3 && io.pud.probe(pt.PrefixKey(vpn, 2)):
		return 2
	case io.pgd.probe(pt.PrefixKey(vpn, 1)):
		return 1
	}
	io.stats.PWCMiss++
	return 0
}

// fillPWC installs the prefixes a completed levels-deep walk resolved.
func (io *IOMMU) fillPWC(pt *vm.PageTable, vpn vm.VPN, levels int) {
	io.pgd.fill(pt.PrefixKey(vpn, 1))
	if levels >= 3 {
		io.pud.fill(pt.PrefixKey(vpn, 2))
	}
	if levels >= 4 {
		io.pmd.fill(pt.PrefixKey(vpn, 3))
	}
}

// walkerStepDone advances the walk after one level's memory reference.
func walkerStepDone(x any) {
	r := x.(*walkReq)
	r.idx++
	r.io.walkStep(r)
}

func (io *IOMMU) walkStep(r *walkReq) {
	if r.idx >= r.walk.Levels {
		io.finishWalk(r)
		return
	}
	io.stats.WalkSteps++
	step := r.walk.Steps[r.idx]
	io.mem.AccessEvent(step, false, walkerStepDone, r)
}

func (io *IOMMU) finishWalk(r *walkReq) {
	vpn := r.vpn
	pt := r.space.PageTable()
	io.fillPWC(pt, vpn, r.walk.Levels)
	// Re-read the leaf at completion time instead of using the PFN
	// captured when the walk started: a page migration that remapped the
	// VPN while the walk's memory references were in flight is observed
	// by the final PTE read, exactly as hardware reading the PTE would —
	// otherwise the stale PFN would be installed into every TLB level
	// ("dead on arrival" entries).
	pfn, ok := pt.Lookup(vpn)
	if !ok {
		io.eng.Failf(sim.ErrPageFault, "walker: %s vpn=%#x unmapped at walk completion (racing unmap?)", r.space.ID, vpn)
	}
	entry := tlb.Entry{Space: r.space.ID, VPN: vpn, PFN: pfn}
	io.l2.Insert(entry)
	io.l1.Insert(entry)
	key := r.key
	io.put(r)
	io.coal.Complete(key, entry)
	io.releaseWalker()
}

// WarmTranslate is the functional-warming form of Translate used by
// sampled execution's fast-forward mode: the complete device-TLB →
// PWC → page-table resolution with every state transition and counter
// of the detailed path (TLB LRU touches and fills, PWC probes and
// fills, Walks/WalkSteps/PWCMiss accounting), but synchronously and
// with no memory traffic, queueing or stall windows. Requests are not
// coalesced — fast-forward resolves one page at a time — so
// MergedWalks stays a detailed-mode-only statistic. A page fault
// still fails the run: warming must not paper over workload bugs.
func (io *IOMMU) WarmTranslate(space *vm.AddrSpace, vpn vm.VPN) tlb.Entry {
	io.stats.Requests++
	key := tlb.MakeKey(space.ID, vpn)
	if e, ok := io.l1.Lookup(key); ok {
		io.stats.DevTLBHits++
		return e
	}
	if e, ok := io.l2.Lookup(key); ok {
		io.stats.DevTLBHits++
		io.l1.Insert(e)
		return e
	}
	io.stats.Walks++
	pt := space.PageTable()
	// A successful walk reads one entry per level, and warming issues no
	// memory references, so the leaf lookup and the level count stand in
	// for the step addresses.
	pfn, ok := pt.Lookup(vpn)
	if !ok {
		io.eng.Failf(sim.ErrPageFault, "walker: page fault for %s vpn=%#x — workloads must touch only allocated buffers", space.ID, vpn)
	}
	levels := space.PageSize().WalkLevels()
	io.stats.WalkSteps += uint64(levels - io.probePWC(pt, vpn, levels))
	io.fillPWC(pt, vpn, levels)
	entry := tlb.Entry{Space: space.ID, VPN: vpn, PFN: pfn}
	io.l2.Insert(entry)
	io.l1.Insert(entry)
	return entry
}

// Shootdown invalidates vpn in the device TLBs (§7.1). Page-walk caches
// hold intermediate nodes, not leaves, so they are left alone — exactly
// like hardware, where PWC entries are invalidated only on table-node
// frees.
func (io *IOMMU) Shootdown(space vm.SpaceID, vpn vm.VPN) {
	key := tlb.MakeKey(space, vpn)
	io.l1.Invalidate(key)
	io.l2.Invalidate(key)
}
