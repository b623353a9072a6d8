package gpu

import (
	"gpureach/internal/cache"
	"gpureach/internal/icache"
	"gpureach/internal/lds"
	"gpureach/internal/sim"
	"gpureach/internal/tlb"
	"gpureach/internal/vm"
)

// Config sets the GPU shape (Table 1: 8 CUs, 4 SIMDs per CU, 10 waves
// per SIMD, 64 threads per wave) and core timing.
type Config struct {
	NumCUs       int
	SIMDsPerCU   int
	WavesPerSIMD int
	Lanes        int

	ALULatency sim.Time
	// InstrBytes is the encoded size of one instruction; IBLines is the
	// per-wave instruction-buffer capacity in cache lines (§2.3).
	InstrBytes int
	IBLines    int
	LineBytes  int

	L1TLBEntries int
	L1TLBLatency sim.Time

	// KernelLaunchLatency is the host-side dispatch cost charged between
	// kernel launches (command processing, packet decode). End-to-end
	// runs of many-kernel applications (NW, SSSP, PRK) are dominated by
	// it, which is why the paper's §4.3.3 I-cache flush is harmless for
	// them: the refetch hides under the launch.
	KernelLaunchLatency sim.Time
}

// DefaultConfig returns the Table 1 GPU shape.
func DefaultConfig() Config {
	return Config{
		NumCUs:       8,
		SIMDsPerCU:   4,
		WavesPerSIMD: 10,
		Lanes:        64,
		ALULatency:   4,
		InstrBytes:   8,
		IBLines:      4,
		LineBytes:    64,
		L1TLBEntries: 32,
		L1TLBLatency: 108,

		KernelLaunchLatency: 6000,
	}
}

// WaveSlotsPerCU returns the resident-wave capacity of one CU.
func (c Config) WaveSlotsPerCU() int { return c.SIMDsPerCU * c.WavesPerSIMD }

// CUStats counts per-CU activity.
type CUStats struct {
	WaveInstrs   uint64
	ThreadInstrs uint64
	MemInstrs    uint64
	LDSInstrs    uint64
	Fetches      uint64
	IBHits       uint64
	Prefetches   uint64
	// FetchesMerged counts demand fetches that rode an in-flight fill
	// of the same line instead of issuing a duplicate L2 read;
	// PrefetchesMerged counts next-line prefetches squashed for the
	// same reason (MSHR-style dedup in the I-cache).
	FetchesMerged    uint64
	PrefetchesMerged uint64
	WGsRun           uint64
}

type simdUnit struct {
	issue    *sim.Port
	resident int
}

// CU is one Compute Unit.
type CU struct {
	ID  int
	eng *sim.Engine
	cfg Config
	sys *System

	LDS    *lds.LDS
	IC     *icache.ICache
	ICBack cache.Memory // services I-cache misses (the shared L2)
	L1D    *cache.Cache
	Xlat   *Xlat

	simds       []*simdUnit
	activeWaves int

	fetchPool sim.Pool[fetchReq]
	memPool   sim.Pool[memReq]
	groupPool sim.Pool[pageGroup]
	// gscratch lists the page groups of the instruction being
	// coalesced and pages indexes them by VPN; both are reused by every
	// memory instruction. Safe because grouping is confined to one
	// synchronous memAccessEvent (or warmMemAccess) invocation:
	// translations never complete before the issuing loop returns.
	gscratch []*pageGroup
	pages    pageIndex

	stats CUStats
}

// fetchReq is the pooled context of one instruction fetch or prefetch
// travelling I-cache → L2.
type fetchReq struct {
	cu   *CU
	addr vm.PA
	h    sim.Handler
	ctx  any
}

// memReq is the pooled context of one wave memory instruction: it
// tracks the SIMT-lockstep completion count across the instruction's
// unique cache lines.
type memReq struct {
	cu        *CU
	remaining int
	write     bool
	pageBits  uint
	h         sim.Handler
	ctx       any
}

// pageGroup collects the unique page-relative line offsets of one
// page touched by a memory instruction. Lane counts are ≤64, so small
// slices beat maps here.
type pageGroup struct {
	req   *memReq
	vpn   vm.VPN
	lines []uint64
}

// NewCU assembles a compute unit from its structures. The system
// pointer is set when the CU is registered with a System.
func NewCU(eng *sim.Engine, id int, cfg Config, ldsUnit *lds.LDS, ic *icache.ICache, icBack cache.Memory, l1d *cache.Cache, xlat *Xlat) *CU {
	cu := &CU{
		ID:     id,
		eng:    eng,
		cfg:    cfg,
		LDS:    ldsUnit,
		IC:     ic,
		ICBack: icBack,
		L1D:    l1d,
		Xlat:   xlat,
		pages:  newPageIndex(cfg.Lanes),
	}
	for i := 0; i < cfg.SIMDsPerCU; i++ {
		cu.simds = append(cu.simds, &simdUnit{issue: sim.NewPort(eng, 1)})
	}
	return cu
}

// Stats returns a copy of the CU counters.
func (cu *CU) Stats() CUStats { return cu.stats }

// freeSlots returns how many more waves the CU can host.
func (cu *CU) freeSlots() int { return cu.cfg.WaveSlotsPerCU() - cu.activeWaves }

// leastLoadedSIMD picks the SIMD with the fewest resident waves (the
// static wave-to-SIMD assignment of §2.3).
func (cu *CU) leastLoadedSIMD() *simdUnit {
	best := cu.simds[0]
	for _, s := range cu.simds[1:] {
		if s.resident < best.resident {
			best = s
		}
	}
	return best
}

// fetch services one instruction-buffer fill: I-cache probe, then the
// L2 on a miss. A miss also prefetches the next sequential line in the
// background — the IC_prefetches events of the paper's Equation 1 —
// which keeps straight-line code from stalling on every line boundary.
func (cu *CU) fetch(addr vm.PA, done func()) {
	cu.fetchEvent(addr, callClosure, done)
}

// callClosure adapts the closure-style entry points onto the handler
// form: the func value rides in the ctx word.
func callClosure(ctx any) { ctx.(func())() }

// fetchEvent is the allocation-free form of fetch: h(ctx) runs when
// the instruction is available.
func (cu *CU) fetchEvent(addr vm.PA, h sim.Handler, ctx any) {
	cu.stats.Fetches++
	hit, finish := cu.IC.Fetch(addr)

	// Stream the next sequential line in the background whether this
	// fetch hit or missed, so straight-line code stays ahead of the
	// wavefronts.
	next := addr + vm.PA(cu.cfg.LineBytes)
	if !cu.IC.HasInstr(next) {
		cu.stats.Prefetches++
		r := cu.fetchPool.Get()
		r.cu = cu
		r.addr = next
		cu.eng.AtEvent(finish, prefetchStart, r)
	}

	if hit {
		cu.eng.AtEvent(finish, h, ctx)
		return
	}
	r := cu.fetchPool.Get()
	r.cu = cu
	r.addr = addr
	r.h = h
	r.ctx = ctx
	cu.eng.AtEvent(finish, fetchMissStart, r)
}

func (cu *CU) putFetch(r *fetchReq) {
	r.cu = nil
	r.h = nil
	r.ctx = nil
	cu.fetchPool.Put(r)
}

// prefetchStart issues the background next-line L2 read once the
// I-cache probe completes — unless another fetch unit already has that
// line's fill in flight, in which case the duplicate read is squashed.
func prefetchStart(x any) {
	r := x.(*fetchReq)
	cu := r.cu
	if !cu.IC.StartFill(r.addr) {
		cu.stats.PrefetchesMerged++
		cu.putFetch(r)
		return
	}
	cu.ICBack.AccessEvent(r.addr, false, prefetchDone, r)
}

// prefetchDone installs a completed background prefetch and wakes any
// demand fetches that merged onto it.
func prefetchDone(x any) {
	r := x.(*fetchReq)
	cu := r.cu
	cu.IC.CompleteFill(r.addr)
	cu.putFetch(r)
}

// fetchMissStart issues the demand L2 read once the I-cache probe
// completes. If the line's fill is already in flight (another wave's
// miss or a background prefetch), the fetch merges onto it instead of
// issuing a duplicate L2 read.
func fetchMissStart(x any) {
	r := x.(*fetchReq)
	cu := r.cu
	if !cu.IC.StartFill(r.addr) {
		cu.stats.FetchesMerged++
		cu.IC.WaitFill(r.addr, fetchMergedDone, r)
		return
	}
	cu.ICBack.AccessEvent(r.addr, false, fetchMissDone, r)
}

// fetchMissDone installs the demand line, wakes merged requesters, then
// resumes the owning wave.
func fetchMissDone(x any) {
	r := x.(*fetchReq)
	cu := r.cu
	cu.IC.CompleteFill(r.addr)
	h, ctx := r.h, r.ctx
	cu.putFetch(r)
	h(ctx)
}

// fetchMergedDone resumes a wave whose fetch rode another request's
// fill.
func fetchMergedDone(x any) {
	r := x.(*fetchReq)
	cu := r.cu
	h, ctx := r.h, r.ctx
	cu.putFetch(r)
	h(ctx)
}

// memAccess issues one wave memory instruction: lane addresses are
// coalesced into unique pages (one translation each) and unique cache
// lines (one data access each); done fires when every line completes —
// SIMT lockstep (§3.1: "a single wavefront might have to wait for many
// page table walks to resolve").
func (cu *CU) memAccess(space *vm.AddrSpace, addrs []vm.VA, write bool, done func()) {
	cu.memAccessEvent(space, addrs, write, callClosure, done)
}

// memAccessEvent is the allocation-free form of memAccess: h(ctx) runs
// when every coalesced line completes.
func (cu *CU) memAccessEvent(space *vm.AddrSpace, addrs []vm.VA, write bool, h sim.Handler, ctx any) {
	if len(addrs) == 0 {
		h(ctx)
		return
	}
	pageBits := space.PageSize().Bits()
	groups := cu.groupLanes(addrs, pageBits, true)

	r := cu.memPool.Get()
	r.cu = cu
	r.write = write
	r.pageBits = pageBits
	r.h = h
	r.ctx = ctx
	remaining := 0
	for _, g := range groups {
		remaining += len(g.lines)
	}
	r.remaining = remaining
	for _, g := range groups {
		g.req = r
		cu.Xlat.TranslateEvent(space, g.vpn, memTranslated, g)
	}
	cu.gscratch = groups[:0]
}

// warmMemAccess is the fast-forward form of memAccessEvent: lane
// addresses dedupe to unique pages (exactly as the coalescer would)
// and each unique page takes one warm translation through the full
// L1-TLB → victim-path → IOMMU chain. The data-cache hierarchy is
// deliberately not touched — fast-forward skips all data traffic (see
// DESIGN.md on the warming contract).
func (cu *CU) warmMemAccess(space *vm.AddrSpace, addrs []vm.VA) {
	if len(addrs) == 0 {
		return
	}
	groups := cu.groupLanes(addrs, space.PageSize().Bits(), false)
	for _, g := range groups {
		cu.Xlat.WarmTranslate(space, g.vpn)
		cu.groupPool.Put(g)
	}
	cu.gscratch = groups[:0]
}

// memTranslated fans one page's coalesced lines into the L1 data cache
// once its translation resolves. The group is recycled immediately:
// line completions carry the shared memReq, not the group.
func memTranslated(x any, e tlb.Entry) {
	g := x.(*pageGroup)
	r := g.req
	cu := r.cu
	base := vm.PA(uint64(e.PFN) << r.pageBits)
	for _, off := range g.lines {
		cu.L1D.AccessEvent(base+vm.PA(off), r.write, memLineDone, r)
	}
	g.req = nil
	g.lines = g.lines[:0]
	cu.groupPool.Put(g)
}

// memLineDone retires one cache-line completion; the last line of the
// instruction wakes the wave (SIMT lockstep).
func memLineDone(x any) {
	r := x.(*memReq)
	r.remaining--
	if r.remaining == 0 {
		cu := r.cu
		h, ctx := r.h, r.ctx
		r.cu = nil
		r.h = nil
		r.ctx = nil
		cu.memPool.Put(r)
		h(ctx)
	}
}
