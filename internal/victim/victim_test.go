package victim

import (
	"testing"

	"gpureach/internal/ducati"
	"gpureach/internal/icache"
	"gpureach/internal/lds"
	"gpureach/internal/sim"
	"gpureach/internal/tlb"
	"gpureach/internal/vm"
	"gpureach/internal/walker"
)

type fakeMem struct {
	eng      *sim.Engine
	accesses int
}

func (m *fakeMem) AccessEvent(addr vm.PA, write bool, h sim.Handler, ctx any) {
	m.accesses++
	m.eng.AfterEvent(50, h, ctx)
}

type harness struct {
	eng   *sim.Engine
	mem   *fakeMem
	space *vm.AddrSpace
	l2    *L2TLB
	path  *Path
}

// newHarness builds a single-CU translation system. useLDS/useIC select
// the victim structures; withDucati adds the §6.3.4 store.
func newHarness(t *testing.T, useLDS, useIC, withDucati bool) *harness {
	t.Helper()
	eng := sim.NewEngine()
	mem := &fakeMem{eng: eng}
	frames := vm.NewFrameAllocator(16 << 30)
	space := vm.NewAddrSpace(vm.SpaceID{}, frames, vm.Page4K)
	iommu := walker.New(eng, walker.DefaultConfig(), mem)
	l2 := NewL2TLB(eng, 512, 16, 188, iommu)
	if withDucati {
		l2.Ducati = ducati.New(mem, 8<<30, 4096)
	}
	p := &Path{Eng: eng, L2: l2}
	if useLDS {
		p.LDS = lds.New(eng, lds.DefaultConfig())
	}
	if useIC {
		p.IC = icache.New(eng, icache.DefaultConfig())
	}
	return &harness{eng: eng, mem: mem, space: space, l2: l2, path: p}
}

func (h *harness) translate(t *testing.T, vpn vm.VPN) tlb.Entry {
	t.Helper()
	var got tlb.Entry
	done := false
	h.path.Translate(h.space, vpn, func(e tlb.Entry) { got = e; done = true })
	h.eng.Run()
	if !done {
		t.Fatalf("translation of vpn %d never completed", vpn)
	}
	return got
}

func TestBaselineDropsVictims(t *testing.T) {
	h := newHarness(t, false, false, false)
	buf := h.space.Alloc("A", 4096)
	vpn := h.space.VPN(buf.Base)
	h.translate(t, vpn)
	h.path.FillVictim(tlb.Entry{Space: h.space.ID, VPN: vpn, PFN: 1})
	if h.path.Stats().DroppedBaseline != 1 {
		t.Errorf("baseline victim not dropped: %+v", h.path.Stats())
	}
	if h.l2.TLB.Occupied() != 1 {
		t.Errorf("L2 occupancy = %d, want only the walk fill", h.l2.TLB.Occupied())
	}
}

func TestWalkPathFillsL2(t *testing.T) {
	h := newHarness(t, false, false, false)
	buf := h.space.Alloc("A", 4096)
	vpn := h.space.VPN(buf.Base)
	e := h.translate(t, vpn)
	want, _ := h.space.Translate(buf.Base)
	if uint64(e.PFN) != uint64(want)>>12 {
		t.Errorf("PFN = %d, want %d", e.PFN, uint64(want)>>12)
	}
	if h.l2.PageWalksStarted != 1 {
		t.Errorf("walks = %d", h.l2.PageWalksStarted)
	}
	// Second translate: L2 hit, no walk.
	h.translate(t, vpn)
	if h.l2.PageWalksStarted != 1 {
		t.Error("L2 hit still walked")
	}
}

func TestLDSVictimHitAvoidsL2(t *testing.T) {
	h := newHarness(t, true, false, false)
	buf := h.space.Alloc("A", 4096)
	vpn := h.space.VPN(buf.Base)
	e := tlb.Entry{Space: h.space.ID, VPN: vpn, PFN: 42}
	h.path.FillVictim(e)
	if h.path.Stats().FilledLDS != 1 {
		t.Fatalf("fill did not land in LDS: %+v", h.path.Stats())
	}
	got := h.translate(t, vpn)
	if got.PFN != 42 {
		t.Errorf("PFN = %d, want 42 (from LDS)", got.PFN)
	}
	s := h.path.Stats()
	if s.LDSHits != 1 || s.L2Reached != 0 {
		t.Errorf("stats = %+v", s)
	}
	if h.l2.PageWalksStarted != 0 {
		t.Error("LDS hit still walked")
	}
}

func TestICVictimHitWhenLDSBlocked(t *testing.T) {
	h := newHarness(t, true, true, false)
	// Occupy the whole LDS with a work-group so fills bypass to the IC.
	h.path.LDS.AllocWorkgroup(1, h.path.LDS.Config().SizeBytes)
	buf := h.space.Alloc("A", 4096)
	vpn := h.space.VPN(buf.Base)
	h.path.FillVictim(tlb.Entry{Space: h.space.ID, VPN: vpn, PFN: 7})
	s := h.path.Stats()
	if s.FilledLDS != 0 || s.FilledIC != 1 {
		t.Fatalf("fill flow wrong: %+v", s)
	}
	got := h.translate(t, vpn)
	if got.PFN != 7 {
		t.Errorf("PFN = %d, want 7 (from I-cache)", got.PFN)
	}
	if h.path.Stats().ICHits != 1 {
		t.Errorf("ICHits = %d", h.path.Stats().ICHits)
	}
}

func TestICBypassForwardsToL2(t *testing.T) {
	h := newHarness(t, false, true, false)
	// Fill the I-cache entirely with instructions: translation fills
	// bypass (instruction-aware policy) and land in the L2 TLB.
	for i := 0; i < h.path.IC.NumLines(); i++ {
		h.path.IC.FillInstr(vm.PA(i * 64))
	}
	buf := h.space.Alloc("A", 4096)
	vpn := h.space.VPN(buf.Base)
	h.path.FillVictim(tlb.Entry{Space: h.space.ID, VPN: vpn, PFN: 9})
	s := h.path.Stats()
	if s.FilledIC != 0 || s.ForwardedToL2 != 1 {
		t.Fatalf("flow = %+v, want forward to L2", s)
	}
	if _, ok := h.l2.TLB.Probe(tlb.MakeKey(h.space.ID, vpn)); !ok {
		t.Error("victim not in L2 TLB")
	}
}

func TestICTxEvictionForwardsVictimToL2(t *testing.T) {
	h := newHarness(t, false, true, false)
	n := vm.VPN(h.path.IC.NumLines())
	// Fill one I-cache line's 8 sub-ways, then a 9th: the displaced
	// translation must appear in the L2 TLB (flow ④→⑤→⑥).
	for i := vm.VPN(0); i < 9; i++ {
		h.path.FillVictim(tlb.Entry{Space: h.space.ID, VPN: 5 + i*n, PFN: vm.PFN(i)})
	}
	if _, ok := h.l2.TLB.Probe(tlb.MakeKey(h.space.ID, 5)); !ok {
		t.Error("displaced I-cache translation not forwarded to L2 TLB")
	}
	if h.path.Stats().ForwardedToL2 != 1 {
		t.Errorf("ForwardedToL2 = %d", h.path.Stats().ForwardedToL2)
	}
}

func TestLDSVictimChainsToIC(t *testing.T) {
	h := newHarness(t, true, true, false)
	segs := vm.VPN(h.path.LDS.NumSegments())
	// Four entries in one LDS segment (3 ways): the 4th displaces the
	// LRU, which must land in the I-cache.
	for i := vm.VPN(0); i < 4; i++ {
		h.path.FillVictim(tlb.Entry{Space: h.space.ID, VPN: 5 + i*segs, PFN: vm.PFN(i)})
	}
	if h.path.IC.TxResident() != 1 {
		t.Errorf("IC holds %d translations, want the LDS victim", h.path.IC.TxResident())
	}
	if h.path.Stats().FilledIC != 1 {
		t.Errorf("FilledIC = %d", h.path.Stats().FilledIC)
	}
}

func TestL2CoalescingMergesRequests(t *testing.T) {
	h := newHarness(t, false, false, false)
	buf := h.space.Alloc("A", 4096)
	vpn := h.space.VPN(buf.Base)
	done := 0
	for i := 0; i < 4; i++ {
		h.path.Translate(h.space, vpn, func(tlb.Entry) { done++ })
	}
	h.eng.Run()
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
	if h.l2.PageWalksStarted != 1 {
		t.Errorf("walks = %d, want 1 (coalesced)", h.l2.PageWalksStarted)
	}
}

func TestDucatiHitAvoidsWalk(t *testing.T) {
	h := newHarness(t, false, false, true)
	buf := h.space.Alloc("A", 4096)
	vpn := h.space.VPN(buf.Base)
	// First translation walks and fills DUCATI + L2.
	h.translate(t, vpn)
	if h.l2.PageWalksStarted != 1 {
		t.Fatalf("walks = %d", h.l2.PageWalksStarted)
	}
	// Evict from L2 TLB by flushing it; DUCATI still holds the entry.
	h.l2.TLB.Flush()
	h.translate(t, vpn)
	if h.l2.PageWalksStarted != 1 {
		t.Error("DUCATI hit still walked")
	}
	if h.l2.DucatiHits != 1 {
		t.Errorf("DucatiHits = %d", h.l2.DucatiHits)
	}
}

func TestDucatiConsumesMemoryBandwidth(t *testing.T) {
	h := newHarness(t, false, false, true)
	buf := h.space.Alloc("A", 4096)
	vpn := h.space.VPN(buf.Base)
	h.translate(t, vpn)
	// Walk (4 refs) + DUCATI probe (1) + DUCATI fill (1).
	if h.mem.accesses != 6 {
		t.Errorf("memory accesses = %d, want 6", h.mem.accesses)
	}
}

func TestVictimHitFasterThanWalk(t *testing.T) {
	// Time a walk-path translation vs an LDS victim hit.
	hWalk := newHarness(t, false, false, false)
	buf := hWalk.space.Alloc("A", 4096)
	vpn := hWalk.space.VPN(buf.Base)
	start := hWalk.eng.Now()
	hWalk.translate(t, vpn)
	walkTime := hWalk.eng.Now() - start

	hLDS := newHarness(t, true, false, false)
	buf2 := hLDS.space.Alloc("A", 4096)
	vpn2 := hLDS.space.VPN(buf2.Base)
	hLDS.path.FillVictim(tlb.Entry{Space: hLDS.space.ID, VPN: vpn2, PFN: 1})
	start = hLDS.eng.Now()
	hLDS.translate(t, vpn2)
	ldsTime := hLDS.eng.Now() - start

	if ldsTime >= walkTime {
		t.Errorf("LDS hit (%d cy) not faster than walk (%d cy)", ldsTime, walkTime)
	}
}

func TestShootdownCoversVictimStructures(t *testing.T) {
	h := newHarness(t, true, true, false)
	buf := h.space.Alloc("A", 2*4096)
	v1 := h.space.VPN(buf.Base)
	v2 := h.space.VPN(buf.Base + 4096)
	h.path.FillVictim(tlb.Entry{Space: h.space.ID, VPN: v1, PFN: 1})
	// Block LDS for the second fill so it lands in the IC.
	h.path.LDS.AllocWorkgroup(1, h.path.LDS.Config().SizeBytes)
	h.path.FillVictim(tlb.Entry{Space: h.space.ID, VPN: v2, PFN: 2})

	h.path.Shootdown(h.space.ID, v1)
	h.path.Shootdown(h.space.ID, v2)
	if h.path.LDS.TxResident() != 0 || h.path.IC.TxResident() != 0 {
		t.Error("translations survived shootdown")
	}
}

func TestMissAllLevelsReachesWalker(t *testing.T) {
	h := newHarness(t, true, true, false)
	buf := h.space.Alloc("A", 4096)
	vpn := h.space.VPN(buf.Base)
	got := h.translate(t, vpn)
	want, _ := h.space.PageTable().Lookup(vpn)
	if got.PFN != want {
		t.Errorf("PFN = %d, want %d", got.PFN, want)
	}
	s := h.path.Stats()
	if s.LDSHits != 0 || s.ICHits != 0 || s.L2Reached != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestPrefetchOrganizationDropsVictims(t *testing.T) {
	h := newHarness(t, true, true, false)
	h.path.PrefetchNext = true
	buf := h.space.Alloc("A", 4096)
	vpn := h.space.VPN(buf.Base)
	h.path.FillVictim(tlb.Entry{Space: h.space.ID, VPN: vpn, PFN: 1})
	s := h.path.Stats()
	if s.FilledLDS != 0 || s.DroppedBaseline != 1 {
		t.Errorf("prefetch mode mishandled a victim: %+v", s)
	}
}

func TestPrefetchFetchesNextPage(t *testing.T) {
	h := newHarness(t, true, false, false)
	h.path.PrefetchNext = true
	buf := h.space.Alloc("A", 8*4096)
	vpn := h.space.VPN(buf.Base)
	h.translate(t, vpn)
	if h.path.Stats().PrefetchesIssued != 1 {
		t.Fatalf("prefetches = %+v", h.path.Stats())
	}
	// The next page's translation must now sit in the LDS: translating
	// it hits the victim store without a new walk.
	walks := h.l2.PageWalksStarted
	h.translate(t, vpn+1)
	if h.path.Stats().LDSHits != 1 {
		t.Errorf("prefetched page missed: %+v", h.path.Stats())
	}
	// Walks: translating vpn+1 hit the LDS (no demand walk) but chained
	// a prefetch of vpn+2 — exactly one extra walk, not two.
	if h.l2.PageWalksStarted != walks+1 {
		t.Errorf("walks %d -> %d, want exactly the vpn+2 prefetch", walks, h.l2.PageWalksStarted)
	}
}

func TestPrefetchSquashesUnmappedNextPage(t *testing.T) {
	h := newHarness(t, true, false, false)
	h.path.PrefetchNext = true
	buf := h.space.Alloc("A", 4096) // followed by a guard page
	vpn := h.space.VPN(buf.Base)
	h.translate(t, vpn)
	s := h.path.Stats()
	if s.PrefetchesIssued != 0 || s.PrefetchesUseless != 1 {
		t.Errorf("unmapped next page not squashed: %+v", s)
	}
}

func TestPrefetchSkipsResidentPages(t *testing.T) {
	h := newHarness(t, true, false, false)
	h.path.PrefetchNext = true
	buf := h.space.Alloc("A", 8*4096)
	vpn := h.space.VPN(buf.Base)
	h.translate(t, vpn) // prefetches vpn+1
	issued := h.path.Stats().PrefetchesIssued
	h.translate(t, vpn) // L1-miss path again; vpn+1 already resident
	s := h.path.Stats()
	if s.PrefetchesIssued != issued {
		t.Errorf("re-prefetched a resident page: %+v", s)
	}
	if s.PrefetchesUseless == 0 {
		t.Error("resident prefetch not counted as useless")
	}
}
