package gpu

import (
	"testing"

	"gpureach/internal/cache"
	"gpureach/internal/icache"
	"gpureach/internal/lds"
	"gpureach/internal/sim"
	"gpureach/internal/tlb"
	"gpureach/internal/victim"
	"gpureach/internal/vm"
	"gpureach/internal/walker"
)

// testRig is a minimal single-I-cache-group system for GPU-level tests.
type testRig struct {
	eng   *sim.Engine
	sys   *System
	space *vm.AddrSpace
	cus   []*CU
	l2tlb *victim.L2TLB
	ic    *icache.ICache
	mem   *stubMem
}

type stubMem struct {
	eng      *sim.Engine
	latency  sim.Time
	accesses int
}

func (m *stubMem) AccessEvent(addr vm.PA, write bool, h sim.Handler, ctx any) {
	m.accesses++
	m.eng.AfterEvent(m.latency, h, ctx)
}

func newRig(t testing.TB, cfg Config, useLDS, useIC bool) *testRig {
	t.Helper()
	eng := sim.NewEngine()
	frames := vm.NewFrameAllocator(8 << 30)
	space := vm.NewAddrSpace(vm.SpaceID{}, frames, vm.Page4K)
	mem := &stubMem{eng: eng, latency: 100}
	iommu := walker.New(eng, walker.DefaultConfig(), mem)
	l2tlb := victim.NewL2TLB(eng, 512, 16, 188, iommu)
	ic := icache.New(eng, icache.DefaultConfig())

	var cus []*CU
	for i := 0; i < cfg.NumCUs; i++ {
		ldsUnit := lds.New(eng, lds.DefaultConfig())
		path := &victim.Path{Eng: eng, L2: l2tlb}
		if useLDS {
			path.LDS = ldsUnit
		}
		if useIC {
			path.IC = ic
		}
		xl := NewXlat(eng, cfg.L1TLBEntries, cfg.L1TLBLatency, path)
		l1d := cache.New(eng, cache.Config{
			Name: "l1d", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8,
			HitLatency: 4, PortInterval: 1,
		}, mem)
		cus = append(cus, NewCU(eng, i, cfg, ldsUnit, ic, mem, l1d, xl))
	}
	sys := NewSystem(eng, cfg, cus, space, frames)
	return &testRig{eng: eng, sys: sys, space: space, cus: cus, l2tlb: l2tlb, ic: ic, mem: mem}
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.NumCUs = 2
	cfg.KernelLaunchLatency = 10
	return cfg
}

// streamKernel builds a kernel whose waves stream coalesced through buf.
func streamKernel(name string, buf vm.Buffer, wgs, waves, instr int) *Kernel {
	return &Kernel{
		Name:          name,
		NumWorkgroups: wgs,
		WavesPerWG:    waves,
		CodeBytes:     512,
		InstrPerWave:  instr,
		MemEvery:      2,
		Mem: func(wg, wave, k int, out []vm.VA) []vm.VA {
			base := uint64(wg*waves+wave) * 8192
			for lane := 0; lane < 64; lane++ {
				off := (base + uint64(k*64*8) + uint64(lane*8)) % buf.Size
				out = append(out, buf.At(off))
			}
			return out
		},
	}
}

func TestKernelRunsToCompletion(t *testing.T) {
	rig := newRig(t, smallConfig(), false, false)
	buf := rig.space.Alloc("data", 1<<20)
	k := streamKernel("k", buf, 4, 2, 32)
	cycles := rig.sys.RunKernels([]*Kernel{k})
	if cycles == 0 {
		t.Fatal("no cycles elapsed")
	}
	st := rig.sys.TotalStats()
	wantWave := uint64(4 * 2 * 32)
	if st.WaveInstrs != wantWave {
		t.Errorf("wave instrs = %d, want %d", st.WaveInstrs, wantWave)
	}
	if st.ThreadInstrs != wantWave*64 {
		t.Errorf("thread instrs = %d, want %d", st.ThreadInstrs, wantWave*64)
	}
	if st.WGsRun != 4 {
		t.Errorf("WGs run = %d", st.WGsRun)
	}
	if rig.sys.KernelsRun != 1 {
		t.Errorf("kernels run = %d", rig.sys.KernelsRun)
	}
}

func TestSequentialKernels(t *testing.T) {
	rig := newRig(t, smallConfig(), false, false)
	buf := rig.space.Alloc("data", 1<<20)
	k1 := streamKernel("k1", buf, 2, 2, 16)
	k2 := streamKernel("k2", buf, 2, 2, 16)
	boundaries := []string{}
	rig.sys.OnKernelBoundary = func(next *Kernel) { boundaries = append(boundaries, next.Name) }
	rig.sys.RunKernels([]*Kernel{k1, k2})
	if rig.sys.KernelsRun != 2 {
		t.Fatalf("kernels run = %d", rig.sys.KernelsRun)
	}
	if len(boundaries) != 2 || boundaries[0] != "k1" || boundaries[1] != "k2" {
		t.Errorf("boundaries = %v", boundaries)
	}
}

func TestKernelLaunchLatencyCharged(t *testing.T) {
	cfg := smallConfig()
	cfg.KernelLaunchLatency = 5000
	rig := newRig(t, cfg, false, false)
	buf := rig.space.Alloc("data", 1<<20)
	c1 := rig.sys.RunKernels([]*Kernel{streamKernel("k", buf, 1, 1, 4)})
	if c1 < 5000 {
		t.Errorf("run finished at %d, before the launch latency", c1)
	}
}

func TestLDSReservationGatesDispatch(t *testing.T) {
	rig := newRig(t, smallConfig(), false, false)
	buf := rig.space.Alloc("data", 1<<20)
	// Each WG reserves the whole 16KB LDS: only one WG per CU at a time,
	// so with 2 CUs at most 2 of the 6 WGs run concurrently. The kernel
	// must still complete (serialized by LDS availability).
	k := streamKernel("heavy", buf, 6, 2, 16)
	k.LDSBytesPerWG = 16 << 10
	rig.sys.RunKernels([]*Kernel{k})
	if rig.sys.TotalStats().WGsRun != 6 {
		t.Fatalf("WGs run = %d, want all 6", rig.sys.TotalStats().WGsRun)
	}
	// After the run, all reservations are released.
	for _, cu := range rig.cus {
		if cu.LDS.AllocatedBytes() != 0 {
			t.Errorf("CU%d leaked %d LDS bytes", cu.ID, cu.LDS.AllocatedBytes())
		}
	}
}

func TestLDSRequestSampling(t *testing.T) {
	rig := newRig(t, smallConfig(), false, false)
	buf := rig.space.Alloc("data", 1<<20)
	k := streamKernel("k", buf, 3, 1, 8)
	k.LDSBytesPerWG = 2048
	rig.sys.RunKernels([]*Kernel{k})
	s := rig.sys.LDSRequestBytes.Summarize()
	if s.Count != 3 || s.Median != 2048 {
		t.Errorf("LDS request samples = %+v", s)
	}
}

func TestInstructionFetchTraffic(t *testing.T) {
	rig := newRig(t, smallConfig(), false, false)
	buf := rig.space.Alloc("data", 1<<20)
	k := streamKernel("k", buf, 1, 1, 64)
	k.CodeBytes = 2048 // 32 lines, cycled by 64 instructions of 8B
	rig.sys.RunKernels([]*Kernel{k})
	st := rig.sys.TotalStats()
	if st.Fetches == 0 {
		t.Error("no instruction fetches")
	}
	ics := rig.ic.Stats()
	if ics.Fetches != st.Fetches {
		t.Errorf("icache fetches %d != CU fetches %d", ics.Fetches, st.Fetches)
	}
	if ics.InstrFills == 0 {
		t.Error("no instruction fills")
	}
}

func TestSameKernelNameSharesCode(t *testing.T) {
	rig := newRig(t, smallConfig(), false, false)
	buf := rig.space.Alloc("data", 1<<20)
	k1 := streamKernel("same", buf, 1, 1, 32)
	k2 := streamKernel("same", buf, 1, 1, 32)
	rig.sys.RunKernels([]*Kernel{k1, k2})
	if k1.codeBase != k2.codeBase {
		t.Error("same-name kernels got different code bases")
	}
	k3 := streamKernel("other", buf, 1, 1, 32)
	rig.sys.RunKernels([]*Kernel{k3})
	if k3.codeBase == k1.codeBase {
		t.Error("different kernels share a code base")
	}
}

func TestMemAccessCoalescing(t *testing.T) {
	rig := newRig(t, smallConfig(), false, false)
	buf := rig.space.Alloc("data", 1<<20)
	cu := rig.cus[0]
	// All 64 lanes in one 64-byte line: one translation, one data access.
	addrs := make([]vm.VA, 64)
	for i := range addrs {
		addrs[i] = buf.At(uint64(i % 8 * 8))
	}
	done := false
	cu.memAccess(rig.space, addrs, false, func() { done = true })
	rig.eng.Run()
	if !done {
		t.Fatal("memAccess never completed")
	}
	if got := cu.L1D.Stats().Accesses; got != 1 {
		t.Errorf("L1D accesses = %d, want 1 (coalesced)", got)
	}
	l1 := cu.Xlat.L1().Stats()
	if l1.Hits+l1.Misses != 1 {
		t.Errorf("L1 TLB probes = %d, want 1", l1.Hits+l1.Misses)
	}
}

func TestMemAccessDivergent(t *testing.T) {
	rig := newRig(t, smallConfig(), false, false)
	buf := rig.space.Alloc("data", 64*4096)
	cu := rig.cus[0]
	addrs := make([]vm.VA, 16)
	for i := range addrs {
		addrs[i] = buf.At(uint64(i) * 4096) // 16 distinct pages
	}
	done := false
	cu.memAccess(rig.space, addrs, false, func() { done = true })
	rig.eng.Run()
	if !done {
		t.Fatal("memAccess never completed")
	}
	if got := cu.L1D.Stats().Accesses; got != 16 {
		t.Errorf("L1D accesses = %d, want 16", got)
	}
}

func TestMemAccessEmptyLanes(t *testing.T) {
	rig := newRig(t, smallConfig(), false, false)
	done := false
	rig.cus[0].memAccess(rig.space, nil, false, func() { done = true })
	if !done {
		t.Error("empty access must complete immediately")
	}
}

func TestXlatPromotionAndVictimFill(t *testing.T) {
	rig := newRig(t, smallConfig(), true, false)
	buf := rig.space.Alloc("data", 64*4096)
	cu := rig.cus[0]
	// Touch 33 pages through a 32-entry L1 TLB: at least one victim must
	// have entered the LDS victim store via the Figure 12 flow.
	for i := uint64(0); i < 33; i++ {
		done := false
		cu.Xlat.Translate(rig.space, rig.space.VPN(buf.At(i*4096)), func(tlb.Entry) { done = true })
		rig.eng.Run()
		if !done {
			t.Fatalf("translation %d stuck", i)
		}
	}
	if cu.LDS.TxResident() == 0 {
		t.Error("no L1 victims reached the LDS")
	}
	// Re-touching the first page should now hit the victim store, not
	// walk: walks stay constant.
	walksBefore := rig.l2tlb.PageWalksStarted
	cu.Xlat.Translate(rig.space, rig.space.VPN(buf.At(0)), func(tlb.Entry) {})
	rig.eng.Run()
	if rig.l2tlb.PageWalksStarted != walksBefore {
		t.Error("victim-resident page still reached the L2 miss path")
	}
}

func TestWaveSlotLimitRespected(t *testing.T) {
	cfg := smallConfig()
	cfg.SIMDsPerCU = 2
	cfg.WavesPerSIMD = 2 // 4 slots per CU
	rig := newRig(t, cfg, false, false)
	buf := rig.space.Alloc("data", 1<<20)
	k := streamKernel("k", buf, 8, 4, 8) // each WG needs all 4 slots
	rig.sys.RunKernels([]*Kernel{k})
	if rig.sys.TotalStats().WGsRun != 8 {
		t.Errorf("WGs run = %d", rig.sys.TotalStats().WGsRun)
	}
}

func TestOversizedWorkgroupPanics(t *testing.T) {
	cfg := smallConfig()
	cfg.SIMDsPerCU = 1
	cfg.WavesPerSIMD = 2
	rig := newRig(t, cfg, false, false)
	buf := rig.space.Alloc("data", 1<<20)
	k := streamKernel("k", buf, 1, 3, 8) // 3 waves > 2 slots
	defer func() {
		if recover() == nil {
			t.Error("oversized work-group did not panic")
		}
	}()
	rig.sys.RunKernels([]*Kernel{k})
}

func TestKernelValidate(t *testing.T) {
	bad := []Kernel{
		{},
		{Name: "x"},
		{Name: "x", NumWorkgroups: 1, WavesPerWG: 1},
		{Name: "x", NumWorkgroups: 1, WavesPerWG: 1, InstrPerWave: 1},
		{Name: "x", NumWorkgroups: 1, WavesPerWG: 1, InstrPerWave: 1, CodeBytes: 64, MemEvery: 2},
	}
	for i := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("kernel %d validated", i)
				}
			}()
			bad[i].Validate()
		}()
	}
	good := Kernel{Name: "x", NumWorkgroups: 1, WavesPerWG: 1, InstrPerWave: 1, CodeBytes: 64}
	good.Validate() // must not panic
}

func TestIBFIFOBehaviour(t *testing.T) {
	rig := newRig(t, smallConfig(), false, false)
	w := newWave(rig.cus[0], rig.cus[0].simds[0], &Kernel{}, rig.space, 0, 0, 0)
	for tag := uint64(0); tag < 6; tag++ {
		w.ibFill(tag)
	}
	if len(w.ib) != rig.cus[0].cfg.IBLines {
		t.Fatalf("IB holds %d lines, cap %d", len(w.ib), rig.cus[0].cfg.IBLines)
	}
	if w.ibHas(0) || w.ibHas(1) {
		t.Error("oldest lines not evicted FIFO")
	}
	if !w.ibHas(5) {
		t.Error("newest line missing")
	}
	w.ibFill(5) // duplicate fill is a no-op
	if len(w.ib) != rig.cus[0].cfg.IBLines {
		t.Error("duplicate fill grew the IB")
	}
}

func TestPrefetchCountsTowardUtilization(t *testing.T) {
	rig := newRig(t, smallConfig(), false, false)
	buf := rig.space.Alloc("data", 1<<20)
	k := streamKernel("k", buf, 1, 1, 64)
	k.CodeBytes = 1024
	rig.sys.RunKernels([]*Kernel{k})
	if rig.sys.TotalStats().Prefetches == 0 {
		t.Error("no prefetches issued for straight-line code")
	}
}

func TestWriteEveryMarksStores(t *testing.T) {
	rig := newRig(t, smallConfig(), false, false)
	buf := rig.space.Alloc("data", 1<<20)
	k := streamKernel("w", buf, 1, 1, 32)
	k.WriteEvery = 1 // every memory instruction is a store
	rig.sys.RunKernels([]*Kernel{k})
	// Dirty lines exist in the L1D: flushing must produce writebacks.
	cu := rig.cus[0]
	if cu.Stats().MemInstrs == 0 {
		cu = rig.cus[1]
	}
	before := cu.L1D.Stats().Writebacks
	cu.L1D.Flush()
	rig.eng.Run()
	if cu.L1D.Stats().Writebacks == before {
		t.Error("stores left no dirty lines behind")
	}
}

func TestLDSInstructionsUsePort(t *testing.T) {
	rig := newRig(t, smallConfig(), false, false)
	buf := rig.space.Alloc("data", 1<<20)
	k := streamKernel("l", buf, 1, 1, 30)
	k.LDSEvery = 3
	k.MemEvery = 0
	k.Mem = nil
	rig.sys.RunKernels([]*Kernel{k})
	st := rig.sys.TotalStats()
	if st.LDSInstrs != 10 {
		t.Errorf("LDS instrs = %d, want 10", st.LDSInstrs)
	}
	found := false
	for _, cu := range rig.cus {
		if cu.LDS.Port().Grants() > 0 {
			found = true
		}
	}
	if !found {
		t.Error("LDS instructions never touched an LDS port")
	}
}

func TestConcurrentFetchesMergeInflightFill(t *testing.T) {
	rig := newRig(t, smallConfig(), false, false)
	cu := rig.cus[0]
	addr := vm.PA(0x10000)
	var completions int
	count := func(any) { completions++ }
	// Two fetch units miss on the same line in the same cycle: the
	// second must ride the first's in-flight fill, and its next-line
	// prefetch must be squashed against the first's.
	cu.fetchEvent(addr, count, nil)
	cu.fetchEvent(addr, count, nil)
	rig.eng.Run()
	if completions != 2 {
		t.Fatalf("completions = %d, want 2", completions)
	}
	// One demand line + one prefetch line = 2 backing accesses, not 4.
	if rig.mem.accesses != 2 {
		t.Errorf("backing accesses = %d, want 2 (deduped)", rig.mem.accesses)
	}
	st := cu.Stats()
	if st.FetchesMerged != 1 {
		t.Errorf("FetchesMerged = %d, want 1", st.FetchesMerged)
	}
	if st.PrefetchesMerged != 1 {
		t.Errorf("PrefetchesMerged = %d, want 1", st.PrefetchesMerged)
	}
	if rig.ic.FillsInflight() != 0 {
		t.Errorf("FillsInflight = %d after drain, want 0", rig.ic.FillsInflight())
	}
}

func TestMergedFetchSeesFilledLine(t *testing.T) {
	rig := newRig(t, smallConfig(), false, false)
	cu := rig.cus[0]
	addr := vm.PA(0x20000)
	hasAtCompletion := false
	cu.fetchEvent(addr, func(any) {}, nil)
	cu.fetchEvent(addr, func(x any) {
		hasAtCompletion = cu.IC.HasInstr(addr)
	}, nil)
	rig.eng.Run()
	if !hasAtCompletion {
		t.Error("merged fetch completed before the line was installed")
	}
}

// TestMemAccessSteadyStateZeroAllocs guards the memory-path garbage
// budget: a warm CU issuing vector accesses — fully coalesced or 64
// divergent lines — must not allocate. The request, page-group, and
// scratch structures are pooled per CU; any regression here multiplies
// by every memory instruction of every wave.
func TestMemAccessSteadyStateZeroAllocs(t *testing.T) {
	rig := newRig(t, smallConfig(), false, false)
	buf := rig.space.Alloc("data", 1<<20)
	cu := rig.cus[0]
	h := func(any) {}

	shapes := []struct {
		name string
		gen  func(i int) uint64
	}{
		// 64 lanes in one 64-byte line: one group, one access.
		{"coalesced", func(i int) uint64 { return uint64(i%8) * 8 }},
		// 64 distinct lines spanning a page: worst-case group fan-out.
		{"divergent", func(i int) uint64 { return uint64(i) * 64 }},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			addrs := make([]vm.VA, 64)
			for i := range addrs {
				addrs[i] = buf.At(sh.gen(i) % buf.Size)
			}
			// Warm the engine directly: bursts across twice the calendar
			// window grow its slot arena and overflow heap past anything
			// the measured accesses keep pending, so steady-state
			// scheduling never grows either.
			for d := 0; d < 8; d++ {
				for i := sim.Time(1); i <= 2*sim.CalendarWindow; i++ {
					rig.eng.At(rig.eng.Now()+i, func() {})
				}
			}
			rig.eng.Run()
			// Warm the pools, caches, and TLBs on the access shape itself.
			for i := 0; i < 50; i++ {
				cu.memAccessEvent(rig.space, addrs, false, h, nil)
				rig.eng.Run()
			}
			allocs := testing.AllocsPerRun(100, func() {
				cu.memAccessEvent(rig.space, addrs, false, h, nil)
				rig.eng.Run()
			})
			if allocs != 0 {
				t.Fatalf("steady-state memAccess allocated %.1f times per call; the budget is 0", allocs)
			}
		})
	}
}
