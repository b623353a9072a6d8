package core

import (
	"fmt"

	"gpureach/internal/cache"
	"gpureach/internal/check"
	"gpureach/internal/dram"
	"gpureach/internal/ducati"
	"gpureach/internal/gpu"
	"gpureach/internal/icache"
	"gpureach/internal/lds"
	"gpureach/internal/sim"
	"gpureach/internal/tlb"
	"gpureach/internal/victim"
	"gpureach/internal/vm"
	"gpureach/internal/walker"
)

// System is one fully-wired simulated machine.
type System struct {
	Cfg    Config
	Eng    *sim.Engine
	Frames *vm.FrameAllocator
	Space  *vm.AddrSpace
	// Spaces lists every address space live on this system — the
	// primary Space plus any multi-app tenants — so invariant probes
	// can reach each one's page table.
	Spaces []*vm.AddrSpace

	// Checker, when non-nil, runs the DESIGN.md §5 invariants live: at
	// every kernel boundary, and (via Check) after every injected
	// fault. Run folds its verdict into the returned error.
	Checker *check.Checker

	DRAM    *dram.DRAM
	L2C     *cache.Cache
	IOMMU   *walker.IOMMU
	L2TLB   *victim.L2TLB
	Ducati  *ducati.Store
	ICaches []*icache.ICache
	LDSs    []*lds.LDS
	Paths   []*victim.Path
	Xlats   []*gpu.Xlat
	CUs     []*gpu.CU
	GPU     *gpu.System

	// Per-kernel samples collected at kernel boundaries and at the end
	// of the run.
	ICUtilSamples  []float64
	SharedSamples  []float64
	PeakTxResident int
	LDSUtilBytes   int

	// share counts the sharing sample, reused across kernel boundaries.
	share shareTable
}

// NewSystem builds the machine described by cfg.
func NewSystem(cfg Config) *System {
	if cfg.ICSharers <= 0 || cfg.GPU.NumCUs%cfg.ICSharers != 0 {
		panic(fmt.Sprintf("core: %d CUs not divisible into I-cache groups of %d", cfg.GPU.NumCUs, cfg.ICSharers))
	}
	eng := sim.NewEngine()
	s := &System{Cfg: cfg, Eng: eng}

	s.Frames = vm.NewFrameAllocator(cfg.PhysBytes)
	s.Space = vm.NewAddrSpace(vm.SpaceID{VMID: 1}, s.Frames, cfg.PageSize)
	s.Spaces = []*vm.AddrSpace{s.Space}

	s.DRAM = dram.New(eng, cfg.DRAM)
	s.L2C = cache.New(eng, cfg.L2, s.DRAM)
	s.IOMMU = walker.New(eng, cfg.IOMMU, s.L2C)
	l2Entries := cfg.L2TLBEntries
	if cfg.PerfectL2TLB && l2Entries < 1<<18 {
		// The Perfect-L2-TLB upper bound of Figures 2/3 means every
		// translation is resident: give the array enough capacity to
		// hold any workload's footprint so compulsory misses are the
		// only fabrications.
		l2Entries = 1 << 18
	}
	s.L2TLB = victim.NewL2TLB(eng, l2Entries, cfg.L2TLBWays, cfg.L2TLBLatency, s.IOMMU)
	s.L2TLB.Perfect = cfg.PerfectL2TLB
	if cfg.Scheme.Ducati {
		// Carve the DUCATI region from the top of the data half of
		// physical memory so it never collides with allocations.
		base := vm.PA(cfg.PhysBytes/2 - uint64(cfg.DucatiEntries*8))
		s.Ducati = ducati.New(s.L2C, base, cfg.DucatiEntries)
		s.L2TLB.Ducati = s.Ducati
	}

	// One I-cache per sharer group; total capacity is constant across
	// sharer sweeps (Figure 16a): each instance gets Size/numGroups...
	// no — Table 1 fixes 16KB per 4-CU group; the Fig 16a sweep keeps
	// *total* capacity constant, which the experiment encodes by
	// adjusting cfg.ICache.SizeBytes before calling NewSystem.
	groups := cfg.GPU.NumCUs / cfg.ICSharers
	icCfg := cfg.ICache
	if cfg.Scheme.UseIC {
		icCfg.TxPerLine = cfg.Scheme.ICTxPerLine
		icCfg.Policy = cfg.Scheme.ICPolicy
		icCfg.FlushAtKernelBoundary = cfg.Scheme.ICFlush
	} else {
		// Reconfiguration off: lines never enter Tx mode, but geometry
		// fields stay valid for instruction caching.
		icCfg.TxPerLine = 8
		icCfg.FlushAtKernelBoundary = false
	}
	icCfg.ExtraWireLatency = cfg.WireLatencyIC
	for g := 0; g < groups; g++ {
		s.ICaches = append(s.ICaches, icache.New(eng, icCfg))
	}

	ldsCfg := cfg.LDS
	ldsCfg.ExtraWireLatency = cfg.WireLatencyLDS

	for i := 0; i < cfg.GPU.NumCUs; i++ {
		ldsUnit := lds.New(eng, ldsCfg)
		s.LDSs = append(s.LDSs, ldsUnit)
		ic := s.ICaches[i/cfg.ICSharers]

		path := &victim.Path{Eng: eng, L2: s.L2TLB, PrefetchNext: cfg.Scheme.Prefetch}
		if cfg.Scheme.UseLDS {
			path.LDS = ldsUnit
		}
		if cfg.Scheme.UseIC {
			path.IC = ic
		}
		s.Paths = append(s.Paths, path)

		xlat := gpu.NewXlat(eng, cfg.GPU.L1TLBEntries, cfg.GPU.L1TLBLatency, path)
		s.Xlats = append(s.Xlats, xlat)

		l1d := cache.New(eng, cfg.L1D, s.L2C)
		s.CUs = append(s.CUs, gpu.NewCU(eng, i, cfg.GPU, ldsUnit, ic, s.L2C, l1d, xlat))
	}

	// Results reports the idle-gap distribution (Figs 4b/5b) of the
	// first I-cache and LDS port only; no other port records.
	s.ICaches[0].Port().RecordIdle()
	s.LDSs[0].Port().RecordIdle()

	s.GPU = gpu.NewSystem(eng, cfg.GPU, s.CUs, s.Space, s.Frames)
	s.GPU.OnKernelBoundary = func(next *gpu.Kernel) { s.sample(next.Name) }
	s.GPU.Guard = cfg.Watchdog
	return s
}

// sample records the per-kernel measurements: Equation 1 I-cache
// utilization (this call also performs the §4.3.3 flush inside the
// I-cache when armed), cross-CU translation sharing (Fig 14a) and peak
// resident victim entries (Fig 15).
func (s *System) sample(nextKernel string) {
	for _, ic := range s.ICaches {
		s.ICUtilSamples = append(s.ICUtilSamples, ic.KernelBoundary(nextKernel))
	}

	if distinct, shared := s.sharing(); distinct > 0 {
		s.SharedSamples = append(s.SharedSamples, float64(shared)/float64(distinct))
	}

	resident := 0
	for _, l := range s.LDSs {
		resident += l.TxResident()
	}
	for _, ic := range s.ICaches {
		resident += ic.TxResident()
	}
	if resident > s.PeakTxResident {
		s.PeakTxResident = resident
	}

	s.Check(check.KernelBoundary, "kernel-boundary")
}

// sharing counts the distinct translation keys held across the per-CU
// structures (L1 TLB + LDS) and how many of them more than one CU
// holds (Fig 14a).
func (s *System) sharing() (distinct, shared int) {
	// Size the table for every key up front, so a first sample of
	// thousands of keys does not grow it through every smaller size.
	n := 0
	for i := range s.CUs {
		n += s.Xlats[i].L1().Occupied()
		if s.Cfg.Scheme.UseLDS {
			n += s.LDSs[i].TxResident()
		}
	}
	t := &s.share
	t.reset(n)
	add := func(e tlb.Entry) { t.add(e.Key()) }
	for i := range s.CUs {
		s.Xlats[i].L1().ForEach(add)
		if s.Cfg.Scheme.UseLDS {
			s.LDSs[i].ForEachTx(add)
		}
		t.endCU()
	}
	return t.distinct, t.shared
}

// checkTarget assembles the invariant probes' view of this system.
func (s *System) checkTarget() *check.Target {
	pts := make(map[vm.SpaceID]*vm.PageTable, len(s.Spaces))
	for _, sp := range s.Spaces {
		pts[sp.ID] = sp.PageTable()
	}
	l1s := make([]*tlb.TLB, len(s.Xlats))
	for i, x := range s.Xlats {
		l1s[i] = x.L1()
	}
	devL1, devL2 := s.IOMMU.DeviceTLBs()
	return &check.Target{
		PageTables:   pts,
		L1TLBs:       l1s,
		L2TLB:        s.L2TLB.TLB,
		DevTLBs:      []*tlb.TLB{devL1, devL2},
		LDSs:         s.LDSs,
		ICaches:      s.ICaches,
		Ducati:       s.Ducati,
		TxEntryBound: s.txEntryBound(),
	}
}

// txEntryBound is the Fig 15 structural capacity: the most victim
// translations the scheme's reconfigured structures could ever hold.
func (s *System) txEntryBound() int {
	bound := 0
	if s.Cfg.Scheme.UseLDS {
		bound += s.Cfg.GPU.NumCUs * (s.Cfg.LDS.SizeBytes / s.Cfg.LDS.SegmentBytes) * s.Cfg.LDS.TxWaysPerSegment()
	}
	if s.Cfg.Scheme.UseIC {
		lines := s.Cfg.ICache.SizeBytes / s.Cfg.ICache.LineBytes
		bound += s.Cfg.GPU.NumCUs / s.Cfg.ICSharers * lines * s.Cfg.Scheme.ICTxPerLine
	}
	return bound
}

// Check runs the live invariant probes in the given scope (no-op
// without a Checker) and returns the number of new violations. shot
// lists keys a just-executed shootdown must have purged everywhere.
func (s *System) Check(scope check.Scope, when string, shot ...tlb.Key) int {
	if s.Checker == nil {
		return 0
	}
	t := s.checkTarget()
	t.ShotDown = shot
	return s.Checker.Run(t, scope, when, s.Eng.Now())
}

// ShootdownAll executes the §7.1 driver shootdown for one page: a
// PM4-style invalidation packet that must reach every structure capable
// of holding the translation — all per-CU L1 TLBs and victim stores
// (LDS, I-cache), the shared L2 TLB, the IOMMU device TLBs, and the
// DUCATI region when configured.
func (s *System) ShootdownAll(space vm.SpaceID, vpn vm.VPN) {
	key := tlb.MakeKey(space, vpn)
	for _, x := range s.Xlats {
		x.Shootdown(space, vpn) // L1 TLB + this CU's LDS/I-cache Tx entries
	}
	s.L2TLB.TLB.Invalidate(key)
	s.IOMMU.Shootdown(space, vpn)
	if s.Ducati != nil {
		s.Ducati.Shootdown(key)
	}
}

// Run executes workload kernels (already built against s.Space) and
// returns the results. Structured simulation failures — page faults on
// the walk path, context deadlock, watchdog trips, invariant
// violations — come back as a *sim.SimError instead of a panic.
func (s *System) Run(app string, kernels []*gpu.Kernel) (res Results, err error) {
	defer sim.RecoverSimError(&err)
	cycles := s.GPU.RunKernels(kernels)
	s.sample("") // end-of-run sample (single-kernel apps get at least one)
	res = s.collect(app, cycles)
	if s.Checker != nil {
		err = s.Checker.Err()
	}
	return res, err
}
