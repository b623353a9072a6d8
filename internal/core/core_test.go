package core

import (
	"testing"

	"gpureach/internal/vm"
	"gpureach/internal/workloads"
)

func TestDefaultConfigMatchesTable1(t *testing.T) {
	cfg := DefaultConfig(Baseline())
	if cfg.GPU.NumCUs != 8 || cfg.GPU.SIMDsPerCU != 4 || cfg.GPU.WavesPerSIMD != 10 || cfg.GPU.Lanes != 64 {
		t.Errorf("GPU shape = %+v, want Table 1 (8 CUs, 4 SIMDs, 10 waves, 64 threads)", cfg.GPU)
	}
	if cfg.GPU.L1TLBEntries != 32 || cfg.GPU.L1TLBLatency != 108 {
		t.Errorf("L1 TLB = %d entries @%d cycles, want 32 @108", cfg.GPU.L1TLBEntries, cfg.GPU.L1TLBLatency)
	}
	if cfg.L2TLBEntries != 512 || cfg.L2TLBWays != 16 || cfg.L2TLBLatency != 188 {
		t.Errorf("L2 TLB = %d/%d-way @%d, want 512/16 @188", cfg.L2TLBEntries, cfg.L2TLBWays, cfg.L2TLBLatency)
	}
	if cfg.ICache.SizeBytes != 16<<10 || cfg.ICache.Ways != 8 || cfg.ICSharers != 4 {
		t.Error("I-cache geometry deviates from Table 1 (16KB, 8-way, shared by 4 CUs)")
	}
	if cfg.ICache.ICTagLatency != 16 || cfg.ICache.TxTagLatency != 20 ||
		cfg.ICache.MuxLatency != 1 || cfg.ICache.DecompLatency != 4 {
		t.Error("I-cache latencies deviate from Table 1")
	}
	if cfg.LDS.SizeBytes != 16<<10 || cfg.LDS.SegmentBytes != 32 ||
		cfg.LDS.TxLatency != 35 || cfg.LDS.AppLatency != 31 {
		t.Error("LDS configuration deviates from Table 1")
	}
	if cfg.LDS.TxWaysPerSegment() != 3 {
		t.Error("LDS segments must hold 3 translation ways (Table 1)")
	}
	if cfg.IOMMU.NumWalkers != 32 || cfg.IOMMU.L1Entries != 32 || cfg.IOMMU.L2Entries != 256 {
		t.Error("IOMMU deviates from Table 1 (32 PTWs, 32/256 TLBs)")
	}
	if cfg.IOMMU.PGDEntries != 4 || cfg.IOMMU.PUDEntries != 8 || cfg.IOMMU.PMDEntries != 32 {
		t.Error("page-walk caches deviate from Table 1 (4/8/32)")
	}
	if cfg.DRAM.Channels != 2 || cfg.DRAM.RanksPerChannel != 2 || cfg.DRAM.BanksPerRank != 16 {
		t.Error("DRAM geometry deviates from Table 1")
	}
	if cfg.L1D.SizeBytes != 32<<10 || cfg.L1D.Ways != 8 ||
		cfg.L2.SizeBytes != 4<<20 || cfg.L2.Ways != 16 {
		t.Error("data caches deviate from Table 1 (L1 32KB/8-way, L2 4MB/16-way)")
	}
}

func TestSchemesSelectStructures(t *testing.T) {
	cases := []struct {
		s       Scheme
		lds, ic bool
	}{
		{Baseline(), false, false},
		{LDSOnly(), true, false},
		{ICOneTx(), false, true},
		{ICNaive(), false, true},
		{ICAware(), false, true},
		{ICAwareFlush(), false, true},
		{Combined(), true, true},
	}
	for _, c := range cases {
		sys := NewSystem(DefaultConfig(c.s))
		hasLDS := sys.Paths[0].LDS != nil
		hasIC := sys.Paths[0].IC != nil
		if hasLDS != c.lds || hasIC != c.ic {
			t.Errorf("%s: lds=%v ic=%v, want %v/%v", c.s.Name, hasLDS, hasIC, c.lds, c.ic)
		}
	}
	if NewSystem(DefaultConfig(DucatiOnly())).Ducati == nil {
		t.Error("ducati scheme built no store")
	}
	if NewSystem(DefaultConfig(Baseline())).Ducati != nil {
		t.Error("baseline built a DUCATI store")
	}
}

func TestICacheGroupSharing(t *testing.T) {
	sys := NewSystem(DefaultConfig(Combined()))
	if len(sys.ICaches) != 2 {
		t.Fatalf("8 CUs / 4 sharers = %d I-caches, want 2", len(sys.ICaches))
	}
	// CUs 0-3 share instance 0; CUs 4-7 instance 1.
	if sys.CUs[0].IC != sys.ICaches[0] || sys.CUs[3].IC != sys.ICaches[0] {
		t.Error("CU 0-3 not on I-cache group 0")
	}
	if sys.CUs[4].IC != sys.ICaches[1] || sys.CUs[7].IC != sys.ICaches[1] {
		t.Error("CU 4-7 not on I-cache group 1")
	}
	if len(sys.LDSs) != 8 {
		t.Errorf("LDS count = %d, want one per CU", len(sys.LDSs))
	}
}

func TestBadSharerCountPanics(t *testing.T) {
	cfg := DefaultConfig(Baseline())
	cfg.ICSharers = 3
	defer func() {
		if recover() == nil {
			t.Error("non-dividing sharer count did not panic")
		}
	}()
	NewSystem(cfg)
}

func TestResultsDerivedMetrics(t *testing.T) {
	base := Results{Cycles: 1000, PageWalks: 100, DRAMEnergyPJ: 50}
	r := Results{Cycles: 500, PageWalks: 25, DRAMEnergyPJ: 45}
	if s := r.Speedup(base); s != 2 {
		t.Errorf("Speedup = %v", s)
	}
	if n := r.NormalizedWalks(base); n != 0.25 {
		t.Errorf("NormalizedWalks = %v", n)
	}
	if e := r.NormalizedEnergy(base); e != 0.9 {
		t.Errorf("NormalizedEnergy = %v", e)
	}
	zero := Results{}
	if zero.NormalizedWalks(zero) != 0 || zero.Speedup(zero) != 0 || zero.NormalizedEnergy(zero) != 0 {
		t.Error("zero baselines must not divide by zero")
	}
}

func TestPerfectL2TLBEliminatesWalks(t *testing.T) {
	w, _ := workloads.ByName("ATAX")
	cfg := DefaultConfig(Baseline())
	cfg.PerfectL2TLB = true
	r := mustRun(t, cfg, w, smokeScale)
	if r.PageWalks != 0 {
		t.Errorf("perfect L2 TLB still walked %d times", r.PageWalks)
	}
	if r.Cycles == 0 {
		t.Error("no cycles")
	}
}

func TestLargerL2TLBNeverSlower(t *testing.T) {
	w, _ := workloads.ByName("GUPS")
	base := mustRun(t, DefaultConfig(Baseline()), w, smokeScale)
	cfg := DefaultConfig(Baseline())
	cfg.L2TLBEntries = 65536
	big := mustRun(t, cfg, w, smokeScale)
	if big.PageWalks > base.PageWalks {
		t.Errorf("larger L2 TLB increased walks: %d -> %d", base.PageWalks, big.PageWalks)
	}
	if float64(big.Cycles) > 1.02*float64(base.Cycles) {
		t.Errorf("larger L2 TLB slowed GUPS: %d -> %d cycles", base.Cycles, big.Cycles)
	}
}

func TestPageSizeReducesWalks(t *testing.T) {
	w, _ := workloads.ByName("ATAX")
	c4 := DefaultConfig(Baseline())
	r4 := mustRun(t, c4, w, smokeScale)
	c2m := DefaultConfig(Baseline())
	c2m.PageSize = vm.Page2M
	r2m := mustRun(t, c2m, w, smokeScale)
	if r2m.PageWalks >= r4.PageWalks {
		t.Errorf("2MB pages did not reduce walks: %d vs %d", r2m.PageWalks, r4.PageWalks)
	}
}

func TestDeterministicRuns(t *testing.T) {
	w, _ := workloads.ByName("BFS")
	a := mustRun(t, DefaultConfig(Combined()), w, smokeScale)
	b := mustRun(t, DefaultConfig(Combined()), w, smokeScale)
	if a.Cycles != b.Cycles || a.PageWalks != b.PageWalks || a.LDSTxHits != b.LDSTxHits {
		t.Errorf("runs are not deterministic: %v vs %v", a, b)
	}
}

func TestWireLatencyReducesButKeepsGains(t *testing.T) {
	w, _ := workloads.ByName("ATAX")
	base := mustRun(t, DefaultConfig(Baseline()), w, smokeScale)
	fast := mustRun(t, DefaultConfig(Combined()), w, smokeScale)
	slowCfg := DefaultConfig(Combined())
	slowCfg.WireLatencyIC = 100
	slowCfg.WireLatencyLDS = 100
	slow := mustRun(t, slowCfg, w, smokeScale)
	// Allow small second-order timing noise at smoke scale; the Fig 16b
	// experiment checks the monotone trend at full scale.
	if slow.Speedup(base) > 1.05*fast.Speedup(base) {
		t.Errorf("extra wire latency improved performance: %v vs %v",
			slow.Speedup(base), fast.Speedup(base))
	}
}
