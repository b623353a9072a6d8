package check

import (
	"errors"
	"strings"
	"testing"

	"gpureach/internal/ducati"
	"gpureach/internal/icache"
	"gpureach/internal/lds"
	"gpureach/internal/sim"
	"gpureach/internal/tlb"
	"gpureach/internal/vm"
)

// instantMem satisfies cache.Memory for ducati fills in tests.
type instantMem struct{}

func (instantMem) AccessEvent(_ vm.PA, _ bool, h sim.Handler, ctx any) { h(ctx) }

func space1() vm.SpaceID { return vm.SpaceID{VMID: 1} }

// healthyTarget builds a small consistent system: a page table with a
// few mappings mirrored into the TLBs and victim structures.
func healthyTarget(t *testing.T) (*Target, *vm.PageTable) {
	t.Helper()
	eng := sim.NewEngine()
	frames := vm.NewFrameAllocator(1 << 30)
	pt := vm.NewPageTable(frames, vm.Page4K)

	l1 := tlb.New("l1", 32, 32)
	l2 := tlb.New("l2", 512, 16)
	dev := tlb.New("dev", 32, 32)
	ldsUnit := lds.New(eng, lds.DefaultConfig())
	ic := icache.New(eng, icache.DefaultConfig())
	duc := ducati.New(instantMem{}, 0, 1024)

	for vpn := vm.VPN(0x100); vpn < 0x110; vpn++ {
		pfn := vm.PFN(uint64(frames.AllocData(vm.Page4K)) >> 12)
		pt.Map(vpn, pfn)
		e := tlb.Entry{Space: space1(), VPN: vpn, PFN: pfn}
		l1.Insert(e)
		l2.Insert(e)
		dev.Insert(e)
		ldsUnit.TxInsert(e)
		ic.TxInsert(e)
		duc.Fill(e)
	}
	eng.Run() // drain ducati fill events

	return &Target{
		PageTables:   map[vm.SpaceID]*vm.PageTable{space1(): pt},
		L1TLBs:       []*tlb.TLB{l1},
		L2TLB:        l2,
		DevTLBs:      []*tlb.TLB{dev},
		LDSs:         []*lds.LDS{ldsUnit},
		ICaches:      []*icache.ICache{ic},
		Ducati:       duc,
		TxEntryBound: 10_000,
	}, pt
}

func TestHealthySystemPassesAllProbes(t *testing.T) {
	tgt, _ := healthyTarget(t)
	tgt.ShotDown = []tlb.Key{tlb.MakeKey(space1(), 0x999)} // never inserted
	c := NewChecker()
	if n := c.Run(tgt, AfterFault|KernelBoundary, "test", 0); n != 0 {
		t.Fatalf("healthy target produced %d violations: %v", n, c.Violations)
	}
	if c.Err() != nil {
		t.Errorf("Err() = %v on healthy target", c.Err())
	}
	if c.Runs() != uint64(len(c.Probes)) {
		t.Errorf("Runs() = %d, want %d", c.Runs(), len(c.Probes))
	}
}

func TestShootdownCoverageProbeFindsSurvivors(t *testing.T) {
	tgt, _ := healthyTarget(t)
	// Claim 0x100 was shot down without actually purging it: it is
	// still resident everywhere, so every structure must be reported.
	tgt.ShotDown = []tlb.Key{tlb.MakeKey(space1(), 0x100)}
	c := NewChecker()
	n := c.Run(tgt, AfterFault, "test", 7)
	if n == 0 {
		t.Fatal("survivors not detected")
	}
	joined := ""
	for _, v := range c.Violations {
		if v.Probe != "shootdown-coverage" {
			t.Errorf("unexpected probe %s fired: %s", v.Probe, v)
		}
		if v.At != 7 || v.When != "test" {
			t.Errorf("violation context wrong: %+v", v)
		}
		joined += v.Detail + "\n"
	}
	for _, where := range []string{"l1tlb[0]", "lds[0]", "icache[0]", "l2tlb", "devtlb[0]", "ducati"} {
		if !strings.Contains(joined, where) {
			t.Errorf("survivor in %s not reported; got:\n%s", where, joined)
		}
	}
	var se *sim.SimError
	if err := c.Err(); !errors.As(err, &se) || se.Kind != sim.ErrInvariant {
		t.Errorf("Err() = %v, want invariant SimError", err)
	}
}

func TestCoherenceProbeFindsStaleAndUnmapped(t *testing.T) {
	tgt, pt := healthyTarget(t)
	// Migrate one page in the table only — structures now hold a stale
	// PFN. Unmap another — structures hold an unmapped VPN.
	pt.Map(0x100, 0xDEAD)
	pt.Unmap(0x101)
	c := NewChecker()
	if n := c.Run(tgt, KernelBoundary, "test", 0); n == 0 {
		t.Fatal("stale/unmapped entries not detected")
	}
	var stale, unmapped bool
	for _, v := range c.Violations {
		if v.Probe != "tx-coherence" {
			continue
		}
		if strings.Contains(v.Detail, "stale pfn") {
			stale = true
		}
		if strings.Contains(v.Detail, "unmapped vpn") {
			unmapped = true
		}
	}
	if !stale || !unmapped {
		t.Errorf("stale=%v unmapped=%v, want both; violations: %v", stale, unmapped, c.Violations)
	}
}

func TestEntryBoundProbe(t *testing.T) {
	tgt, _ := healthyTarget(t)
	tgt.TxEntryBound = 1 // 16 entries resident in LDS + IC
	c := NewChecker()
	if n := c.Run(tgt, KernelBoundary, "test", 0); n == 0 {
		t.Fatal("bound violation not detected")
	}
	found := false
	for _, v := range c.Violations {
		if v.Probe == "fig15-entry-bound" {
			found = true
		}
	}
	if !found {
		t.Errorf("fig15-entry-bound silent; got %v", c.Violations)
	}
	// Bound zero disables the probe.
	tgt.TxEntryBound = 0
	c2 := NewChecker()
	for _, v := range c2.Violations {
		if v.Probe == "fig15-entry-bound" {
			t.Errorf("disabled bound probe fired: %s", v)
		}
	}
}

func TestInstrAwareProbeIgnoresNaivePolicy(t *testing.T) {
	eng := sim.NewEngine()
	cfg := icache.DefaultConfig()
	cfg.Policy = icache.PolicyNaive
	ic := icache.New(eng, cfg)
	// Fill an instruction line then displace it with a translation: the
	// naive policy is allowed to lose it, so the probe must stay quiet.
	ic.FillInstr(0)
	for vpn := vm.VPN(0); vpn < 4096; vpn++ {
		ic.TxInsert(tlb.Entry{Space: space1(), VPN: vpn, PFN: vm.PFN(vpn)})
	}
	if ic.Stats().InstrLinesLostToTx == 0 {
		t.Skip("could not provoke an instruction-line loss")
	}
	tgt := &Target{ICaches: []*icache.ICache{ic}}
	c := NewChecker()
	if n := c.Run(tgt, AfterFault, "test", 0); n != 0 {
		t.Errorf("probe fired under naive policy: %v", c.Violations)
	}
}

func TestViolationCapKeepsFirstAndCounts(t *testing.T) {
	c := &Checker{Probes: []Probe{{
		Name:  "always-fails",
		Scope: AfterFault,
		Check: func(*Target) []string {
			out := make([]string, 10)
			for i := range out {
				out[i] = "boom"
			}
			return out
		},
	}}}
	tgt := &Target{}
	for i := 0; i < 20; i++ {
		c.Run(tgt, AfterFault, "test", sim.Time(i))
	}
	if len(c.Violations) != maxViolations {
		t.Errorf("recorded %d violations, cap is %d", len(c.Violations), maxViolations)
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "200 invariant violation") {
		t.Errorf("Err() should count dropped violations too: %v", err)
	}
}
