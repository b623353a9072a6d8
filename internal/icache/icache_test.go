package icache

import (
	"testing"
	"testing/quick"

	"gpureach/internal/sim"
	"gpureach/internal/tlb"
	"gpureach/internal/vm"
)

var space = vm.SpaceID{VMID: 1}

func entry(vpn vm.VPN) tlb.Entry {
	return tlb.Entry{Space: space, VPN: vpn, PFN: vm.PFN(vpn + 5000)}
}

func newDUT(mut func(*Config)) *ICache {
	cfg := DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	return New(sim.NewEngine(), cfg)
}

func TestGeometry(t *testing.T) {
	c := newDUT(nil)
	if c.NumLines() != 256 {
		t.Errorf("16KB/64B = %d lines, want 256", c.NumLines())
	}
	if c.TagOverheadBytes() != 1536 {
		t.Errorf("tag overhead = %d, want 1.5KB", c.TagOverheadBytes())
	}
	if newDUT(func(c *Config) { c.TxPerLine = 1 }).TagOverheadBytes() != 0 {
		t.Error("1-Tx design should have no tag overhead")
	}
}

func TestInstrFetchMissFillHit(t *testing.T) {
	c := newDUT(nil)
	addr := vm.PA(0x1000)
	hit, _ := c.Fetch(addr)
	if hit {
		t.Fatal("hit in empty cache")
	}
	c.FillInstr(addr)
	hit, _ = c.Fetch(addr)
	if !hit {
		t.Fatal("miss after fill")
	}
	// Same line, different word.
	if hit, _ = c.Fetch(addr + 32); !hit {
		t.Error("same-line fetch missed")
	}
	s := c.Stats()
	if s.InstrHits != 2 || s.InstrMisses != 1 || s.InstrFills != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestTxRoundTrip(t *testing.T) {
	c := newDUT(nil)
	e := entry(7)
	if _, _, ok := c.TxInsert(e); !ok {
		t.Fatal("insert failed in empty cache")
	}
	got, hit, _ := c.TxLookup(e.Key())
	if !hit || got != e {
		t.Fatalf("lookup = %+v %v", got, hit)
	}
}

func TestInstrAwareTxNeverEvictsInstructions(t *testing.T) {
	c := newDUT(nil)
	// Fill every line with instructions.
	for i := 0; i < c.NumLines(); i++ {
		c.FillInstr(vm.PA(i * 64))
	}
	if c.InstrResident() != c.NumLines() {
		t.Fatalf("instr resident = %d", c.InstrResident())
	}
	// No translation may now be inserted.
	for v := vm.VPN(0); v < 100; v++ {
		if _, _, ok := c.TxInsert(entry(v)); ok {
			t.Fatal("translation displaced an instruction line under instr-aware policy")
		}
	}
	if c.Stats().TxBypassIC != 100 {
		t.Errorf("TxBypassIC = %d", c.Stats().TxBypassIC)
	}
	if c.InstrResident() != c.NumLines() {
		t.Error("instruction lines lost")
	}
}

func TestNaiveTxReplacesInstructions(t *testing.T) {
	c := newDUT(func(c *Config) { c.Policy = PolicyNaive })
	for i := 0; i < c.NumLines(); i++ {
		c.FillInstr(vm.PA(i * 64))
	}
	if _, _, ok := c.TxInsert(entry(3)); !ok {
		t.Fatal("naive policy refused to replace instructions")
	}
	if c.Stats().InstrLinesLostToTx != 1 {
		t.Errorf("InstrLinesLostToTx = %d", c.Stats().InstrLinesLostToTx)
	}
	if c.InstrResident() != c.NumLines()-1 {
		t.Errorf("instr resident = %d", c.InstrResident())
	}
}

func TestInstrFillPrefersTxVictims(t *testing.T) {
	c := newDUT(nil)
	// Put translations on some lines; then fill more instruction lines
	// than sets×(ways-?) — instruction fills must consume Tx lines
	// before evicting other instructions.
	for v := vm.VPN(0); v < 64; v++ {
		c.TxInsert(entry(v))
	}
	txBefore := c.TxResident()
	if txBefore == 0 {
		t.Fatal("no tx resident")
	}
	// Fill all 256 lines with instructions: every Tx line is consumed,
	// and no instruction fill should be blocked.
	for i := 0; i < c.NumLines(); i++ {
		c.FillInstr(vm.PA(i * 64))
	}
	if c.TxResident() != 0 {
		t.Errorf("tx resident = %d after full instruction fill", c.TxResident())
	}
	if c.InstrResident() != c.NumLines() {
		t.Errorf("instr resident = %d", c.InstrResident())
	}
	if c.Stats().TxDroppedByInstrFill == 0 {
		t.Error("no tx drops recorded")
	}
}

func TestTxSubWayLRU(t *testing.T) {
	c := newDUT(nil)
	n := vm.VPN(c.NumLines())
	// 9 VPNs mapping to the same line (stride = numLines): fills 8
	// sub-ways then evicts the LRU.
	for i := vm.VPN(0); i < 8; i++ {
		if _, hv, ok := c.TxInsert(entry(5 + i*n)); !ok || hv {
			t.Fatalf("insert %d: ok=%v hv=%v", i, ok, hv)
		}
	}
	// Touch the first so the second becomes LRU.
	c.TxLookup(entry(5).Key())
	victim, hv, ok := c.TxInsert(entry(5 + 8*n))
	if !ok || !hv {
		t.Fatalf("9th insert ok=%v hv=%v", ok, hv)
	}
	if victim.VPN != 5+n {
		t.Errorf("victim VPN = %d, want %d", victim.VPN, 5+n)
	}
}

// The Tx-mode state is built by the first insert that puts a line into
// Tx-mode, under either policy, and by nothing else: probes, a
// shootdown, instruction fills and an insert the instruction-aware
// policy bypasses leave a cache that never held a translation without
// it.
func TestTxStateBuiltOnFirstTxLine(t *testing.T) {
	for _, p := range []Policy{PolicyInstrAware, PolicyNaive} {
		c := newDUT(func(c *Config) { c.Policy = p })
		e := entry(9)
		c.TxLookup(e.Key())
		c.TxProbe(e.Key())
		c.Shootdown(e.Key())
		c.ForEachTx(func(tlb.Entry) { t.Error("empty cache reported a translation") })
		for i := 0; i < c.NumLines(); i++ {
			c.FillInstr(vm.PA(i * 64))
		}
		if c.tx != nil {
			t.Fatalf("%v: Tx state built before any line entered Tx-mode", p)
		}
		if p == PolicyInstrAware {
			if _, _, ok := c.TxInsert(e); ok || c.tx != nil {
				t.Fatalf("%v: insert onto an instruction line: ok=%v, Tx state built=%v", p, ok, c.tx != nil)
			}
			c.KernelBoundary("a")
			c.KernelBoundary("b") // flushes the instruction lines
		}
		if _, _, ok := c.TxInsert(e); !ok {
			t.Fatalf("%v: first Tx-mode insert failed", p)
		}
		if len(c.tx) != c.NumLines() {
			t.Errorf("%v: %d Tx states for %d lines", p, len(c.tx), c.NumLines())
		}
	}
}

func TestOneTxPerLineDesign(t *testing.T) {
	c := newDUT(func(c *Config) { c.TxPerLine = 1 })
	n := vm.VPN(c.NumLines())
	c.TxInsert(entry(5))
	victim, hv, ok := c.TxInsert(entry(5 + n))
	if !ok || !hv || victim.VPN != 5 {
		t.Errorf("1-Tx line: ok=%v hv=%v victim=%+v", ok, hv, victim)
	}
	if c.TxResident() != 1 {
		t.Errorf("TxResident = %d", c.TxResident())
	}
}

func TestKernelBoundaryFlush(t *testing.T) {
	c := newDUT(nil)
	for i := 0; i < 10; i++ {
		c.FillInstr(vm.PA(i * 64))
	}
	util := c.KernelBoundary("k1")
	if util != 10.0/256 {
		t.Errorf("utilization = %v, want %v", util, 10.0/256)
	}
	// First boundary: no previous kernel, no flush.
	if c.Stats().Flushes != 0 {
		t.Error("flushed before any kernel ran")
	}
	// Different kernel: flush.
	c.KernelBoundary("k2")
	if c.Stats().Flushes != 1 || c.InstrResident() != 0 {
		t.Errorf("flushes=%d instrResident=%d", c.Stats().Flushes, c.InstrResident())
	}
	// Back-to-back same kernel (NW's nw_kernel1 case): no flush.
	c.FillInstr(0)
	c.KernelBoundary("k2")
	if c.Stats().Flushes != 1 {
		t.Error("flushed on back-to-back identical kernel")
	}
	if c.InstrResident() != 1 {
		t.Error("instructions lost on same-kernel boundary")
	}
}

func TestFlushDisabled(t *testing.T) {
	c := newDUT(func(c *Config) { c.FlushAtKernelBoundary = false })
	c.FillInstr(0)
	c.KernelBoundary("k1")
	c.KernelBoundary("k2")
	if c.Stats().Flushes != 0 {
		t.Error("flush ran while disabled")
	}
}

func TestFlushFreesCapacityForTx(t *testing.T) {
	c := newDUT(nil)
	for i := 0; i < c.NumLines(); i++ {
		c.FillInstr(vm.PA(i * 64))
	}
	if c.FreeTxCapacity() != 0 {
		t.Fatalf("FreeTxCapacity = %d with all lines IC", c.FreeTxCapacity())
	}
	c.KernelBoundary("a")
	c.KernelBoundary("b") // flush happens here
	if got := c.FreeTxCapacity(); got != c.NumLines()*8 {
		t.Errorf("FreeTxCapacity after flush = %d, want %d", got, c.NumLines()*8)
	}
}

func TestUtilizationCapsAtOne(t *testing.T) {
	c := newDUT(nil)
	for i := 0; i < 2*c.NumLines(); i++ {
		c.FillInstr(vm.PA(i * 64))
	}
	if util := c.KernelBoundary("k"); util != 1 {
		t.Errorf("utilization = %v, want capped 1 (Eq. 1)", util)
	}
}

func TestLatencies(t *testing.T) {
	cfg := DefaultConfig()
	c := New(sim.NewEngine(), cfg)
	want := cfg.TxTagLatency + cfg.MuxLatency + cfg.DecompLatency // 20+1+4
	if got := c.TxLookupLatency(); got != want {
		t.Errorf("TxLookupLatency = %d, want %d", got, want)
	}
	cfg.ExtraWireLatency = 50
	if got := New(sim.NewEngine(), cfg).TxLookupLatency(); got != want+50 {
		t.Errorf("with wire latency = %d", got)
	}
}

func TestShootdown(t *testing.T) {
	c := newDUT(nil)
	e := entry(11)
	c.TxInsert(e)
	if !c.Shootdown(e.Key()) {
		t.Fatal("shootdown missed")
	}
	if _, hit, _ := c.TxLookup(e.Key()); hit {
		t.Error("entry survived shootdown")
	}
}

func TestDisabledReconfiguration(t *testing.T) {
	c := newDUT(func(c *Config) { c.TxPerLine = 0 })
	if _, _, ok := c.TxInsert(entry(1)); ok {
		t.Error("insert succeeded with reconfiguration disabled")
	}
	if c.FreeTxCapacity() != 0 || c.TxResident() != 0 {
		t.Error("capacity nonzero with reconfiguration disabled")
	}
}

func TestSpaceIsolation(t *testing.T) {
	c := newDUT(nil)
	c.TxInsert(entry(5))
	if _, hit, _ := c.TxLookup(tlb.MakeKey(vm.SpaceID{VMID: 2}, 5)); hit {
		t.Error("translation leaked across address spaces")
	}
}

func TestForEachTx(t *testing.T) {
	c := newDUT(nil)
	c.TxInsert(entry(1))
	c.TxInsert(entry(2))
	count := 0
	c.ForEachTx(func(tlb.Entry) { count++ })
	if count != 2 {
		t.Errorf("ForEachTx visited %d", count)
	}
}

// Property: under the instruction-aware policy, InstrResident never
// decreases as a result of TxInsert (DESIGN.md §5 invariant).
func TestInstrAwareInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := newDUT(nil)
		for _, op := range ops {
			before := c.InstrResident()
			if op%2 == 0 {
				c.FillInstr(vm.PA(op) * 64)
			} else {
				c.TxInsert(entry(vm.VPN(op)))
				if c.InstrResident() < before {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: total resident translations never exceed structural capacity.
func TestTxCapacityBoundProperty(t *testing.T) {
	f := func(vpns []uint16) bool {
		c := newDUT(nil)
		for _, v := range vpns {
			c.TxInsert(entry(vm.VPN(v)))
		}
		return c.TxResident() <= c.NumLines()*8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCompressionRejectCounted(t *testing.T) {
	c := newDUT(nil)
	n := vm.VPN(c.NumLines())
	// Two VPNs in the same line whose tags differ by far more than the
	// 8-bit delta range.
	c.TxInsert(entry(5))
	_, _, ok := c.TxInsert(entry(5 + 100000*n))
	if ok {
		t.Fatal("tag outside delta range was accepted")
	}
	if c.Stats().CompressionRejects != 1 {
		t.Errorf("CompressionRejects = %d", c.Stats().CompressionRejects)
	}
}

// --- MSHR-style in-flight fill dedup -------------------------------------

func TestStartFillClaimsOwnership(t *testing.T) {
	c := newDUT(nil)
	addr := vm.PA(0x1000)
	if !c.StartFill(addr) {
		t.Fatal("first StartFill should own the fill")
	}
	if c.StartFill(addr) {
		t.Fatal("second StartFill for the same line should merge")
	}
	if !c.FillPending(addr) {
		t.Fatal("FillPending should report the in-flight fill")
	}
	if c.FillsInflight() != 1 {
		t.Fatalf("FillsInflight = %d, want 1", c.FillsInflight())
	}
	c.CompleteFill(addr)
	if c.FillPending(addr) {
		t.Fatal("CompleteFill should clear the in-flight state")
	}
	if !c.HasInstr(addr) {
		t.Fatal("CompleteFill should install the line")
	}
	if !c.StartFill(addr) {
		t.Fatal("a new StartFill after completion should own again")
	}
}

func TestCompleteFillWakesWaitersInOrder(t *testing.T) {
	c := newDUT(nil)
	addr := vm.PA(0x2000)
	if !c.StartFill(addr) {
		t.Fatal("owner should claim the fill")
	}
	var order []int
	record := func(ctx any) { order = append(order, ctx.(int)) }
	for i := 1; i <= 3; i++ {
		if c.StartFill(addr) {
			t.Fatalf("waiter %d should not own the fill", i)
		}
		c.WaitFill(addr, record, i)
	}
	c.CompleteFill(addr)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("waiters drained as %v, want [1 2 3]", order)
	}
}

func TestCompleteFillDrainsWaitersOnRacedInstall(t *testing.T) {
	c := newDUT(nil)
	addr := vm.PA(0x3000)
	if !c.StartFill(addr) {
		t.Fatal("owner should claim the fill")
	}
	woken := false
	c.WaitFill(addr, func(any) { woken = true }, nil)
	// Another path installs the line before the owner's fill returns
	// (e.g. a kernel-boundary refetch): the waiters must still drain.
	c.FillInstr(addr)
	c.CompleteFill(addr)
	if !woken {
		t.Fatal("waiter not drained when the install raced")
	}
}

func TestFillDedupDistinguishesLines(t *testing.T) {
	c := newDUT(nil)
	a, b := vm.PA(0x1000), vm.PA(0x1040)
	if !c.StartFill(a) || !c.StartFill(b) {
		t.Fatal("fills of distinct lines are independent")
	}
	c.CompleteFill(a)
	if !c.FillPending(b) {
		t.Fatal("completing one line must not clear another")
	}
	c.CompleteFill(b)
}
