package lds

import (
	"testing"
	"testing/quick"

	"gpureach/internal/sim"
	"gpureach/internal/tlb"
	"gpureach/internal/vm"
)

var space = vm.SpaceID{VMID: 1}

func entry(vpn vm.VPN) tlb.Entry {
	return tlb.Entry{Space: space, VPN: vpn, PFN: vm.PFN(vpn + 1000)}
}

func newDUT() (*sim.Engine, *LDS) {
	eng := sim.NewEngine()
	return eng, New(eng, DefaultConfig())
}

// geometries are the default 32-byte segments (3 ways) and the
// §6.3.1 64-byte segments (6 ways).
func geometries() []Config {
	cfg64 := DefaultConfig()
	cfg64.SegmentBytes = 64
	return []Config{DefaultConfig(), cfg64}
}

func TestGeometry(t *testing.T) {
	_, l := newDUT()
	if l.NumSegments() != 512 {
		t.Errorf("16KB/32B = %d segments, want 512", l.NumSegments())
	}
	if DefaultConfig().TxWaysPerSegment() != 3 {
		t.Errorf("32B segments should hold 3 translations")
	}
	cfg64 := DefaultConfig()
	cfg64.SegmentBytes = 64
	if cfg64.TxWaysPerSegment() != 6 {
		t.Errorf("64B segments should hold 6 translations (§6.3.1)")
	}
}

func TestTxInsertLookupRoundTrip(t *testing.T) {
	for _, cfg := range geometries() {
		l := New(sim.NewEngine(), cfg)
		e := entry(7)
		if _, _, ok := l.TxInsert(e); !ok {
			t.Fatalf("%dB segments: insert failed on empty LDS", cfg.SegmentBytes)
		}
		got, hit, _ := l.TxLookup(e.Key())
		if !hit || got != e {
			t.Fatalf("%dB segments: lookup = %+v, %v", cfg.SegmentBytes, got, hit)
		}
		if l.Stats().TxHits != 1 {
			t.Errorf("%dB segments: TxHits = %d", cfg.SegmentBytes, l.Stats().TxHits)
		}
	}
}

// The Tx-mode arrays are built by the first insert into a free
// segment, sized segments × ways, and by nothing else: probes,
// shootdowns, work-group allocation and an insert bypassed by an
// LDS-mode segment leave an LDS that never held a translation without
// them.
func TestTxArraysBuiltOnFirstTxSegment(t *testing.T) {
	for _, cfg := range geometries() {
		l := New(sim.NewEngine(), cfg)
		e := entry(9)
		l.TxLookup(e.Key())
		l.TxProbe(e.Key())
		l.Shootdown(e.Key())
		l.ForEachTx(func(tlb.Entry) { t.Error("empty LDS reported a translation") })
		if !l.AllocWorkgroup(1, cfg.SizeBytes) {
			t.Fatal("full allocation failed")
		}
		if _, _, ok := l.TxInsert(e); ok {
			t.Fatal("insert into an LDS-mode segment succeeded")
		}
		l.FreeWorkgroup(1)
		if l.FreeTxCapacity() != l.NumSegments()*cfg.TxWaysPerSegment() || l.TxResident() != 0 {
			t.Errorf("%dB segments: free capacity %d, resident %d", cfg.SegmentBytes, l.FreeTxCapacity(), l.TxResident())
		}
		if l.tags != nil || l.ways != nil {
			t.Fatalf("%dB segments: Tx arrays built before any segment entered Tx-mode", cfg.SegmentBytes)
		}
		if _, _, ok := l.TxInsert(e); !ok {
			t.Fatal("insert into a free segment failed")
		}
		if len(l.tags) != l.NumSegments() || len(l.ways) != l.NumSegments()*cfg.TxWaysPerSegment() {
			t.Errorf("%dB segments: %d tag groups and %d ways for %d segments of %d ways", cfg.SegmentBytes,
				len(l.tags), len(l.ways), l.NumSegments(), cfg.TxWaysPerSegment())
		}
	}
}

func TestTxMissOnEmptySegment(t *testing.T) {
	_, l := newDUT()
	if _, hit, _ := l.TxLookup(entry(3).Key()); hit {
		t.Error("hit in empty LDS")
	}
}

func TestSegmentAssociativityAndLRU(t *testing.T) {
	for _, cfg := range geometries() {
		l := New(sim.NewEngine(), cfg)
		ways := cfg.TxWaysPerSegment()
		n := vm.VPN(l.NumSegments())
		// ways+1 VPNs mapping to segment 5: 5, 5+n, 5+2n, ...
		var vpns []vm.VPN
		for i := 0; i <= ways; i++ {
			vpns = append(vpns, 5+vm.VPN(i)*n)
		}
		for _, v := range vpns[:ways] {
			if _, hv, ok := l.TxInsert(entry(v)); !ok || hv {
				t.Fatalf("%d ways: insert %d: ok=%v victim=%v", ways, v, ok, hv)
			}
		}
		// Touch vpn 5: MRU. One more insert: the victim must be 5+n (LRU).
		l.TxLookup(entry(5).Key())
		victim, hv, ok := l.TxInsert(entry(vpns[ways]))
		if !ok || !hv {
			t.Fatalf("%d ways: insert %d ok=%v victim=%v", ways, ways+1, ok, hv)
		}
		if victim != entry(5+n) {
			t.Errorf("%d ways: victim = %+v, want %+v", ways, victim, entry(5+n))
		}
		for i, v := range vpns {
			_, hit, _ := l.TxLookup(entry(v).Key())
			if want := i != 1; hit != want {
				t.Errorf("%d ways: VPN %d resident=%v, want %v", ways, v, hit, want)
			}
		}
		if l.Stats().TxEvictions != 1 {
			t.Errorf("%d ways: TxEvictions = %d", ways, l.Stats().TxEvictions)
		}
	}
}

func TestLDSModeNeverOverwrittenByTx(t *testing.T) {
	_, l := newDUT()
	// Reserve the whole LDS for a work-group.
	if !l.AllocWorkgroup(1, l.Config().SizeBytes) {
		t.Fatal("full allocation failed")
	}
	_, _, ok := l.TxInsert(entry(7))
	if ok {
		t.Fatal("translation overwrote an LDS-mode segment")
	}
	if l.Stats().TxBypassLDSMode != 1 {
		t.Errorf("TxBypassLDSMode = %d", l.Stats().TxBypassLDSMode)
	}
}

func TestAllocReclaimsTxSegmentsInstantly(t *testing.T) {
	_, l := newDUT()
	// Fill some translations everywhere.
	for v := vm.VPN(0); v < 100; v++ {
		l.TxInsert(entry(v))
	}
	resident := l.TxResident()
	if resident == 0 {
		t.Fatal("no translations resident")
	}
	if !l.AllocWorkgroup(1, l.Config().SizeBytes) {
		t.Fatal("allocation over Tx segments failed")
	}
	if l.TxResident() != 0 {
		t.Error("translations survived a full allocation")
	}
	if l.Stats().TxLostToAlloc != uint64(resident) {
		t.Errorf("TxLostToAlloc = %d, want %d", l.Stats().TxLostToAlloc, resident)
	}
}

func TestFreeWorkgroupReleasesCapacity(t *testing.T) {
	_, l := newDUT()
	if !l.AllocWorkgroup(1, 8192) {
		t.Fatal("alloc failed")
	}
	if !l.AllocWorkgroup(2, 8192) {
		t.Fatal("second alloc failed")
	}
	if l.AllocWorkgroup(3, 32) {
		t.Fatal("over-subscription succeeded")
	}
	if l.Stats().AllocFailures != 1 {
		t.Errorf("AllocFailures = %d", l.Stats().AllocFailures)
	}
	l.FreeWorkgroup(1)
	if !l.AllocWorkgroup(3, 8192) {
		t.Error("allocation after free failed")
	}
	if l.AllocatedBytes() != 16384 {
		t.Errorf("AllocatedBytes = %d", l.AllocatedBytes())
	}
}

func TestContiguousAllocationFragmentation(t *testing.T) {
	_, l := newDUT()
	// Allocate three 4KB blocks, free the middle one: 8KB total free but
	// max contiguous run is 4KB + the tail.
	l.AllocWorkgroup(1, 4096)
	l.AllocWorkgroup(2, 4096)
	l.AllocWorkgroup(3, 4096)
	l.FreeWorkgroup(2)
	// 4KB free in the hole + 4KB tail; a 6KB contiguous request must
	// land in neither hole if fragmented... the tail has 4KB only, so
	// 6KB fails even though 8KB is nominally free.
	if l.AllocWorkgroup(4, 6*1024) {
		t.Error("fragmented allocation should fail for 6KB contiguous")
	}
	if !l.AllocWorkgroup(5, 4096) {
		t.Error("4KB fits in the freed hole")
	}
}

func TestFreeTxCapacityAccounting(t *testing.T) {
	_, l := newDUT()
	full := l.FreeTxCapacity()
	if full != 512*3 {
		t.Errorf("empty LDS capacity = %d, want 1536", full)
	}
	l.TxInsert(entry(1))
	if got := l.FreeTxCapacity(); got != full-1 {
		t.Errorf("capacity after one insert = %d, want %d", got, full-1)
	}
	l.AllocWorkgroup(1, l.Config().SizeBytes/2)
	if got := l.FreeTxCapacity(); got > full/2 {
		t.Errorf("capacity after half allocation = %d, want ≤ %d", got, full/2)
	}
}

func TestTxLookupLatency(t *testing.T) {
	cfg := DefaultConfig()
	l := New(sim.NewEngine(), cfg)
	want := cfg.TxLatency + cfg.MuxLatency + cfg.DecompLat // 35+1+4
	if got := l.TxLookupLatency(); got != want {
		t.Errorf("TxLookupLatency = %d, want %d", got, want)
	}
	cfg.ExtraWireLatency = 100
	l = New(sim.NewEngine(), cfg)
	if got := l.TxLookupLatency(); got != want+100 {
		t.Errorf("with wire latency = %d, want %d", got, want+100)
	}
}

func TestPortSharedBetweenAppAndTx(t *testing.T) {
	eng, l := newDUT()
	t1 := l.AppAccess()
	_, _, t2 := l.TxLookup(entry(1).Key())
	if t2 <= t1-l.Config().AppLatency {
		t.Errorf("tx lookup did not serialize behind app access: %d vs %d", t2, t1)
	}
	_ = eng
	if l.Port().Grants() != 2 {
		t.Errorf("port grants = %d", l.Port().Grants())
	}
}

func TestShootdown(t *testing.T) {
	_, l := newDUT()
	e := entry(9)
	l.TxInsert(e)
	if !l.Shootdown(e.Key()) {
		t.Fatal("shootdown missed resident entry")
	}
	if l.Shootdown(e.Key()) {
		t.Error("double shootdown returned true")
	}
	if _, hit, _ := l.TxLookup(e.Key()); hit {
		t.Error("entry resident after shootdown")
	}
}

func TestRefreshOnReinsert(t *testing.T) {
	_, l := newDUT()
	e := entry(4)
	l.TxInsert(e)
	e2 := e
	e2.PFN = 9999
	if _, hv, ok := l.TxInsert(e2); !ok || hv {
		t.Fatalf("reinsert ok=%v victim=%v", ok, hv)
	}
	got, hit, _ := l.TxLookup(e.Key())
	if !hit || got.PFN != 9999 {
		t.Errorf("refresh lost: %+v", got)
	}
	if l.TxResident() != 1 {
		t.Errorf("TxResident = %d after refresh", l.TxResident())
	}
}

func TestForEachTx(t *testing.T) {
	for _, cfg := range geometries() {
		l := New(sim.NewEngine(), cfg)
		n := vm.VPN(l.NumSegments())
		// Two segments, the second filled to every way, then one of
		// its ways shot down.
		want := map[vm.VPN]bool{1: true}
		l.TxInsert(entry(1))
		for i := 0; i < cfg.TxWaysPerSegment(); i++ {
			want[2+vm.VPN(i)*n] = true
			l.TxInsert(entry(2 + vm.VPN(i)*n))
		}
		l.Shootdown(entry(2 + n).Key())
		delete(want, 2+n)
		seen := map[vm.VPN]bool{}
		l.ForEachTx(func(e tlb.Entry) {
			if e != entry(e.VPN) {
				t.Errorf("ForEachTx entry %+v, want %+v", e, entry(e.VPN))
			}
			seen[e.VPN] = true
		})
		if len(seen) != len(want) {
			t.Errorf("%dB segments: ForEachTx saw %v, want %v", cfg.SegmentBytes, seen, want)
		}
		for v := range want {
			if !seen[v] {
				t.Errorf("%dB segments: ForEachTx missed VPN %d", cfg.SegmentBytes, v)
			}
		}
	}
}

func TestSpaceIsolation(t *testing.T) {
	_, l := newDUT()
	e := entry(5)
	l.TxInsert(e)
	other := tlb.MakeKey(vm.SpaceID{VMID: 2}, 5)
	if _, hit, _ := l.TxLookup(other); hit {
		t.Error("translation leaked across address spaces")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SegmentBytes = 48 // not dividing 16KB... actually divides; use 0
	cfg.SegmentBytes = 0
	defer func() {
		if recover() == nil {
			t.Error("bad geometry did not panic")
		}
	}()
	New(sim.NewEngine(), cfg)
}

// Property: after any interleaving of inserts and work-group
// allocations, no segment inside an active allocation is in Tx-mode.
func TestNoTxInsideAllocationsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		_, l := newDUT()
		wg := 0
		for _, op := range ops {
			switch op % 3 {
			case 0:
				l.TxInsert(entry(vm.VPN(op)))
			case 1:
				wg++
				l.AllocWorkgroup(wg, int(op%64+1)*32)
			case 2:
				if wg > 0 {
					l.FreeWorkgroup(wg)
					wg--
				}
			}
		}
		for _, a := range l.allocs {
			for s := a.startSeg; s < a.startSeg+a.segs; s++ {
				if l.segments[s].mode != LDSMode {
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

// Property: resident + free capacity never exceeds the structural bound.
func TestCapacityBoundProperty(t *testing.T) {
	f := func(vpns []uint16) bool {
		_, l := newDUT()
		for _, v := range vpns {
			l.TxInsert(entry(vm.VPN(v)))
		}
		bound := l.NumSegments() * l.Config().TxWaysPerSegment()
		return l.TxResident()+l.FreeTxCapacity() <= bound && l.TxResident() <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSegment64ByteRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SegmentBytes = 64
	l := New(sim.NewEngine(), cfg)
	if l.NumSegments() != 256 {
		t.Fatalf("16KB/64B = %d segments", l.NumSegments())
	}
	// 6 ways per segment (§6.3.1): seven inserts into one segment evict.
	n := vm.VPN(l.NumSegments())
	for i := vm.VPN(0); i < 6; i++ {
		if _, hv, ok := l.TxInsert(entry(3 + i*n)); !ok || hv {
			t.Fatalf("insert %d: ok=%v hv=%v", i, ok, hv)
		}
	}
	if _, hv, ok := l.TxInsert(entry(3 + 6*n)); !ok || !hv {
		t.Fatalf("7th insert should evict: ok=%v hv=%v", ok, hv)
	}
	for i := vm.VPN(1); i < 7; i++ {
		if _, hit, _ := l.TxLookup(entry(3 + i*n).Key()); !hit {
			t.Errorf("resident way %d missing", i)
		}
	}
}

func TestModeString(t *testing.T) {
	if Free.String() != "free" || LDSMode.String() != "lds" || TxMode.String() != "tx" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode should still render")
	}
}
