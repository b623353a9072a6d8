package walker

import (
	"math/rand"
	"slices"
	"testing"

	"gpureach/internal/sim"
	"gpureach/internal/tlb"
	"gpureach/internal/vm"
)

// countingMem is a fixed-latency memory that counts accesses.
type countingMem struct {
	eng     *sim.Engine
	latency sim.Time
	reads   int
}

func (m *countingMem) AccessEvent(addr vm.PA, write bool, h sim.Handler, ctx any) {
	m.reads++
	m.eng.AfterEvent(m.latency, h, ctx)
}

func setup(t *testing.T, cfg Config) (*sim.Engine, *IOMMU, *vm.AddrSpace, *countingMem) {
	t.Helper()
	eng := sim.NewEngine()
	mem := &countingMem{eng: eng, latency: 50}
	io := New(eng, cfg, mem)
	frames := vm.NewFrameAllocator(16 << 30)
	space := vm.NewAddrSpace(vm.SpaceID{}, frames, vm.Page4K)
	return eng, io, space, mem
}

func TestColdWalkTouchesAllLevels(t *testing.T) {
	eng, io, space, mem := setup(t, DefaultConfig())
	buf := space.Alloc("A", 4096)
	vpn := space.VPN(buf.Base)

	var got tlb.Entry
	io.Translate(space, vpn, func(e tlb.Entry) { got = e })
	eng.Run()

	if mem.reads != 4 {
		t.Errorf("cold 4K walk read %d levels, want 4", mem.reads)
	}
	want, _ := space.PageTable().Lookup(vpn)
	if got.PFN != want {
		t.Errorf("PFN = %d, want %d", got.PFN, want)
	}
	s := io.Stats()
	if s.Walks != 1 || s.WalkSteps != 4 || s.PWCMiss != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestPWCSkipsLevels(t *testing.T) {
	eng, io, space, mem := setup(t, DefaultConfig())
	buf := space.Alloc("A", 2*4096) // adjacent pages share PMD prefix

	io.Translate(space, space.VPN(buf.Base), func(tlb.Entry) {})
	eng.Run()
	before := mem.reads

	// Second walk: PMD cache hit leaves only the PTE access.
	io.Translate(space, space.VPN(buf.Base+4096), func(tlb.Entry) {})
	eng.Run()
	if mem.reads-before != 1 {
		t.Errorf("PMD-hit walk read %d levels, want 1", mem.reads-before)
	}
	if io.Stats().PWCHitPMD != 1 {
		t.Errorf("PMD hits = %d", io.Stats().PWCHitPMD)
	}
}

func TestDeviceTLBHitAvoidsWalk(t *testing.T) {
	eng, io, space, mem := setup(t, DefaultConfig())
	buf := space.Alloc("A", 4096)
	vpn := space.VPN(buf.Base)

	io.Translate(space, vpn, func(tlb.Entry) {})
	eng.Run()
	walksBefore := io.Stats().Walks
	readsBefore := mem.reads

	io.Translate(space, vpn, func(tlb.Entry) {})
	eng.Run()
	s := io.Stats()
	if s.Walks != walksBefore {
		t.Error("device TLB hit still walked")
	}
	if mem.reads != readsBefore {
		t.Error("device TLB hit touched memory")
	}
	if s.DevTLBHits != 1 {
		t.Errorf("DevTLBHits = %d", s.DevTLBHits)
	}
}

func TestConcurrentSameVPNMerged(t *testing.T) {
	eng, io, space, _ := setup(t, DefaultConfig())
	buf := space.Alloc("A", 4096)
	vpn := space.VPN(buf.Base)

	done := 0
	for i := 0; i < 5; i++ {
		io.Translate(space, vpn, func(tlb.Entry) { done++ })
	}
	eng.Run()
	if done != 5 {
		t.Fatalf("done = %d", done)
	}
	s := io.Stats()
	if s.Walks != 1 {
		t.Errorf("walks = %d, want 1 (merged)", s.Walks)
	}
	if s.MergedWalks != 4 {
		t.Errorf("merged = %d, want 4", s.MergedWalks)
	}
}

func TestWalkerLimitQueues(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumWalkers = 2
	eng, io, space, _ := setup(t, cfg)
	buf := space.Alloc("A", 64*4096)

	done := 0
	for i := uint64(0); i < 8; i++ {
		vpn := space.VPN(buf.At(i * 4096))
		io.Translate(space, vpn, func(tlb.Entry) { done++ })
	}
	eng.Run()
	if done != 8 {
		t.Fatalf("done = %d", done)
	}
	if io.Stats().MaxQueue == 0 {
		t.Error("queue never built up with only 2 walkers")
	}
	if io.Stats().Walks != 8 {
		t.Errorf("walks = %d", io.Stats().Walks)
	}
}

func TestWalkParallelismSpeedsUp(t *testing.T) {
	run := func(walkers int) sim.Time {
		cfg := DefaultConfig()
		cfg.NumWalkers = walkers
		eng, io, space, _ := setup(t, cfg)
		buf := space.Alloc("A", 256*4096)
		for i := uint64(0); i < 32; i++ {
			io.Translate(space, space.VPN(buf.At(i*97*4096%buf.Size)), func(tlb.Entry) {})
		}
		eng.Run()
		return eng.Now()
	}
	serial := run(1)
	parallel := run(16)
	if parallel >= serial {
		t.Errorf("16 walkers (%d cy) not faster than 1 (%d cy)", parallel, serial)
	}
}

func Test2MPagesWalkThreeLevels(t *testing.T) {
	eng := sim.NewEngine()
	mem := &countingMem{eng: eng, latency: 50}
	io := New(eng, DefaultConfig(), mem)
	frames := vm.NewFrameAllocator(64 << 30)
	space := vm.NewAddrSpace(vm.SpaceID{}, frames, vm.Page2M)
	buf := space.Alloc("A", 2<<20)

	io.Translate(space, space.VPN(buf.Base), func(tlb.Entry) {})
	eng.Run()
	if mem.reads != 3 {
		t.Errorf("cold 2M walk read %d levels, want 3", mem.reads)
	}
}

func TestShootdownClearsDeviceTLBs(t *testing.T) {
	eng, io, space, _ := setup(t, DefaultConfig())
	buf := space.Alloc("A", 4096)
	vpn := space.VPN(buf.Base)

	io.Translate(space, vpn, func(tlb.Entry) {})
	eng.Run()
	io.Shootdown(space.ID, vpn)
	walksBefore := io.Stats().Walks
	io.Translate(space, vpn, func(tlb.Entry) {})
	eng.Run()
	if io.Stats().Walks != walksBefore+1 {
		t.Error("translation after shootdown did not re-walk")
	}
}

func TestUnmappedVPNPanics(t *testing.T) {
	eng, io, space, _ := setup(t, DefaultConfig())
	io.Translate(space, 0xDEAD, func(tlb.Entry) {})
	defer func() {
		if recover() == nil {
			t.Error("walk of unmapped VPN did not panic")
		}
	}()
	eng.Run()
}

func TestZeroWalkersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero walkers did not panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.NumWalkers = 0
	New(sim.NewEngine(), cfg, nil)
}

func TestPWCCapacityEviction(t *testing.T) {
	cfg := DefaultConfig()
	eng, io, space, _ := setup(t, cfg)
	// Spread allocations far apart so each lands in a different PGD
	// prefix; with only 4 PGD entries, the 5th walk evicts the 1st.
	// 1 PGD entry covers 512GB, so synthesize spaces instead: reuse one
	// space but check that the pgd pwc respects its capacity bound.
	buf := space.Alloc("A", 4096)
	io.Translate(space, space.VPN(buf.Base), func(tlb.Entry) {})
	eng.Run()
	if len(io.pgd.keys) > cfg.PGDEntries {
		t.Errorf("PGD cache holds %d > %d entries", len(io.pgd.keys), cfg.PGDEntries)
	}
	for i := uint64(0); i < 100; i++ {
		io.pmd.fill(i)
	}
	if len(io.pmd.keys) > cfg.PMDEntries {
		t.Errorf("PMD cache holds %d > %d entries", len(io.pmd.keys), cfg.PMDEntries)
	}
}

// refPWC is the stamp-model page-walk cache the LRU list replaced:
// parallel key and stamp arrays (stamp 0 is an empty slot), a probe
// hit restamps its slot, and a fill refreshes a present key, else
// takes the lowest free slot, else the minimum stamp.
type refPWC struct {
	keys, stamps []uint64
	clock, hits  uint64
}

func (p *refPWC) probe(key uint64) bool {
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

func (p *refPWC) fill(key uint64) {
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
			p.stamps[i] = p.clock
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

// Random probes and fills over half again as many keys as slots give
// the same hits and the same keys in the same slots as the stamp
// model, on the PGD, PUD and PMD caches' 4, 8 and 32 entries and on a
// zero-entry cache.
func TestPWCMatchesStampModel(t *testing.T) {
	for _, n := range []int{0, 4, 8, 32} {
		rng := rand.New(rand.NewSource(int64(n)))
		got := newPWC(n)
		ref := &refPWC{keys: make([]uint64, n), stamps: make([]uint64, n)}
		for step := 0; step < 5000; step++ {
			key := uint64(rng.Intn(n*3/2 + 1))
			if rng.Intn(2) == 0 {
				if got.probe(key) != ref.probe(key) {
					t.Fatalf("%d entries, step %d: probe(%d) disagrees", n, step, key)
				}
			} else {
				got.fill(key)
				ref.fill(key)
			}
			var want []uint64
			for i, s := range ref.stamps {
				if s != 0 {
					want = append(want, ref.keys[i])
				}
			}
			if have := got.keys[:got.lru.Len(0)]; !slices.Equal(have, want) || got.hits != ref.hits {
				t.Fatalf("%d entries, step %d: slots %v, %d hits; model %v, %d hits", n, step, have, got.hits, want, ref.hits)
			}
		}
	}
}

func TestPWCNotUsedAcrossLevels2M(t *testing.T) {
	eng := sim.NewEngine()
	mem := &countingMem{eng: eng, latency: 10}
	io := New(eng, DefaultConfig(), mem)
	frames := vm.NewFrameAllocator(64 << 30)
	space := vm.NewAddrSpace(vm.SpaceID{}, frames, vm.Page2M)
	buf := space.Alloc("A", 4<<20)

	io.Translate(space, space.VPN(buf.Base), func(tlb.Entry) {})
	eng.Run()
	// Second adjacent 2M page: the deepest prefix for a 3-level walk is
	// the PUD cache, skipping to a single leaf access.
	before := mem.reads
	io.Translate(space, space.VPN(buf.Base+(2<<20)), func(tlb.Entry) {})
	eng.Run()
	if mem.reads-before != 1 {
		t.Errorf("PUD-hit 2M walk read %d levels, want 1", mem.reads-before)
	}
	if io.Stats().PWCHitPMD != 0 {
		t.Error("PMD cache used for a 3-level walk")
	}
	if io.Stats().PWCHitPUD != 1 {
		t.Errorf("PUD hits = %d", io.Stats().PWCHitPUD)
	}
}

func TestDeviceL1FilledFromL2(t *testing.T) {
	eng, io, space, _ := setup(t, DefaultConfig())
	buf := space.Alloc("A", 40*4096)
	// Fill past the 32-entry device L1 so early pages fall to L2 only.
	for i := uint64(0); i < 40; i++ {
		io.Translate(space, space.VPN(buf.At(i*4096)), func(tlb.Entry) {})
		eng.Run()
	}
	walks := io.Stats().Walks
	// Page 0 is out of the device L1 but still in the 256-entry L2:
	// re-translating must not walk.
	io.Translate(space, space.VPN(buf.Base), func(tlb.Entry) {})
	eng.Run()
	if io.Stats().Walks != walks {
		t.Error("device L2 TLB hit still walked")
	}
	l1, _ := io.DeviceTLBStats()
	if l1.Fills == 0 {
		t.Error("device L1 never filled")
	}
}

// eventMem is a fixed-latency memory recording every address read in
// order.
type eventMem struct {
	eng     *sim.Engine
	latency sim.Time
	reads   []vm.PA
}

func (m *eventMem) AccessEvent(addr vm.PA, write bool, h sim.Handler, ctx any) {
	m.reads = append(m.reads, addr)
	m.eng.AfterEvent(m.latency, h, ctx)
}

// TestWalkerQueueFIFO saturates the 32 walkers with two bursts of
// distinct misses in one 2MB region. The first 32 walks miss every
// page-walk cache and read their leaf PTEs together; every later walk
// hits the PMD cache and reads only its leaf PTE as it starts, so the
// order of leaf reads is the order walks started.
func TestWalkerQueueFIFO(t *testing.T) {
	const burst = 256
	eng := sim.NewEngine()
	// Sized up front so recording allocates nothing while measured.
	mem := &eventMem{eng: eng, latency: 50, reads: make([]vm.PA, 0, 2*burst*vm.MaxWalkLevels)}
	io := New(eng, DefaultConfig(), mem)
	space := vm.NewAddrSpace(vm.SpaceID{}, vm.NewFrameAllocator(16<<30), vm.Page4K)
	buf := space.Alloc("A", 4<<20)
	base := (space.VPN(buf.Base) + 511) &^ 511 // first 2MB-aligned page
	pt := space.PageTable()

	done := 0
	onDone := func(tlb.Entry) { done++ }
	next := base
	want := make([]vm.PA, 0, 2*burst)
	issue := func() {
		for i := 0; i < burst; i++ {
			w := pt.Walk(next)
			want = append(want, w.Steps[w.Levels-1])
			io.Translate(space, next, onDone)
			next++
		}
		eng.Run()
	}

	// The first call is AllocsPerRun's warm-up; the second, an equal
	// burst of fresh pages after the drain, must reuse the queue's ring.
	allocs := testing.AllocsPerRun(1, issue)
	if done != 2*burst {
		t.Fatalf("done = %d, want %d", done, 2*burst)
	}
	if allocs != 0 {
		t.Errorf("second burst made %.0f allocations, want 0", allocs)
	}
	s := io.Stats()
	if want := burst - DefaultConfig().NumWalkers; s.MaxQueue != want {
		t.Errorf("MaxQueue = %d, want %d (misses - walkers)", s.MaxQueue, want)
	}
	if s.Walks != 2*burst {
		t.Errorf("walks = %d, want %d", s.Walks, 2*burst)
	}
	var leaves []vm.PA
	leaf := make(map[vm.PA]bool, len(want))
	for _, pa := range want {
		leaf[pa] = true
	}
	for _, pa := range mem.reads {
		if leaf[pa] {
			leaves = append(leaves, pa)
		}
	}
	if len(leaves) != len(want) {
		t.Fatalf("%d leaf reads, want %d", len(leaves), len(want))
	}
	for i := range want {
		if leaves[i] != want[i] {
			t.Fatalf("walk %d started out of arrival order: leaf read %#x, want %#x", i, leaves[i], want[i])
		}
	}
}
