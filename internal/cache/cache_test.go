package cache

import (
	"testing"

	"gpureach/internal/sim"
	"gpureach/internal/vm"
)

// fakeMem is a fixed-latency backing store that records traffic.
type fakeMem struct {
	eng      *sim.Engine
	latency  sim.Time
	reads    int
	writes   int
	accesses []vm.PA
	written  []vm.PA
}

func (m *fakeMem) Access(addr vm.PA, write bool, done func()) {
	if write {
		m.writes++
		m.written = append(m.written, addr)
	} else {
		m.reads++
	}
	m.accesses = append(m.accesses, addr)
	m.eng.After(m.latency, done)
}

func newDUT(t *testing.T) (*sim.Engine, *Cache, *fakeMem) {
	t.Helper()
	eng := sim.NewEngine()
	mem := &fakeMem{eng: eng, latency: 100}
	c := New(eng, Config{
		Name: "l1", SizeBytes: 1024, LineBytes: 64, Ways: 2,
		HitLatency: 4, PortInterval: 1,
	}, mem)
	return eng, c, mem
}

func TestMissThenHitLatency(t *testing.T) {
	eng, c, mem := newDUT(t)
	var missT, hitT sim.Time
	c.Access(0, false, func() { missT = eng.Now() })
	eng.Run()
	c.Access(32, false, func() { hitT = eng.Now() }) // same 64B line
	start := missT
	eng.Run()
	if missT < 104 {
		t.Errorf("miss completed at %d, want ≥ 104 (hitLat+parent)", missT)
	}
	if hitT-start != 4 {
		t.Errorf("hit latency = %d, want 4", hitT-start)
	}
	if mem.reads != 1 {
		t.Errorf("parent reads = %d, want 1", mem.reads)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestMSHRMergesConcurrentMisses(t *testing.T) {
	eng, c, mem := newDUT(t)
	done := 0
	c.Access(0, false, func() { done++ })
	c.Access(8, false, func() { done++ })  // same line, in flight
	c.Access(48, false, func() { done++ }) // same line
	eng.Run()
	if done != 3 {
		t.Fatalf("done = %d", done)
	}
	if mem.reads != 1 {
		t.Errorf("parent reads = %d, want 1 (merged)", mem.reads)
	}
	if c.Stats().MergedMiss != 2 {
		t.Errorf("MergedMiss = %d, want 2", c.Stats().MergedMiss)
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	eng, c, mem := newDUT(t)
	// 1024B/64B = 16 lines, 2 ways → 8 sets. Lines 0, 8, 16 (×64B) share set 0.
	c.Access(0, true, func() {}) // dirty
	eng.Run()
	c.Access(8*64, false, func() {})
	eng.Run()
	c.Access(16*64, false, func() {}) // evicts line 0 (LRU, dirty)
	eng.Run()
	if mem.writes != 1 {
		t.Errorf("parent writes = %d, want 1 writeback", mem.writes)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("Writebacks = %d", c.Stats().Writebacks)
	}
	if c.Contains(0) {
		t.Error("evicted line still resident")
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	eng, c, mem := newDUT(t)
	// Line 0 is read twice (a miss, then a hit) before 8*64 and 16*64
	// evict it; Flush then drops those two, also only read.
	for _, a := range []vm.PA{0, 0, 8 * 64, 16 * 64} {
		c.Access(a, false, func() {})
		eng.Run()
	}
	if c.Stats().Hits != 1 || c.Stats().Evictions != 1 {
		t.Fatalf("stats = %+v, want 1 hit and 1 eviction", c.Stats())
	}
	c.Flush()
	eng.Run()
	if mem.writes != 0 {
		t.Errorf("read-only lines wrote back %d times", mem.writes)
	}
}

func TestLRUWithinSet(t *testing.T) {
	eng, c, _ := newDUT(t)
	c.Access(0, false, func() {})
	eng.Run()
	c.Access(8*64, false, func() {})
	eng.Run()
	// Touch line 0 again: line 8*64 is now LRU.
	c.Access(0, false, func() {})
	eng.Run()
	c.Access(16*64, false, func() {})
	eng.Run()
	if !c.Contains(0) {
		t.Error("MRU line evicted")
	}
	if c.Contains(8 * 64) {
		t.Error("LRU line survived")
	}
}

func TestFlushWritesBackDirty(t *testing.T) {
	eng, c, mem := newDUT(t)
	c.Access(0, true, func() {})
	c.Access(64, false, func() {})
	eng.Run()
	c.Flush()
	eng.Run()
	if mem.writes != 1 {
		t.Errorf("flush wrote back %d lines, want 1", mem.writes)
	}
	if c.Contains(0) || c.Contains(64) {
		t.Error("lines resident after flush")
	}
}

func TestPortSerializesAccesses(t *testing.T) {
	eng, c, _ := newDUT(t)
	// Warm two lines.
	c.Access(0, false, func() {})
	c.Access(64, false, func() {})
	eng.Run()
	var t1, t2 sim.Time
	c.Access(0, false, func() { t1 = eng.Now() })
	c.Access(64, false, func() { t2 = eng.Now() })
	eng.Run()
	if t2 != t1+1 {
		t.Errorf("port interval not respected: %d then %d", t1, t2)
	}
}

func TestHierarchyComposition(t *testing.T) {
	eng := sim.NewEngine()
	mem := &fakeMem{eng: eng, latency: 200}
	l2 := New(eng, Config{Name: "l2", SizeBytes: 4096, LineBytes: 64, Ways: 4, HitLatency: 20, PortInterval: 1}, mem)
	l1 := New(eng, Config{Name: "l1", SizeBytes: 512, LineBytes: 64, Ways: 2, HitLatency: 4, PortInterval: 1}, l2)

	var coldT sim.Time
	l1.Access(0, false, func() { coldT = eng.Now() })
	eng.Run()
	if coldT < 224 {
		t.Errorf("cold access = %d, want ≥ 4+20+200", coldT)
	}
	// Evict from L1 (512B/64 = 8 lines, 2 ways → 4 sets; 0, 256, 512 share set 0).
	l1.Access(256, false, func() {})
	eng.Run()
	l1.Access(512, false, func() {})
	eng.Run()
	// Line 0 gone from L1 but still in L2: medium latency.
	start := eng.Now()
	var warmT sim.Time
	l1.Access(0, false, func() { warmT = eng.Now() })
	eng.Run()
	lat := warmT - start
	if lat < 24 || lat >= 200 {
		t.Errorf("L2-hit latency = %d, want [24,200)", lat)
	}
	if mem.reads != 3 {
		t.Errorf("memory reads = %d, want 3", mem.reads)
	}
}

func TestBadConfigPanics(t *testing.T) {
	eng := sim.NewEngine()
	cases := []Config{
		{Name: "a", SizeBytes: 0, LineBytes: 64, Ways: 2},
		{Name: "b", SizeBytes: 1024, LineBytes: 60, Ways: 2},
		{Name: "c", SizeBytes: 192, LineBytes: 64, Ways: 2},
	}
	for _, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(eng, cfg, &fakeMem{eng: eng})
		}()
	}
}

func TestLineBytes(t *testing.T) {
	_, c, _ := newDUT(t)
	if c.LineBytes() != 64 {
		t.Errorf("LineBytes = %d", c.LineBytes())
	}
}

// TestHashedSetsRetainLines: regardless of the XOR-folded set mapping,
// an accessed line is resident afterwards and retrievable — placement
// never loses data.
func TestHashedSetsRetainLines(t *testing.T) {
	eng := sim.NewEngine()
	mem := &fakeMem{eng: eng, latency: 10}
	c := New(eng, Config{Name: "h", SizeBytes: 64 << 10, LineBytes: 64, Ways: 8, HitLatency: 1, PortInterval: 1}, mem)
	// Strided addresses that would all collide under modulo indexing.
	for i := 0; i < 64; i++ {
		addr := vm.PA(i * 4096 * 8)
		c.Access(addr, false, func() {})
		eng.Run()
		if !c.Contains(addr) {
			t.Fatalf("line %d lost immediately after fill", i)
		}
	}
	// 64 lines in a 1024-line cache: with hashed placement the page
	// stride must not collapse onto one set (8 ways) and evict.
	resident := 0
	for i := 0; i < 64; i++ {
		if c.Contains(vm.PA(i * 4096 * 8)) {
			resident++
		}
	}
	if resident < 48 {
		t.Errorf("only %d/64 strided lines resident — set hashing ineffective", resident)
	}
}

// sameSet returns n line addresses other than addr's that the cache's
// hashed index maps to addr's set.
func sameSet(c *Cache, addr vm.PA, n int) []vm.PA {
	home := &c.set(c.lineAddr(addr))[0]
	var out []vm.PA
	for la := uint64(1); len(out) < n; la++ {
		if la != c.lineAddr(addr) && &c.set(la)[0] == home {
			out = append(out, vm.PA(la<<c.lineBits))
		}
	}
	return out
}

// TestPackedLineWritebackAddress: a dirty line at the top of an 8GB
// physical space writes back its exact address, whether it leaves by
// eviction or by Flush — the packed tag keeps every line-address bit
// apart from the dirty and valid flags.
func TestPackedLineWritebackAddress(t *testing.T) {
	top := vm.PA(8<<30 - 64)
	for _, flush := range []bool{false, true} {
		eng, c, mem := newDUT(t)
		c.Access(top+8, true, func() {})
		eng.Run()
		c.Access(top, false, func() {}) // the dirty line still hits
		eng.Run()
		if c.Stats().Hits != 1 {
			t.Fatalf("flush=%v: hits = %d after the dirty fill, want 1", flush, c.Stats().Hits)
		}
		if flush {
			c.Flush()
		} else {
			for _, a := range sameSet(c, top, 2) { // 2 ways: the second evicts top
				c.Access(a, false, func() {})
				eng.Run()
			}
		}
		eng.Run()
		if len(mem.written) != 1 || mem.written[0] != top {
			t.Errorf("flush=%v: wrote back %#x, want [%#x]", flush, mem.written, top)
		}
		if c.Contains(top) {
			t.Errorf("flush=%v: line still resident", flush)
		}
	}
}

// TestMergedWriteLeavesLineDirty: a write that merges onto an in-flight
// miss dirties the filled line, in either merge order.
func TestMergedWriteLeavesLineDirty(t *testing.T) {
	for _, first := range []bool{false, true} {
		eng, c, mem := newDUT(t)
		c.Access(0, first, func() {})
		c.Access(8, !first, func() {}) // same line, merged
		eng.Run()
		if c.Stats().MergedMiss != 1 {
			t.Fatalf("MergedMiss = %d, want 1", c.Stats().MergedMiss)
		}
		c.Flush()
		eng.Run()
		if len(mem.written) != 1 || mem.written[0] != 0 {
			t.Errorf("write first=%v: wrote back %#x, want [0x0]", first, mem.written)
		}
	}
}
