package cache

import (
	"math/rand"
	"slices"
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

func (m *fakeMem) AccessEvent(addr vm.PA, write bool, h sim.Handler, ctx any) {
	if write {
		m.writes++
		m.written = append(m.written, addr)
	} else {
		m.reads++
	}
	m.accesses = append(m.accesses, addr)
	m.eng.AfterEvent(m.latency, h, ctx)
}

// access is AccessEvent with a closure completion, for tests.
func access(m Memory, addr vm.PA, write bool, done func()) {
	m.AccessEvent(addr, write, runFunc, done)
}

func runFunc(ctx any) { ctx.(func())() }

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
	access(c, 0, false, func() { missT = eng.Now() })
	eng.Run()
	access(c, 32, false, func() { hitT = eng.Now() }) // same 64B line
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
	access(c, 0, false, func() { done++ })
	access(c, 8, false, func() { done++ })  // same line, in flight
	access(c, 48, false, func() { done++ }) // same line
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
	access(c, 0, true, func() {}) // dirty
	eng.Run()
	access(c, 8*64, false, func() {})
	eng.Run()
	access(c, 16*64, false, func() {}) // evicts line 0 (LRU, dirty)
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
		access(c, a, false, func() {})
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
	access(c, 0, false, func() {})
	eng.Run()
	access(c, 8*64, false, func() {})
	eng.Run()
	// Touch line 0 again: line 8*64 is now LRU.
	access(c, 0, false, func() {})
	eng.Run()
	access(c, 16*64, false, func() {})
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
	access(c, 0, true, func() {})
	access(c, 64, false, func() {})
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
	access(c, 0, false, func() {})
	access(c, 64, false, func() {})
	eng.Run()
	var t1, t2 sim.Time
	access(c, 0, false, func() { t1 = eng.Now() })
	access(c, 64, false, func() { t2 = eng.Now() })
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
	access(l1, 0, false, func() { coldT = eng.Now() })
	eng.Run()
	if coldT < 224 {
		t.Errorf("cold access = %d, want ≥ 4+20+200", coldT)
	}
	// Evict from L1 (512B/64 = 8 lines, 2 ways → 4 sets; 0, 256, 512 share set 0).
	access(l1, 256, false, func() {})
	eng.Run()
	access(l1, 512, false, func() {})
	eng.Run()
	// Line 0 gone from L1 but still in L2: medium latency.
	start := eng.Now()
	var warmT sim.Time
	access(l1, 0, false, func() { warmT = eng.Now() })
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
		access(c, addr, false, func() {})
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
	home := c.set(c.lineAddr(addr))
	var out []vm.PA
	for la := uint64(1); len(out) < n; la++ {
		if la != c.lineAddr(addr) && c.set(la) == home {
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
		access(c, top+8, true, func() {})
		eng.Run()
		access(c, top, false, func() {}) // the dirty line still hits
		eng.Run()
		if c.Stats().Hits != 1 {
			t.Fatalf("flush=%v: hits = %d after the dirty fill, want 1", flush, c.Stats().Hits)
		}
		if flush {
			c.Flush()
		} else {
			for _, a := range sameSet(c, top, 2) { // 2 ways: the second evicts top
				access(c, a, false, func() {})
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
		access(c, 0, first, func() {})
		access(c, 8, !first, func() {}) // same line, merged
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

// refCache is the stamp-scan cache that per-set LRU lists replaced: a
// 16-byte line holds its packed tag and the clock of its last touch,
// a fill takes the first invalid way, else the minimum stamp. It is
// the oracle for TestAccessMatchesStampReference, and it keeps the
// event flow (port, MSHR merging, fills on the parent's completion)
// so that merged misses and raced fills are compared too.
type refCache struct {
	eng        *sim.Engine
	parent     Memory
	lines      []refLine
	numSets    uint64
	ways       int
	lineBits   uint
	hitLatency sim.Time
	port       *sim.Port
	clock      uint64
	mshr       sim.Waiters[uint64, waiter]
	stats      Stats
}

type refLine struct {
	tag   uint64
	stamp uint64
}

type refMiss struct {
	c    *refCache
	la   uint64
	addr vm.PA
}

func newRefCache(eng *sim.Engine, cfg Config, parent Memory) *refCache {
	lineBits := uint(0)
	for v := cfg.LineBytes; v > 1; v >>= 1 {
		lineBits++
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	return &refCache{eng: eng, parent: parent, lines: make([]refLine, lines),
		numSets: uint64(lines / cfg.Ways), ways: cfg.Ways, lineBits: lineBits,
		hitLatency: cfg.HitLatency, port: sim.NewPort(eng, cfg.PortInterval)}
}

func (c *refCache) set(la uint64) []refLine {
	s := (la ^ la>>12 ^ la>>23) % c.numSets
	return c.lines[s*uint64(c.ways) : (s+1)*uint64(c.ways)]
}

func refFindWay(set []refLine, la uint64) int {
	want := lineTag(la, false)
	for i := range set {
		if set[i].tag&^lineDirty == want {
			return i
		}
	}
	return -1
}

func refMissStart(x any) {
	m := x.(*refMiss)
	m.c.parent.AccessEvent(m.addr, false, refMissDone, m)
}

func refMissDone(x any) {
	m := x.(*refMiss)
	c, la := m.c, m.la
	l, _ := c.mshr.Take(la)
	for w, ok := c.mshr.Pop(&l); ok; w, ok = c.mshr.Pop(&l) {
		c.fill(la, w.write)
		w.h(w.ctx)
	}
}

func (c *refCache) AccessEvent(addr vm.PA, write bool, h sim.Handler, ctx any) {
	grant := c.port.Acquire()
	la := uint64(addr) >> c.lineBits
	c.stats.Accesses++
	c.clock++
	set := c.set(la)
	if w := refFindWay(set, la); w >= 0 {
		set[w].stamp = c.clock
		if write {
			set[w].tag |= lineDirty
		}
		c.stats.Hits++
		c.eng.AtEvent(grant+c.hitLatency, h, ctx)
		return
	}
	c.stats.Misses++
	if !c.mshr.Wait(la, waiter{h: h, ctx: ctx, write: write}) {
		c.stats.MergedMiss++
		return
	}
	c.eng.AtEvent(grant+c.hitLatency, refMissStart, &refMiss{c: c, la: la, addr: addr})
}

func (c *refCache) fill(la uint64, dirty bool) {
	set := c.set(la)
	if w := refFindWay(set, la); w >= 0 {
		if dirty {
			set[w].tag |= lineDirty
		}
		return
	}
	c.clock++
	victim := -1
	for i := range set {
		if set[i].tag&lineValid == 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := 1; i < len(set); i++ {
			if set[i].stamp < set[victim].stamp {
				victim = i
			}
		}
		if set[victim].tag&lineDirty != 0 {
			c.writeback(set[victim].tag)
		}
		c.stats.Evictions++
	}
	set[victim] = refLine{tag: lineTag(la, dirty), stamp: c.clock}
}

func (c *refCache) writeback(tag uint64) {
	c.stats.Writebacks++
	c.parent.AccessEvent(vm.PA(tag>>lineTagShift<<c.lineBits), true, nop, nil)
}

func (c *refCache) Contains(addr vm.PA) bool {
	la := uint64(addr) >> c.lineBits
	return refFindWay(c.set(la), la) >= 0
}

func (c *refCache) Flush() {
	for i := range c.lines {
		if c.lines[i].tag&lineDirty != 0 {
			c.writeback(c.lines[i].tag)
		}
		c.lines[i] = refLine{}
	}
}

// Random batches of concurrent reads and writes, with an occasional
// Flush, complete in the same order at the same cycles and leave the
// same stats, writeback addresses and resident lines as the
// stamp-scan reference, on the L1D's 32KB 8-way geometry and the L2's
// 4MB 16-way one. The addresses are lines of four sets, one and a half
// times as many as the sets have ways, above 4GB so the packed tag's
// high bits are live: sets fill, evict dirty and clean victims, and
// refill after a flush.
func TestAccessMatchesStampReference(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "l1d", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, HitLatency: 4, PortInterval: 1},
		{Name: "l2", SizeBytes: 4 << 20, LineBytes: 64, Ways: 16, HitLatency: 20, PortInterval: 1},
	} {
		t.Run(cfg.Name, func(t *testing.T) {
			type done struct {
				id int
				at sim.Time
			}
			gotEng, refEng := sim.NewEngine(), sim.NewEngine()
			gotMem := &fakeMem{eng: gotEng, latency: 50}
			refMem := &fakeMem{eng: refEng, latency: 50}
			got, ref := New(gotEng, cfg, gotMem), newRefCache(refEng, cfg, refMem)

			perSet := map[int]int{}
			var pool []vm.PA
			for la := uint64(1) << 26; len(pool) < 4*cfg.Ways*3/2; la++ {
				s := got.set(la)
				if (len(perSet) < 4 || perSet[s] > 0) && perSet[s] < cfg.Ways*3/2 {
					perSet[s]++
					pool = append(pool, vm.PA(la<<got.lineBits))
				}
			}

			rng := rand.New(rand.NewSource(int64(cfg.Ways)))
			var gotLog, refLog []done
			flushes := 0
			for step, id := 0, 0; step < 4000; step++ {
				if rng.Intn(100) == 0 {
					got.Flush()
					ref.Flush()
					flushes++
				} else {
					for k := 1 + rng.Intn(4); k > 0; k-- {
						addr := pool[rng.Intn(len(pool))] + vm.PA(rng.Intn(64))
						write := rng.Intn(3) == 0
						i := id
						access(got, addr, write, func() { gotLog = append(gotLog, done{i, gotEng.Now()}) })
						access(ref, addr, write, func() { refLog = append(refLog, done{i, refEng.Now()}) })
						id++
					}
				}
				gotEng.Run()
				refEng.Run()
				if got.Stats() != ref.stats {
					t.Fatalf("step %d: Stats %+v; reference %+v", step, got.Stats(), ref.stats)
				}
				if !slices.Equal(gotLog, refLog) {
					t.Fatalf("step %d: completions differ from the reference", step)
				}
				if !slices.Equal(gotMem.written, refMem.written) {
					t.Fatalf("step %d: writebacks %#x; reference %#x", step, gotMem.written, refMem.written)
				}
				for _, a := range pool {
					if got.Contains(a) != ref.Contains(a) {
						t.Fatalf("step %d: Contains(%#x) = %v; reference %v", step, a, got.Contains(a), ref.Contains(a))
					}
				}
			}
			if s := ref.stats; s.Evictions == 0 || s.Writebacks == 0 || s.MergedMiss == 0 || s.Hits == 0 || flushes == 0 {
				t.Fatalf("the sequence missed a case: %+v, %d flushes", s, flushes)
			}
		})
	}
}

// benchMem completes every access after a fixed latency and records
// nothing, so a benchmark's memory stays flat.
type benchMem struct{ eng *sim.Engine }

func (m benchMem) AccessEvent(_ vm.PA, _ bool, h sim.Handler, ctx any) {
	m.eng.AfterEvent(100, h, ctx)
}

// BenchmarkCacheAccess issues accesses through AccessEvent, running the
// engine after every 64, on the L1D's 32KB 8-way geometry and the L2's
// 4MB 16-way one; a third are writes. hit cycles over half the cache's
// lines in address order, which the hashed index spreads evenly over
// the sets, so every access hits. evict cycles over four times the
// cache's lines, so every access misses and fills a full set by
// evicting its LRU line.
func BenchmarkCacheAccess(b *testing.B) {
	for _, cfg := range []Config{
		{Name: "l1d", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, HitLatency: 4, PortInterval: 1},
		{Name: "l2", SizeBytes: 4 << 20, LineBytes: 64, Ways: 16, HitLatency: 20, PortInterval: 1},
	} {
		lines := cfg.SizeBytes / cfg.LineBytes
		for _, mode := range []struct {
			name string
			span int
		}{{"hit", lines / 2}, {"evict", 4 * lines}} {
			b.Run(cfg.Name+"/"+mode.name, func(b *testing.B) {
				eng := sim.NewEngine()
				c := New(eng, cfg, benchMem{eng})
				access := func(i int) {
					c.AccessEvent(vm.PA(i%mode.span*cfg.LineBytes), i%3 == 0, nop, nil)
					if i%64 == 63 {
						eng.Run()
					}
				}
				for i := 0; i < mode.span; i++ {
					access(i)
				}
				eng.Run()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					access(i)
				}
				eng.Run()
				b.StopTimer()
				// Only the warm-up's compulsory misses, or no hits at all.
				if s := c.Stats(); mode.name == "hit" && s.Misses != uint64(mode.span) || mode.name == "evict" && s.Hits != 0 {
					b.Fatalf("%s: %+v", mode.name, s)
				}
			})
		}
	}
}
