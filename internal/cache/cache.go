// Package cache implements the GPU's data-cache hierarchy (Table 1:
// 32KB 8-way L1 per CU, 4MB 16-way shared L2) as generic write-back,
// write-allocate set-associative caches with LRU replacement, a
// pipelined port, MSHR-style miss merging, and an asynchronous backing
// interface so that misses generate real traffic in the next level and,
// ultimately, the DRAM model.
package cache

import (
	"fmt"

	"gpureach/internal/sim"
	"gpureach/internal/vm"
)

// Memory is anything that can service a physical-address access: h(ctx)
// runs when the data is available (or, for writes, accepted). The
// (Handler, ctx) completion keeps an access allocation-free; Cache and
// dram.DRAM implement it.
type Memory interface {
	AccessEvent(addr vm.PA, write bool, h sim.Handler, ctx any)
}

// Stats counts cache events.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	MergedMiss uint64
	Writebacks uint64
	Evictions  uint64
}

// HitRate returns hits/accesses, or 0 when idle.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// A way's tag packs lineAddr<<lineTagShift with the dirty and valid
// bits, so a way probe compares one word (a line address needs at most
// 62 bits, far above any simulated memory). An empty way's tag is 0.
const (
	lineValid    = 1
	lineDirty    = 2
	lineTagShift = 2
)

// lineTag is the packed tag of a valid line holding lineAddr.
func lineTag(lineAddr uint64, dirty bool) uint64 {
	t := lineAddr<<lineTagShift | lineValid
	if dirty {
		t |= lineDirty
	}
	return t
}

// waiter is one request merged onto an in-flight miss. Each waiter
// keeps its own write flag: the line is filled (or re-dirtied) once per
// requester.
type waiter struct {
	h     sim.Handler
	ctx   any
	write bool
}

// miss is the pooled event context of one outstanding miss: it carries
// the line through the tag probe and the parent access. The merged
// requesters wait in the cache's mshr table, keyed by line.
type miss struct {
	c    *Cache
	la   uint64
	addr vm.PA
}

// Cache is one level of the data hierarchy.
type Cache struct {
	name   string
	eng    *sim.Engine
	parent Memory
	// tags holds all sets contiguously: set s is tags[s*ways:(s+1)*ways].
	// Only Flush invalidates lines, and it empties every set, so a set's
	// valid ways are always its first lru.Len(s).
	tags       []uint64
	lru        sim.LRU
	numSets    uint64
	ways       int
	lineBits   uint
	hitLatency sim.Time
	port       *sim.Port
	mshr       sim.Waiters[uint64, waiter]
	missPool   sim.Pool[miss]
	stats      Stats
}

// Config describes a cache level.
type Config struct {
	Name string
	// SizeBytes / LineBytes / Ways define the geometry.
	SizeBytes int
	LineBytes int
	Ways      int
	// HitLatency is the access latency in cycles for a tag+data hit.
	HitLatency sim.Time
	// PortInterval is the initiation interval of the single access port.
	PortInterval sim.Time
}

// New builds a cache on engine eng backed by parent.
func New(eng *sim.Engine, cfg Config, parent Memory) *Cache {
	if cfg.SizeBytes <= 0 || cfg.LineBytes <= 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache %q: bad geometry %+v", cfg.Name, cfg))
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if lines%cfg.Ways != 0 {
		panic(fmt.Sprintf("cache %q: %d lines not divisible by %d ways", cfg.Name, lines, cfg.Ways))
	}
	lineBits := uint(0)
	for v := cfg.LineBytes; v > 1; v >>= 1 {
		lineBits++
	}
	if 1<<lineBits != cfg.LineBytes {
		panic(fmt.Sprintf("cache %q: line size %d not a power of two", cfg.Name, cfg.LineBytes))
	}
	numSets := lines / cfg.Ways
	return &Cache{
		name:       cfg.Name,
		eng:        eng,
		parent:     parent,
		ways:       cfg.Ways,
		lineBits:   lineBits,
		hitLatency: cfg.HitLatency,
		port:       sim.NewPort(eng, cfg.PortInterval),
		tags:       make([]uint64, lines),
		lru:        sim.NewLRU(numSets, cfg.Ways),
		numSets:    uint64(numSets),
	}
}

// Name returns the cache's diagnostic name.
func (c *Cache) Name() string { return c.name }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Port exposes the access port (for utilization reporting).
func (c *Cache) Port() *sim.Port { return c.port }

func (c *Cache) lineAddr(addr vm.PA) uint64 { return uint64(addr) >> c.lineBits }

// set selects a line's set with an XOR-folded index, as GPU L2 caches
// do: power-of-two strides (a matrix whose row is exactly one page,
// page-table node arrays) otherwise resonate onto a handful of sets and
// the model falls into interleaving-sensitive conflict-thrash regimes
// that no real memory system exhibits.
func (c *Cache) set(lineAddr uint64) int {
	h := lineAddr ^ lineAddr>>12 ^ lineAddr>>23
	return int(h % c.numSets)
}

// find returns lineAddr's set, the set's tags and the line's way in
// it, or way -1. It reads the set's tags only: 64 bytes of an 8-way
// set, 128 of a 16-way one.
func (c *Cache) find(lineAddr uint64) (s int, tags []uint64, way int) {
	s = c.set(lineAddr)
	tags = c.tags[s*c.ways : (s+1)*c.ways]
	want := lineTag(lineAddr, false)
	for i, g := range tags {
		if g&^lineDirty == want {
			return s, tags, i
		}
	}
	return s, tags, -1
}

// nop discards a completion (fire-and-forget writebacks).
func nop(any) {}

// missStart issues the in-flight miss's parent access once the tag
// probe completes.
func missStart(x any) {
	m := x.(*miss)
	m.c.parent.AccessEvent(m.addr, false, missDone, m)
}

// missDone drains an MSHR entry: fill once per requester (each with its
// own write intent), then complete them in merge order.
func missDone(x any) {
	m := x.(*miss)
	c, la := m.c, m.la
	m.c = nil
	c.missPool.Put(m)
	l, _ := c.mshr.Take(la)
	for w, ok := c.mshr.Pop(&l); ok; w, ok = c.mshr.Pop(&l) {
		c.fill(la, w.write)
		w.h(w.ctx)
	}
}

// AccessEvent requests the line containing addr; h(ctx) runs when the
// access completes (after hit latency on a hit; after the miss resolves
// through the parent otherwise). Writes mark the line dirty; dirty
// victims are written back to the parent asynchronously.
func (c *Cache) AccessEvent(addr vm.PA, write bool, h sim.Handler, ctx any) {
	grant := c.port.Acquire()
	la := c.lineAddr(addr)
	c.stats.Accesses++

	if s, tags, w := c.find(la); w >= 0 {
		c.lru.Touch(s, w)
		if write {
			tags[w] |= lineDirty
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
	m := c.missPool.Get()
	m.c = c
	m.la = la
	m.addr = addr
	c.eng.AtEvent(grant+c.hitLatency, missStart, m)
}

// fill installs lineAddr, evicting LRU and writing back dirty victims.
// A set fills in way order, so its first free way is its LRU length.
func (c *Cache) fill(lineAddr uint64, dirty bool) {
	s, tags, w := c.find(lineAddr)
	if w >= 0 {
		// Raced with another fill of the same line.
		if dirty {
			tags[w] |= lineDirty
		}
		return
	}
	if w = c.lru.Len(s); w < c.ways {
		c.lru.Add(s, w)
	} else {
		w = c.lru.Oldest(s)
		if tags[w]&lineDirty != 0 {
			c.writeback(tags[w])
		}
		c.stats.Evictions++
		c.lru.Touch(s, w)
	}
	tags[w] = lineTag(lineAddr, dirty)
}

// writeback sends a dirty line's data to the parent, fire-and-forget.
func (c *Cache) writeback(tag uint64) {
	c.stats.Writebacks++
	addr := vm.PA(tag >> lineTagShift << c.lineBits)
	c.parent.AccessEvent(addr, true, nop, nil)
}

// Contains reports whether the line holding addr is resident (no LRU or
// counter side effects).
func (c *Cache) Contains(addr vm.PA) bool {
	_, _, w := c.find(c.lineAddr(addr))
	return w >= 0
}

// Flush invalidates the whole cache, writing back dirty lines.
func (c *Cache) Flush() {
	for _, g := range c.tags {
		if g&lineDirty != 0 {
			c.writeback(g)
		}
	}
	clear(c.tags)
	c.lru.Reset()
}

// LineBytes returns the cache's line size.
func (c *Cache) LineBytes() int { return 1 << c.lineBits }

// Inflight returns the number of outstanding miss groups (diagnostics).
func (c *Cache) Inflight() int { return c.mshr.Len() }
