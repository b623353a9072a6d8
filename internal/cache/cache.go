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

// line is one 16-byte way. tag packs lineAddr<<lineTagShift with the
// dirty and valid bits, so a way probe compares one word (a line
// address needs at most 62 bits, far above any simulated memory);
// stamp is the LRU clock of the line's last touch.
type line struct {
	tag   uint64
	stamp uint64
}

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
	// lines holds all sets contiguously: set s is lines[s*ways:(s+1)*ways].
	lines      []line
	numSets    uint64
	ways       int
	lineBits   uint
	hitLatency sim.Time
	port       *sim.Port
	clock      uint64
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
		lines:      make([]line, lines),
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
func (c *Cache) set(lineAddr uint64) []line {
	h := lineAddr ^ lineAddr>>12 ^ lineAddr>>23
	s := h % c.numSets
	return c.lines[s*uint64(c.ways) : (s+1)*uint64(c.ways)]
}

// lookup returns the way index of lineAddr in its set, or -1.
func (c *Cache) lookup(lineAddr uint64) int {
	return findWay(c.set(lineAddr), lineAddr)
}

// findWay scans one set for lineAddr, returning its way index or -1.
func findWay(set []line, lineAddr uint64) int {
	want := lineTag(lineAddr, false)
	for i := range set {
		if set[i].tag&^lineDirty == want {
			return i
		}
	}
	return -1
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
	c.clock++

	set := c.set(la)
	if w := findWay(set, la); w >= 0 {
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
	m := c.missPool.Get()
	m.c = c
	m.la = la
	m.addr = addr
	c.eng.AtEvent(grant+c.hitLatency, missStart, m)
}

// fill installs lineAddr, evicting LRU and writing back dirty victims.
func (c *Cache) fill(lineAddr uint64, dirty bool) {
	set := c.set(lineAddr)
	if w := findWay(set, lineAddr); w >= 0 {
		// Raced with another fill of the same line.
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
	set[victim] = line{tag: lineTag(lineAddr, dirty), stamp: c.clock}
}

// writeback sends a dirty line's data to the parent, fire-and-forget.
func (c *Cache) writeback(tag uint64) {
	c.stats.Writebacks++
	addr := vm.PA(tag >> lineTagShift << c.lineBits)
	c.parent.AccessEvent(addr, true, nop, nil)
}

// Contains reports whether the line holding addr is resident (no LRU or
// counter side effects).
func (c *Cache) Contains(addr vm.PA) bool { return c.lookup(c.lineAddr(addr)) >= 0 }

// Flush invalidates the whole cache, writing back dirty lines.
func (c *Cache) Flush() {
	for i := range c.lines {
		if c.lines[i].tag&lineDirty != 0 {
			c.writeback(c.lines[i].tag)
		}
		c.lines[i] = line{}
	}
}

// LineBytes returns the cache's line size.
func (c *Cache) LineBytes() int { return 1 << c.lineBits }

// Inflight returns the number of outstanding miss groups (diagnostics).
func (c *Cache) Inflight() int { return c.mshr.Len() }
