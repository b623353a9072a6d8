// Package tlb implements the set-associative translation lookaside
// buffers of the baseline GPU (Table 1: per-CU 32-entry fully-
// associative L1 TLBs, a shared 512-entry 16-way L2 TLB, and the
// IOMMU's device TLBs) plus the per-page request coalescer that merges
// concurrent misses to the same page (§2.1).
package tlb

import (
	"fmt"

	"gpureach/internal/sim"
	"gpureach/internal/vm"
)

// Entry is one cached translation. It carries the address-space tags the
// paper stores alongside each translation (Figure 7a): VPN tag, VM-ID
// and VRF-ID.
type Entry struct {
	Space vm.SpaceID
	VPN   vm.VPN
	PFN   vm.PFN
}

// Key returns the lookup key combining VPN and address-space tags.
func (e Entry) Key() Key { return MakeKey(e.Space, e.VPN) }

// Key identifies a translation across address spaces.
type Key uint64

// MakeKey builds a Key from space tags and a VPN.
func MakeKey(space vm.SpaceID, vpn vm.VPN) Key {
	return Key(uint64(vpn)<<4 | uint64(space.Pack()))
}

// VPN extracts the page number back out of a key.
func (k Key) VPN() vm.VPN { return vm.VPN(k >> 4) }

// Space extracts the address-space tags back out of a key. Exact
// because VM-ID and VRF-ID are 2-bit architectural fields.
func (k Key) Space() vm.SpaceID { return vm.UnpackSpaceID(uint8(k & 15)) }

// Entry reconstructs the full cached translation from a key and the
// stored frame number — the inverse of Entry.Key plus payload.
func (k Key) Entry(pfn vm.PFN) Entry {
	return Entry{Space: k.Space(), VPN: k.VPN(), PFN: pfn}
}

// Stats counts TLB events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Fills      uint64
	Shootdowns uint64
}

// HitRate returns hits/(hits+misses), or 0 when idle.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// TLB is a set-associative translation cache with true-LRU replacement.
// sets == 1 gives a fully-associative structure.
//
// Ways are stored as parallel per-field arrays (set s occupies index
// range [s*ways, (s+1)*ways) in each), not an array of way structs: a
// fully-associative lookup is a linear probe over every way's tag, and
// scanning a dense tag array touches an eighth of the memory the
// struct-per-way layout did. A way's tag packs its key with a valid
// bit (key<<1 | 1; a key needs at most 40 bits), so an empty way's tag
// is 0 and the probe compares one word per way. Only the frame number
// is stored per way: the rest of an Entry is its key (Key.Entry
// reconstructs it exactly), so fills and evictions move 8 bytes of
// payload instead of 24. Recency lives in a sim.LRU, whose per-set
// length and oldest way replace a free-way scan of a full set and a
// scan for the least recently used way.
type TLB struct {
	name    string
	tags    []uint64
	pfns    []vm.PFN
	lru     sim.LRU
	ways    int
	numSets uint64
	stats   Stats
}

// tagOf is the tag of a valid way holding key.
func tagOf(key Key) uint64 { return uint64(key)<<1 | 1 }

// keyOf is the key a valid way's tag holds.
func keyOf(tag uint64) Key { return Key(tag >> 1) }

// New creates a TLB with the given geometry. entries must be divisible
// by ways; ways == entries gives full associativity.
func New(name string, entries, ways int) *TLB {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic(fmt.Sprintf("tlb: bad geometry entries=%d ways=%d", entries, ways))
	}
	numSets := entries / ways
	return &TLB{
		name:    name,
		ways:    ways,
		numSets: uint64(numSets),
		tags:    make([]uint64, entries),
		pfns:    make([]vm.PFN, entries),
		lru:     sim.NewLRU(numSets, ways),
	}
}

// Name returns the TLB's diagnostic name.
func (t *TLB) Name() string { return t.name }

// Entries returns total capacity.
func (t *TLB) Entries() int { return len(t.tags) }

// Stats returns a copy of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// set returns key's set index.
func (t *TLB) set(k Key) int { return int(uint64(k.VPN()) % t.numSets) }

// find returns key's set and its way within the set, or way -1.
func (t *TLB) find(key Key) (set, way int) {
	set = t.set(key)
	b := set * t.ways
	want := tagOf(key)
	for i, g := range t.tags[b : b+t.ways] {
		if g == want {
			return set, i
		}
	}
	return set, -1
}

// Lookup searches for key; on a hit the entry becomes MRU.
func (t *TLB) Lookup(key Key) (Entry, bool) {
	set, w := t.find(key)
	if w < 0 {
		t.stats.Misses++
		return Entry{}, false
	}
	t.lru.Touch(set, w)
	t.stats.Hits++
	return key.Entry(t.pfns[set*t.ways+w]), true
}

// Probe is Lookup without touching LRU state or counters — used by
// sharing analyses (Fig 14a) and tests.
func (t *TLB) Probe(key Key) (Entry, bool) {
	set, w := t.find(key)
	if w < 0 {
		return Entry{}, false
	}
	return key.Entry(t.pfns[set*t.ways+w]), true
}

// Insert fills e, replacing the LRU way of its set if full. It returns
// the evicted victim entry, if any. Inserting a key that is already
// present refreshes the existing way instead of duplicating it.
//
// Priority is refresh > free fill > eviction. A free fill takes the
// lowest-index free way and an eviction the least recently used one,
// so way placement (and ForEach order) depends only on the operation
// sequence. The free-way scan runs only while the set is not full; a
// full set, the steady state of a fully-associative L1 TLB, evicts
// its LRU list's tail without a scan.
func (t *TLB) Insert(e Entry) (victim Entry, evicted bool) {
	key := e.Key()
	set, w := t.find(key)
	b := set * t.ways
	if w >= 0 {
		// Refresh on re-insert.
		t.pfns[b+w] = e.PFN
		t.lru.Touch(set, w)
		return Entry{}, false
	}
	t.stats.Fills++
	tags := t.tags[b : b+t.ways]
	if t.lru.Len(set) < t.ways {
		w = 0
		for tags[w] != 0 {
			w++
		}
		t.lru.Add(set, w)
	} else {
		w = t.lru.Oldest(set)
		victim, evicted = keyOf(tags[w]).Entry(t.pfns[b+w]), true
		t.stats.Evictions++
		t.lru.Touch(set, w)
	}
	tags[w] = tagOf(key)
	t.pfns[b+w] = e.PFN
	return victim, evicted
}

// Invalidate removes key if present (TLB shootdown, §7.1) and reports
// whether an entry was removed.
func (t *TLB) Invalidate(key Key) bool {
	set, w := t.find(key)
	if w < 0 {
		return false
	}
	t.tags[set*t.ways+w] = 0
	t.lru.Remove(set, w)
	t.stats.Shootdowns++
	return true
}

// Flush invalidates everything.
func (t *TLB) Flush() {
	clear(t.tags)
	t.lru.Reset()
}

// Occupied returns the number of valid entries.
func (t *TLB) Occupied() int {
	n := 0
	for s := 0; s < int(t.numSets); s++ {
		n += t.lru.Len(s)
	}
	return n
}

// ForEach calls fn for every valid entry (iteration order unspecified).
func (t *TLB) ForEach(fn func(Entry)) {
	for i, g := range t.tags {
		if g != 0 {
			fn(keyOf(g).Entry(t.pfns[i]))
		}
	}
}
