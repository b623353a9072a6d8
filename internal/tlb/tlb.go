// Package tlb implements the set-associative translation lookaside
// buffers of the baseline GPU (Table 1: per-CU 32-entry fully-
// associative L1 TLBs, a shared 512-entry 16-way L2 TLB, and the
// IOMMU's device TLBs) plus the per-page request coalescer that merges
// concurrent misses to the same page (§2.1).
package tlb

import (
	"fmt"

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
// fully-associative lookup is a linear probe over every way's key, and
// scanning a dense key array touches an eighth of the memory the
// struct-per-way layout did. The stamp array doubles as the valid
// marker — stamp 0 means the way is empty (the LRU clock starts at 1),
// so the probe and the LRU scan each read exactly one array. Only the
// frame number is stored per way: the rest of an Entry is its key
// (Key.Entry reconstructs it exactly), so fills and evictions move 8
// bytes of payload instead of 24. A per-set count of valid ways lets
// Insert skip the free-way scan once a set is full.
type TLB struct {
	name    string
	keys    []Key
	pfns    []vm.PFN
	stamps  []uint64
	valid   []int32 // valid ways per set
	ways    int
	numSets uint64
	clock   uint64
	stats   Stats
}

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
		keys:    make([]Key, entries),
		pfns:    make([]vm.PFN, entries),
		stamps:  make([]uint64, entries),
		valid:   make([]int32, numSets),
	}
}

// Name returns the TLB's diagnostic name.
func (t *TLB) Name() string { return t.name }

// Entries returns total capacity.
func (t *TLB) Entries() int { return len(t.keys) }

// Stats returns a copy of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// set returns key's set index.
func (t *TLB) set(k Key) int { return int(uint64(k.VPN()) % t.numSets) }

// base returns the first way index of key's set.
func (t *TLB) base(k Key) int { return t.set(k) * t.ways }

// Lookup searches for key; on a hit the entry becomes MRU.
func (t *TLB) Lookup(key Key) (Entry, bool) {
	b := t.base(key)
	for i := b; i < b+t.ways; i++ {
		if t.keys[i] == key && t.stamps[i] != 0 {
			t.clock++
			t.stamps[i] = t.clock
			t.stats.Hits++
			return key.Entry(t.pfns[i]), true
		}
	}
	t.stats.Misses++
	return Entry{}, false
}

// Probe is Lookup without touching LRU state or counters — used by
// sharing analyses (Fig 14a) and tests.
func (t *TLB) Probe(key Key) (Entry, bool) {
	b := t.base(key)
	for i := b; i < b+t.ways; i++ {
		if t.keys[i] == key && t.stamps[i] != 0 {
			return key.Entry(t.pfns[i]), true
		}
	}
	return Entry{}, false
}

// Insert fills e, replacing the LRU way of its set if full. It returns
// the evicted victim entry, if any. Inserting a key that is already
// present refreshes the existing way instead of duplicating it.
//
// Priority is refresh > free fill > eviction. A free fill takes the
// lowest-index free way and an eviction the minimum stamp, so way
// placement (and ForEach order) depends only on the operation
// sequence. The set's valid count skips the free-way scan once the set
// is full, the steady state of a fully-associative L1 TLB.
func (t *TLB) Insert(e Entry) (victim Entry, evicted bool) {
	key := e.Key()
	set := t.set(key)
	b := set * t.ways
	keys, stamps := t.keys[b:b+t.ways], t.stamps[b:b+t.ways]
	t.clock++
	for i, k := range keys {
		if k == key && stamps[i] != 0 {
			// Refresh on re-insert.
			t.pfns[b+i] = e.PFN
			stamps[i] = t.clock
			return Entry{}, false
		}
	}
	t.stats.Fills++
	w := 0
	if t.valid[set] < int32(t.ways) {
		for stamps[w] != 0 {
			w++
		}
		t.valid[set]++
	} else {
		for i := 1; i < len(stamps); i++ {
			if stamps[i] < stamps[w] {
				w = i
			}
		}
		victim, evicted = keys[w].Entry(t.pfns[b+w]), true
		t.stats.Evictions++
	}
	keys[w] = key
	t.pfns[b+w] = e.PFN
	stamps[w] = t.clock
	return victim, evicted
}

// Invalidate removes key if present (TLB shootdown, §7.1) and reports
// whether an entry was removed.
func (t *TLB) Invalidate(key Key) bool {
	set := t.set(key)
	b := set * t.ways
	for i := b; i < b+t.ways; i++ {
		if t.keys[i] == key && t.stamps[i] != 0 {
			t.stamps[i] = 0
			t.valid[set]--
			t.stats.Shootdowns++
			return true
		}
	}
	return false
}

// Flush invalidates everything.
func (t *TLB) Flush() {
	clear(t.stamps)
	clear(t.valid)
}

// Occupied returns the number of valid entries.
func (t *TLB) Occupied() int {
	n := 0
	for _, v := range t.valid {
		n += int(v)
	}
	return n
}

// ForEach calls fn for every valid entry (iteration order unspecified).
func (t *TLB) ForEach(fn func(Entry)) {
	for i := range t.stamps {
		if t.stamps[i] != 0 {
			fn(t.keys[i].Entry(t.pfns[i]))
		}
	}
}
