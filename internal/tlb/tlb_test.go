package tlb

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gpureach/internal/vm"
)

var spaceA = vm.SpaceID{VMID: 0, VRF: 0}
var spaceB = vm.SpaceID{VMID: 1, VRF: 0}

func entry(space vm.SpaceID, vpn vm.VPN) Entry {
	return Entry{Space: space, VPN: vpn, PFN: vm.PFN(vpn * 7)}
}

func TestKeyRoundTrip(t *testing.T) {
	k := MakeKey(spaceB, 0xABCDE)
	if k.VPN() != 0xABCDE {
		t.Errorf("VPN round trip = %#x", k.VPN())
	}
	if MakeKey(spaceA, 0xABCDE) == k {
		t.Error("different spaces produced identical keys")
	}
}

func TestLookupMissThenHit(t *testing.T) {
	tl := New("l1", 32, 32)
	key := MakeKey(spaceA, 5)
	if _, ok := tl.Lookup(key); ok {
		t.Fatal("hit in empty TLB")
	}
	tl.Insert(entry(spaceA, 5))
	e, ok := tl.Lookup(key)
	if !ok || e.PFN != 35 {
		t.Fatalf("Lookup = %+v, %v", e, ok)
	}
	s := tl.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	tl := New("fa", 4, 4)
	for i := vm.VPN(0); i < 4; i++ {
		tl.Insert(entry(spaceA, i))
	}
	// Touch 0 to make it MRU; 1 becomes LRU.
	tl.Lookup(MakeKey(spaceA, 0))
	victim, evicted := tl.Insert(entry(spaceA, 99))
	if !evicted || victim.VPN != 1 {
		t.Errorf("victim = %+v evicted=%v, want VPN 1", victim, evicted)
	}
	if _, ok := tl.Probe(MakeKey(spaceA, 0)); !ok {
		t.Error("MRU entry was evicted")
	}
}

func TestSetIndexing(t *testing.T) {
	tl := New("l2", 32, 4) // 8 sets
	// VPNs 0 and 8 map to set 0; fill set 0's four ways.
	for _, vpn := range []vm.VPN{0, 8, 16, 24} {
		if _, ev := tl.Insert(entry(spaceA, vpn)); ev {
			t.Fatalf("unexpected eviction inserting %d", vpn)
		}
	}
	// VPN 1 goes to set 1: no eviction.
	if _, ev := tl.Insert(entry(spaceA, 1)); ev {
		t.Error("cross-set insert evicted")
	}
	// VPN 32 also set 0: evicts.
	if _, ev := tl.Insert(entry(spaceA, 32)); !ev {
		t.Error("conflicting insert did not evict")
	}
}

func TestReinsertRefreshes(t *testing.T) {
	tl := New("fa", 2, 2)
	tl.Insert(entry(spaceA, 1))
	tl.Insert(entry(spaceA, 2))
	tl.Insert(entry(spaceA, 1)) // refresh: 2 becomes LRU
	victim, evicted := tl.Insert(entry(spaceA, 3))
	if !evicted || victim.VPN != 2 {
		t.Errorf("victim = %+v, want VPN 2", victim)
	}
	if tl.Occupied() != 2 {
		t.Errorf("Occupied = %d", tl.Occupied())
	}
}

func TestSpaceIsolation(t *testing.T) {
	tl := New("fa", 8, 8)
	tl.Insert(entry(spaceA, 5))
	if _, ok := tl.Lookup(MakeKey(spaceB, 5)); ok {
		t.Error("entry leaked across address spaces")
	}
}

func TestInvalidate(t *testing.T) {
	tl := New("fa", 8, 8)
	tl.Insert(entry(spaceA, 5))
	if !tl.Invalidate(MakeKey(spaceA, 5)) {
		t.Fatal("Invalidate missed present entry")
	}
	if tl.Invalidate(MakeKey(spaceA, 5)) {
		t.Error("double invalidate returned true")
	}
	if _, ok := tl.Probe(MakeKey(spaceA, 5)); ok {
		t.Error("entry present after shootdown")
	}
	if tl.Stats().Shootdowns != 1 {
		t.Errorf("Shootdowns = %d", tl.Stats().Shootdowns)
	}
}

func TestFlush(t *testing.T) {
	tl := New("fa", 8, 8)
	for i := vm.VPN(0); i < 8; i++ {
		tl.Insert(entry(spaceA, i))
	}
	tl.Flush()
	if tl.Occupied() != 0 {
		t.Errorf("Occupied after flush = %d", tl.Occupied())
	}
}

func TestForEach(t *testing.T) {
	tl := New("fa", 8, 8)
	tl.Insert(entry(spaceA, 1))
	tl.Insert(entry(spaceA, 2))
	seen := map[vm.VPN]bool{}
	tl.ForEach(func(e Entry) { seen[e.VPN] = true })
	if !seen[1] || !seen[2] || len(seen) != 2 {
		t.Errorf("ForEach saw %v", seen)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, c := range []struct{ e, w int }{{0, 1}, {8, 0}, {10, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("geometry %+v did not panic", c)
				}
			}()
			New("bad", c.e, c.w)
		}()
	}
}

func TestHitRate(t *testing.T) {
	tl := New("fa", 4, 4)
	tl.Insert(entry(spaceA, 1))
	tl.Lookup(MakeKey(spaceA, 1))
	tl.Lookup(MakeKey(spaceA, 2))
	tl.Lookup(MakeKey(spaceA, 1))
	if hr := tl.Stats().HitRate(); hr < 0.66 || hr > 0.67 {
		t.Errorf("hit rate = %v, want 2/3", hr)
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("idle hit rate should be 0")
	}
}

// Property: after any sequence of inserts, a Lookup hit makes that entry
// survive the next single insert (MRU protection, DESIGN.md §5).
func TestLRUMRUProperty(t *testing.T) {
	f := func(vpns []uint16, probe uint16) bool {
		tl := New("fa", 8, 8)
		for _, v := range vpns {
			tl.Insert(entry(spaceA, vm.VPN(v)))
		}
		tl.Insert(entry(spaceA, vm.VPN(probe)))
		tl.Lookup(MakeKey(spaceA, vm.VPN(probe))) // MRU now
		tl.Insert(entry(spaceA, vm.VPN(probe)+100000))
		_, ok := tl.Probe(MakeKey(spaceA, vm.VPN(probe)))
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: occupancy never exceeds capacity and evictions only happen
// when the target set is full.
func TestCapacityProperty(t *testing.T) {
	f := func(vpns []uint16) bool {
		tl := New("sa", 16, 4)
		for _, v := range vpns {
			tl.Insert(entry(spaceA, vm.VPN(v)))
			if tl.Occupied() > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCoalescerMerges(t *testing.T) {
	c := NewCoalescer()
	key := MakeKey(spaceA, 9)
	var results []vm.PFN
	first := join(c, key, func(e Entry) { results = append(results, e.PFN) })
	if !first {
		t.Fatal("first join not first")
	}
	if join(c, key, func(e Entry) { results = append(results, e.PFN) }) {
		t.Fatal("second join claimed first")
	}
	if c.Inflight() != 1 {
		t.Errorf("Inflight = %d", c.Inflight())
	}
	c.Complete(key, entry(spaceA, 9))
	if len(results) != 2 || results[0] != 63 || results[1] != 63 {
		t.Errorf("results = %v", results)
	}
	if c.Inflight() != 0 {
		t.Errorf("Inflight after complete = %d", c.Inflight())
	}
	if c.Merged != 1 || c.Started != 1 {
		t.Errorf("Merged=%d Started=%d", c.Merged, c.Started)
	}
}

func TestCoalescerIndependentKeys(t *testing.T) {
	c := NewCoalescer()
	k1, k2 := MakeKey(spaceA, 1), MakeKey(spaceA, 2)
	done1, done2 := false, false
	if !join(c, k1, func(Entry) { done1 = true }) {
		t.Fatal("k1 not first")
	}
	if !join(c, k2, func(Entry) { done2 = true }) {
		t.Fatal("k2 not first")
	}
	c.Complete(k1, entry(spaceA, 1))
	if !done1 || done2 {
		t.Errorf("done1=%v done2=%v", done1, done2)
	}
}

func TestCoalescerCompleteEmptyIsNoop(t *testing.T) {
	c := NewCoalescer()
	c.Complete(MakeKey(spaceA, 1), Entry{}) // must not panic
}

func TestCoalescerRejoinAfterComplete(t *testing.T) {
	c := NewCoalescer()
	key := MakeKey(spaceA, 1)
	join(c, key, func(Entry) {})
	c.Complete(key, Entry{})
	if !join(c, key, func(Entry) {}) {
		t.Error("join after complete should be first again")
	}
}

func TestProbeDoesNotTouchLRU(t *testing.T) {
	tl := New("fa", 2, 2)
	tl.Insert(entry(spaceA, 1))
	tl.Insert(entry(spaceA, 2)) // 1 is LRU
	tl.Probe(MakeKey(spaceA, 1))
	victim, evicted := tl.Insert(entry(spaceA, 3))
	if !evicted || victim.VPN != 1 {
		t.Errorf("Probe changed LRU order: victim %+v", victim)
	}
	if tl.Stats().Hits != 0 {
		t.Error("Probe counted as a hit")
	}
}

// join is JoinEvent with a closure completion, for tests.
func join(c *Coalescer, key Key, done func(Entry)) bool {
	return c.JoinEvent(key, runEntryFunc, done)
}

func runEntryFunc(ctx any, e Entry) { ctx.(func(Entry))(e) }

// refTLB is the stamp-model TLB that per-set valid counts and then
// LRU lists replaced: a way's stamp is the clock of its last touch (0
// for an empty way), and Insert is one scan that records the first
// match, the first free way and the minimum-stamp way, then applies
// them as refresh > free fill > eviction. It is the oracle for
// TestInsertMatchesSinglePassReference.
type refTLB struct {
	keys   []Key
	pfns   []vm.PFN
	stamps []uint64
	ways   int
	clock  uint64
	stats  Stats
}

func newRefTLB(entries, ways int) *refTLB {
	return &refTLB{keys: make([]Key, entries), pfns: make([]vm.PFN, entries),
		stamps: make([]uint64, entries), ways: ways}
}

func (r *refTLB) base(k Key) int {
	return int(uint64(k.VPN())%uint64(len(r.keys)/r.ways)) * r.ways
}

// find returns key's way index, or -1.
func (r *refTLB) find(key Key) int {
	b := r.base(key)
	for i := b; i < b+r.ways; i++ {
		if r.keys[i] == key && r.stamps[i] != 0 {
			return i
		}
	}
	return -1
}

func (r *refTLB) Lookup(key Key) (Entry, bool) {
	i := r.find(key)
	if i < 0 {
		r.stats.Misses++
		return Entry{}, false
	}
	r.clock++
	r.stamps[i] = r.clock
	r.stats.Hits++
	return key.Entry(r.pfns[i]), true
}

func (r *refTLB) Insert(e Entry) (victim Entry, evicted bool) {
	key := e.Key()
	b := r.base(key)
	r.clock++
	free, lru := -1, b
	for i := b; i < b+r.ways; i++ {
		s := r.stamps[i]
		if s == 0 {
			if free < 0 {
				free = i
			}
			continue
		}
		if r.keys[i] == key {
			r.pfns[i] = e.PFN
			r.stamps[i] = r.clock
			return Entry{}, false
		}
		if s < r.stamps[lru] {
			lru = i
		}
	}
	if free >= 0 {
		r.keys[free] = key
		r.pfns[free] = e.PFN
		r.stamps[free] = r.clock
		r.stats.Fills++
		return Entry{}, false
	}
	victim = r.keys[lru].Entry(r.pfns[lru])
	r.keys[lru] = key
	r.pfns[lru] = e.PFN
	r.stamps[lru] = r.clock
	r.stats.Fills++
	r.stats.Evictions++
	return victim, true
}

func (r *refTLB) Invalidate(key Key) bool {
	i := r.find(key)
	if i < 0 {
		return false
	}
	r.stamps[i] = 0
	r.stats.Shootdowns++
	return true
}

func (r *refTLB) Flush() { clear(r.stamps) }

func (r *refTLB) Stats() Stats { return r.stats }

func (r *refTLB) ForEach(fn func(Entry)) {
	for i, s := range r.stamps {
		if s != 0 {
			fn(r.keys[i].Entry(r.pfns[i]))
		}
	}
}

// entries returns t's valid entries in ForEach order.
func entries(t interface{ ForEach(func(Entry)) }) []Entry {
	var es []Entry
	t.ForEach(func(e Entry) { es = append(es, e) })
	return es
}

// Random Insert/Lookup/Invalidate/Flush sequences give the same victims,
// evicted flags, Stats and ForEach order (so the same way placement)
// as the stamp-model reference, on the L1 TLB's 32-entry
// fully-associative geometry and the L2 TLB's 512-entry 16-way one.
func TestInsertMatchesSinglePassReference(t *testing.T) {
	for _, g := range []struct{ entries, ways int }{{32, 32}, {512, 16}} {
		rng := rand.New(rand.NewSource(int64(g.entries)))
		got, ref := New("got", g.entries, g.ways), newRefTLB(g.entries, g.ways)
		for step := 0; step < 30000; step++ {
			// Three keys per entry: hits, refreshes, free fills after
			// shootdowns and evictions all occur.
			e := Entry{Space: []vm.SpaceID{spaceA, spaceB}[rng.Intn(2)],
				VPN: vm.VPN(rng.Intn(3 * g.entries / 2)), PFN: vm.PFN(rng.Intn(1 << 20))}
			switch r := rng.Intn(2000); {
			case r < 1000:
				gv, ge := got.Insert(e)
				rv, re := ref.Insert(e)
				if gv != rv || ge != re {
					t.Fatalf("%d/%d step %d: Insert(%+v) = %+v, %v; reference %+v, %v", g.entries, g.ways, step, e, gv, ge, rv, re)
				}
			case r < 1700:
				ge, gok := got.Lookup(e.Key())
				re, rok := ref.Lookup(e.Key())
				if ge != re || gok != rok {
					t.Fatalf("%d/%d step %d: Lookup = %+v, %v; reference %+v, %v", g.entries, g.ways, step, ge, gok, re, rok)
				}
			case r < 1999:
				if got.Invalidate(e.Key()) != ref.Invalidate(e.Key()) {
					t.Fatalf("%d/%d step %d: Invalidate disagrees", g.entries, g.ways, step)
				}
			default:
				got.Flush()
				ref.Flush()
			}
			if got.Stats() != ref.Stats() {
				t.Fatalf("%d/%d step %d: Stats %+v; reference %+v", g.entries, g.ways, step, got.Stats(), ref.Stats())
			}
			ges, res := entries(got), entries(ref)
			if !slices.Equal(ges, res) {
				t.Fatalf("%d/%d step %d: ForEach order differs from the reference", g.entries, g.ways, step)
			}
			if got.Occupied() != len(ges) {
				t.Fatalf("%d/%d step %d: Occupied = %d with %d valid entries", g.entries, g.ways, step, got.Occupied(), len(ges))
			}
		}
		if s := ref.Stats(); s.Evictions == 0 || s.Shootdowns == 0 || s.Hits == 0 {
			t.Fatalf("%d/%d: the sequence missed a case: %+v", g.entries, g.ways, s)
		}
	}
}

// BenchmarkTLBInsert fills a TLB, then inserts a stream of four times
// its capacity in distinct keys, so every Insert misses on a full set
// and evicts: the L1 TLB's 32-way fully-associative set and the L2
// TLB's 512-entry 16-way geometry.
func BenchmarkTLBInsert(b *testing.B) {
	for _, g := range []struct {
		name          string
		entries, ways int
	}{{"fa32", 32, 32}, {"sa512x16", 512, 16}} {
		b.Run(g.name, func(b *testing.B) {
			tl := New(g.name, g.entries, g.ways)
			span := vm.VPN(4 * g.entries)
			for v := vm.VPN(0); v < span; v++ {
				tl.Insert(entry(spaceA, v))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tl.Insert(entry(spaceA, vm.VPN(i)%span))
			}
		})
	}
}
