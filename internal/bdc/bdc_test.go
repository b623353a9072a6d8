package bdc

import (
	"testing"
	"testing/quick"
)

func TestPaperGeometries(t *testing.T) {
	lds := NewGroup(3, 16, 16)
	if lds.StorageBits() != 64 {
		t.Errorf("LDS tag group = %d bits, want 64 (8B per 32B segment)", lds.StorageBits())
	}
	ic := NewGroup(8, 32, 8)
	if ic.StorageBits() != 96 {
		t.Errorf("I-cache tag group = %d bits, want 96 (32b base + 64b deltas)", ic.StorageBits())
	}
}

func TestAddGetRoundTrip(t *testing.T) {
	g := NewGroup(3, 16, 16)
	vals := []uint64{1000, 1100, 900}
	for i, v := range vals {
		if !g.Add(i, v) {
			t.Fatalf("Add(%d, %d) failed", i, v)
		}
	}
	for i, v := range vals {
		got, ok := g.Get(i)
		if !ok || got != v {
			t.Errorf("Get(%d) = %d,%v want %d", i, got, ok, v)
		}
	}
	if g.Live() != 3 {
		t.Errorf("Live = %d", g.Live())
	}
}

func TestDeltaOverflowRejected(t *testing.T) {
	g := NewGroup(3, 16, 16)
	if !g.Add(0, 40000) {
		t.Fatal("first add failed")
	}
	// 16-bit signed delta covers [-32768, 32767].
	if g.Add(1, 40000+40000) {
		t.Error("overflowing delta accepted")
	}
	if g.Rejected() != 1 {
		t.Errorf("Rejected = %d, want 1", g.Rejected())
	}
	// Group untouched: slot 1 must be empty.
	if _, ok := g.Get(1); ok {
		t.Error("failed Add left a value behind")
	}
	// Boundary values accepted.
	if !g.Add(1, 40000+32767) {
		t.Error("max positive delta rejected")
	}
	if !g.Add(2, 40000-32768) {
		t.Error("max negative delta rejected")
	}

	// One past each end of a signed k-bit field, for the LDS's 16-bit
	// and the I-cache's 8-bit deltas: +2^(k-1) and -2^(k-1)-1 must be
	// rejected, and the extremes just inside accepted.
	for _, geo := range []struct {
		name                   string
		slots, baseBits, delta uint
	}{{"LDS", 3, 16, 16}, {"I-cache", 8, 32, 8}} {
		const base = 1 << 12
		limit := uint64(1) << (geo.delta - 1)
		g := NewGroup(int(geo.slots), geo.baseBits, geo.delta)
		if !g.Add(0, base) {
			t.Fatalf("%s: first add failed", geo.name)
		}
		for _, v := range []uint64{base + limit, base - limit - 1} {
			if g.Add(1, v) {
				t.Errorf("%s: delta %d accepted into a %d-bit field", geo.name, int64(v)-base, geo.delta)
			}
		}
		if g.Rejected() != 2 {
			t.Errorf("%s: Rejected = %d, want 2", geo.name, g.Rejected())
		}
		if !g.Add(1, base+limit-1) || !g.Add(2, base-limit) {
			t.Errorf("%s: extreme in-range deltas %d and -%d rejected", geo.name, limit-1, limit)
		}
	}
}

func TestBaseWidthEnforced(t *testing.T) {
	g := NewGroup(3, 16, 16)
	if g.Add(0, 1<<20) {
		t.Error("base wider than 16 bits accepted")
	}
	if g.Rejected() != 1 {
		t.Errorf("Rejected = %d", g.Rejected())
	}
}

func TestRebaseWhenEmpty(t *testing.T) {
	g := NewGroup(3, 16, 16)
	if !g.Add(0, 100) {
		t.Fatal("add failed")
	}
	g.Invalidate(0)
	// Empty again: a far-away base is fine.
	if !g.Add(1, 60000) {
		t.Error("rebase after emptying failed")
	}
}

func TestRebaseWhenOverwritingOnlyMember(t *testing.T) {
	g := NewGroup(3, 16, 16)
	if !g.Add(0, 100) {
		t.Fatal("add failed")
	}
	// Overwriting the sole live slot may rebase.
	if !g.Add(0, 60000) {
		t.Error("overwrite of only member did not rebase")
	}
	if v, _ := g.Get(0); v != 60000 {
		t.Errorf("Get = %d", v)
	}
}

func TestFind(t *testing.T) {
	g := NewGroup(8, 32, 8)
	g.Add(0, 500)
	g.Add(3, 510)
	g.Add(7, 490)
	if got := g.Find(510); got != 3 {
		t.Errorf("Find(510) = %d, want 3", got)
	}
	if got := g.Find(777); got != -1 {
		t.Errorf("Find(777) = %d, want -1", got)
	}
	g.Invalidate(3)
	if got := g.Find(510); got != -1 {
		t.Errorf("Find after invalidate = %d, want -1", got)
	}
}

func TestClear(t *testing.T) {
	g := NewGroup(3, 16, 16)
	g.Add(0, 10)
	g.Add(1, 20)
	g.Clear()
	if g.Live() != 0 {
		t.Errorf("Live after Clear = %d", g.Live())
	}
	for i := 0; i < 3; i++ {
		if _, ok := g.Get(i); ok {
			t.Errorf("slot %d live after Clear", i)
		}
	}
	// Base must be re-establishable anywhere.
	if !g.Add(2, 65000) {
		t.Error("Add after Clear failed")
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	cases := []struct{ slots, base, delta int }{
		{0, 16, 16}, {3, 0, 16}, {3, 16, 0}, {3, 65, 16}, {3, 16, 64},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("geometry %+v did not panic", c)
				}
			}()
			NewGroup(c.slots, uint(c.base), uint(c.delta))
		}()
	}
}

func TestSlotRangePanics(t *testing.T) {
	g := NewGroup(3, 16, 16)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range slot did not panic")
		}
	}()
	g.Add(3, 1)
}

// Property: every value accepted by Add round-trips exactly through Get.
// Compression must never corrupt a tag (§5 invariant in DESIGN.md).
func TestRoundTripProperty(t *testing.T) {
	f := func(base uint16, deltas [7]int8) bool {
		g := NewGroup(8, 32, 8)
		if !g.Add(0, uint64(base)+1<<14) {
			return false
		}
		for i, d := range deltas {
			v := uint64(int64(base) + 1<<14 + int64(d))
			if g.Add(i+1, v) {
				got, ok := g.Get(i + 1)
				if !ok || got != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Add either succeeds with the value retrievable, or fails
// leaving the slot exactly as it was.
func TestAddAtomicProperty(t *testing.T) {
	g := NewGroup(3, 16, 16)
	g.Add(0, 30000)
	f := func(raw uint32, slot uint8) bool {
		i := int(slot%2) + 1
		before, beforeOK := g.Get(i)
		v := uint64(raw) % (1 << 17) // sometimes unrepresentable
		ok := g.Add(i, v)
		after, afterOK := g.Get(i)
		if ok {
			return afterOK && after == v
		}
		return afterOK == beforeOK && after == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestLiveCountNeverNegative(t *testing.T) {
	g := NewGroup(3, 16, 16)
	g.Invalidate(0)
	g.Invalidate(1)
	if g.Live() != 0 {
		t.Errorf("Live = %d", g.Live())
	}
	g.Add(0, 1)
	g.Invalidate(0)
	g.Invalidate(0)
	if g.Live() != 0 {
		t.Errorf("Live = %d after double invalidate", g.Live())
	}
}
