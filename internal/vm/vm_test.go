package vm

import (
	"testing"
	"testing/quick"
)

func newTestSpace(ps PageSize) *AddrSpace {
	frames := NewFrameAllocator(16 << 30)
	return NewAddrSpace(SpaceID{VMID: 1, VRF: 2}, frames, ps)
}

func TestPageSizeBits(t *testing.T) {
	cases := []struct {
		ps   PageSize
		bits uint
	}{{Page4K, 12}, {Page64K, 16}, {Page2M, 21}}
	for _, c := range cases {
		if got := c.ps.Bits(); got != c.bits {
			t.Errorf("%d.Bits() = %d, want %d", c.ps, got, c.bits)
		}
	}
}

func TestPageSizeVPNBase(t *testing.T) {
	va := VA(0x2000_0000_3A7C)
	if vpn := Page4K.VPN(va); vpn != 0x2000_0000_3 {
		t.Errorf("VPN = %#x", vpn)
	}
	if base := Page4K.Base(va); base != 0x2000_0000_3000 {
		t.Errorf("Base = %#x", base)
	}
}

func TestWalkLevels(t *testing.T) {
	if Page4K.WalkLevels() != 4 || Page64K.WalkLevels() != 4 {
		t.Error("4K/64K pages should walk 4 levels")
	}
	if Page2M.WalkLevels() != 3 {
		t.Error("2M pages should walk 3 levels")
	}
}

func TestMapWalkRoundTrip(t *testing.T) {
	for _, ps := range []PageSize{Page4K, Page64K, Page2M} {
		frames := NewFrameAllocator(16 << 30)
		pt := NewPageTable(frames, ps)
		vpn := ps.VPN(0x2000_1234_5678)
		pt.Map(vpn, 42)
		w := pt.Walk(vpn)
		if !w.OK || w.PFN != 42 {
			t.Errorf("ps=%d: walk = %+v, want PFN 42", ps, w)
		}
		if w.Levels != ps.WalkLevels() {
			t.Errorf("ps=%d: %d steps, want %d", ps, w.Levels, ps.WalkLevels())
		}
	}
}

func TestWalkMissingVPN(t *testing.T) {
	frames := NewFrameAllocator(16 << 30)
	pt := NewPageTable(frames, Page4K)
	pt.Map(100, 1)
	w := pt.Walk(200)
	if w.OK {
		t.Error("walk of unmapped VPN reported OK")
	}
	if w.Levels == 0 {
		t.Error("failed walk should still have touched the root")
	}
}

func TestWalkStepsDistinctAddresses(t *testing.T) {
	frames := NewFrameAllocator(16 << 30)
	pt := NewPageTable(frames, Page4K)
	vpn := Page4K.VPN(0x2000_0000_0000)
	pt.Map(vpn, 7)
	w := pt.Walk(vpn)
	seen := map[PA]bool{}
	for _, s := range w.Steps[:w.Levels] {
		if seen[s] {
			t.Fatalf("duplicate step address %#x", s)
		}
		seen[s] = true
	}
}

// Walk sits on every IOMMU walk of a full-detail run, so it must not
// allocate: the step addresses live inline in the returned value. A
// fault walk and a three-level 2MB walk take the same path.
func TestWalkAllocatesNothing(t *testing.T) {
	for _, ps := range []PageSize{Page4K, Page2M} {
		pt := NewPageTable(NewFrameAllocator(16<<30), ps)
		vpn, unmapped := ps.VPN(0x2000_0000_0000), ps.VPN(0x4000_0000_0000)
		pt.Map(vpn, 7)
		var w Walk
		allocs := testing.AllocsPerRun(100, func() {
			w = pt.Walk(vpn)
			w = pt.Walk(unmapped) // faults below the root
		})
		if allocs != 0 {
			t.Errorf("ps=%d: Walk made %.1f allocations per run, want 0", ps, allocs)
		}
		if w.OK || w.Levels == 0 {
			t.Errorf("ps=%d: fault walk = %+v", ps, w)
		}
	}
}

// A VPN beyond the 48-bit space must not alias onto the mapped VPN its
// low bits select: with 2MB pages, vpn + 1<<27 and vpn + 1<<30 share
// every 9-bit radix index with vpn (and vpn + 1<<36, 1<<39 with 4KB). Walk, Lookup and Unmap report it
// unmapped, and Map refuses it.
func TestVPNBeyondVASpaceIsUnmapped(t *testing.T) {
	for _, ps := range []PageSize{Page4K, Page2M} {
		pt := NewPageTable(NewFrameAllocator(16<<30), ps)
		vpn := ps.VPN(0x2000_0000_0000)
		pt.Map(vpn, 7)
		limit := VPN(1) << (vaBits - ps.Bits())
		for _, far := range []VPN{vpn + limit, vpn + limit<<3, limit} {
			if w := pt.Walk(far); w.OK || w.Levels != 0 {
				t.Errorf("ps=%d: Walk(%#x) = %+v, want a fault with no steps", ps, far, w)
			}
			if pfn, ok := pt.Lookup(far); ok {
				t.Errorf("ps=%d: Lookup(%#x) = PFN %d, want unmapped", ps, far, pfn)
			}
			if pt.Unmap(far) {
				t.Errorf("ps=%d: Unmap(%#x) removed a mapping", ps, far)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("ps=%d: Map(%#x) did not panic", ps, far)
					}
				}()
				pt.Map(far, 9)
			}()
		}
		if pfn, ok := pt.Lookup(vpn); !ok || pfn != 7 || pt.Mapped() != 1 {
			t.Errorf("ps=%d: in-range mapping disturbed: PFN %d ok=%v mapped=%d", ps, pfn, ok, pt.Mapped())
		}
		pt.Map(limit-1, 3)
		if w := pt.Walk(limit - 1); !w.OK || w.PFN != 3 {
			t.Errorf("ps=%d: last VPN of the space walked to %+v, want PFN 3", ps, w)
		}
	}
}

func TestUnmap(t *testing.T) {
	frames := NewFrameAllocator(16 << 30)
	pt := NewPageTable(frames, Page4K)
	pt.Map(5, 9)
	if pt.Mapped() != 1 {
		t.Fatalf("Mapped = %d", pt.Mapped())
	}
	if !pt.Unmap(5) {
		t.Fatal("Unmap of mapped VPN returned false")
	}
	if pt.Unmap(5) {
		t.Fatal("double Unmap returned true")
	}
	if _, ok := pt.Lookup(5); ok {
		t.Error("lookup succeeded after unmap")
	}
	if pt.Mapped() != 0 {
		t.Errorf("Mapped = %d after unmap", pt.Mapped())
	}
}

func TestRemapOverwrites(t *testing.T) {
	frames := NewFrameAllocator(16 << 30)
	pt := NewPageTable(frames, Page4K)
	pt.Map(5, 9)
	pt.Map(5, 13)
	if pt.Mapped() != 1 {
		t.Errorf("Mapped = %d, want 1", pt.Mapped())
	}
	if pfn, _ := pt.Lookup(5); pfn != 13 {
		t.Errorf("PFN = %d, want 13", pfn)
	}
}

func TestPrefixKeyDistinguishesLevels(t *testing.T) {
	frames := NewFrameAllocator(16 << 30)
	pt := NewPageTable(frames, Page4K)
	vpn := Page4K.VPN(0x2000_0000_0000)
	k1 := pt.PrefixKey(vpn, 1)
	k2 := pt.PrefixKey(vpn, 2)
	k3 := pt.PrefixKey(vpn, 3)
	if k1 == k2 || k2 == k3 || k1 == k3 {
		t.Errorf("prefix keys collide: %d %d %d", k1, k2, k3)
	}
	// VPNs sharing the top 27 bits share level-3 prefixes.
	other := vpn + 1
	if pt.PrefixKey(other, 3) != k3 {
		t.Error("adjacent VPNs should share the PMD prefix")
	}
}

func TestAllocEagerlyMaps(t *testing.T) {
	as := newTestSpace(Page4K)
	buf := as.Alloc("A", 10*4096)
	if as.MappedPages() != 10 {
		t.Errorf("mapped %d pages, want 10", as.MappedPages())
	}
	for off := uint64(0); off < buf.Size; off += 4096 {
		if _, ok := as.Translate(buf.At(off)); !ok {
			t.Fatalf("offset %d not translated", off)
		}
	}
}

func TestAllocGuardPage(t *testing.T) {
	as := newTestSpace(Page4K)
	a := as.Alloc("A", 4096)
	b := as.Alloc("B", 4096)
	gap := uint64(b.Base - a.Base)
	if gap != 2*4096 {
		t.Errorf("buffer gap = %d, want guard page (8192)", gap)
	}
	if _, ok := as.Translate(a.Base + 4096); ok {
		t.Error("guard page is mapped")
	}
}

func TestTranslatePreservesOffset(t *testing.T) {
	as := newTestSpace(Page4K)
	buf := as.Alloc("A", 4096)
	pa, ok := as.Translate(buf.At(123))
	if !ok {
		t.Fatal("translate failed")
	}
	if uint64(pa)&4095 != 123 {
		t.Errorf("offset not preserved: pa=%#x", pa)
	}
}

func TestDistinctFramesPerPage(t *testing.T) {
	as := newTestSpace(Page4K)
	buf := as.Alloc("A", 64*4096)
	seen := map[PA]bool{}
	for off := uint64(0); off < buf.Size; off += 4096 {
		pa, ok := as.Translate(buf.At(off))
		if !ok {
			t.Fatal("unmapped page")
		}
		frame := PA(uint64(pa) &^ 4095)
		if seen[frame] {
			t.Fatalf("frame %#x mapped twice", frame)
		}
		seen[frame] = true
	}
}

func TestBufferAtPanicsOutOfRange(t *testing.T) {
	as := newTestSpace(Page4K)
	buf := as.Alloc("A", 4096)
	defer func() {
		if recover() == nil {
			t.Error("At past end did not panic")
		}
	}()
	buf.At(4096)
}

func TestSpaceIDPack(t *testing.T) {
	id := SpaceID{VMID: 3, VRF: 2}
	if id.Pack() != 0b1110 {
		t.Errorf("Pack = %#b", id.Pack())
	}
	if (SpaceID{}).Pack() != 0 {
		t.Error("zero ID should pack to 0")
	}
}

// Property: Map then Lookup returns what was mapped, for arbitrary VPNs
// in the 48-bit space.
func TestMapLookupProperty(t *testing.T) {
	frames := NewFrameAllocator(1 << 40)
	pt := NewPageTable(frames, Page4K)
	f := func(rawVPN uint64, pfn uint32) bool {
		vpn := VPN(rawVPN % (1 << 36)) // 48-bit VA, 12-bit offset
		pt.Map(vpn, PFN(pfn))
		got, ok := pt.Lookup(vpn)
		return ok && got == PFN(pfn)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: walks always terminate within WalkLevels steps.
func TestWalkBoundedProperty(t *testing.T) {
	frames := NewFrameAllocator(1 << 40)
	for _, ps := range []PageSize{Page4K, Page2M} {
		pt := NewPageTable(frames, ps)
		f := func(rawVPN uint64) bool {
			vpn := VPN(rawVPN % (1 << (vaBits - ps.Bits())))
			pt.Map(vpn, 1)
			w := pt.Walk(vpn)
			return w.Levels <= ps.WalkLevels() && w.OK
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Error(err)
		}
	}
}

func TestFrameAllocatorRegionsDisjoint(t *testing.T) {
	f := NewFrameAllocator(1 << 30)
	d := f.AllocData(Page4K)
	n := f.AllocNode()
	if d >= (1<<30)/2 {
		t.Errorf("data frame %#x in node region", d)
	}
	if n < (1<<30)/2 {
		t.Errorf("node frame %#x in data region", n)
	}
}

func TestAllocZeroSizePanics(t *testing.T) {
	as := newTestSpace(Page4K)
	defer func() {
		if recover() == nil {
			t.Error("zero-size alloc did not panic")
		}
	}()
	as.Alloc("bad", 0)
}

func TestLargePageSpace(t *testing.T) {
	as := newTestSpace(Page2M)
	buf := as.Alloc("big", 5<<20)
	if as.MappedPages() != 3 {
		t.Errorf("mapped %d 2M pages for 5MB, want 3", as.MappedPages())
	}
	if _, ok := as.Translate(buf.At(4 << 20)); !ok {
		t.Error("tail of buffer unmapped")
	}
}
