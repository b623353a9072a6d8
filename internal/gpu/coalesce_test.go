package gpu

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gpureach/internal/vm"
)

// refGroup is one page of refGroupLanes' coalescing: the VPN and its
// unique page-relative line offsets, both in first-occurrence order.
type refGroup struct {
	vpn   vm.VPN
	lines []uint64
}

// refGroupLanes is the coalescer as it was before the page index: for
// every lane, a linear search of the instruction's groups, then of the
// page's lines. It is the reference TestGroupLanesMatchesReference
// holds groupLanes to.
func refGroupLanes(addrs []vm.VA, pageBits uint, lineBytes int) []refGroup {
	lineMask := ^(uint64(lineBytes) - 1)
	var groups []refGroup
	for _, va := range addrs {
		vpn := vm.VPN(uint64(va) >> pageBits)
		off := uint64(va) & ((1 << pageBits) - 1) & lineMask
		gi := -1
		for i := range groups {
			if groups[i].vpn == vpn {
				gi = i
				break
			}
		}
		if gi < 0 {
			gi = len(groups)
			groups = append(groups, refGroup{vpn: vpn})
		}
		if !slices.Contains(groups[gi].lines, off) {
			groups[gi].lines = append(groups[gi].lines, off)
		}
	}
	return groups
}

// laneShapes generates the lane-vector shapes the coalescer meets, as
// byte offsets from a page-aligned base: unit-stride, strided within
// and across pages, page-crossing runs, one lane per page (64 distinct
// pages), and scattered lanes that revisit earlier lines and pages out
// of order (non-adjacent duplicates).
var laneShapes = []struct {
	name string
	gen  func(rng *rand.Rand, lane int) uint64
}{
	{"unit-stride", func(_ *rand.Rand, i int) uint64 { return uint64(i) * 4 }},
	{"strided", func(_ *rand.Rand, i int) uint64 { return uint64(i) * 256 }},
	{"page-crossing", func(_ *rand.Rand, i int) uint64 { return 4096 - 512 + uint64(i)*16 }},
	{"distinct-pages", func(_ *rand.Rand, i int) uint64 { return uint64(i) * 4096 * 3 }},
	{"scattered", func(rng *rand.Rand, _ int) uint64 { return uint64(rng.Intn(4 * 4096)) }},
	{"wide-scatter", func(rng *rand.Rand, _ int) uint64 { return uint64(rng.Intn(1<<30)) &^ 7 }},
}

// TestGroupLanesMatchesReference: for random lane vectors of every
// shape, page size and length, groupLanes must produce the reference's
// groups and lines in the same order, and the fast-forward (pages-only)
// form the same pages. The pages-only form leaves each group's lines
// empty.
func TestGroupLanesMatchesReference(t *testing.T) {
	rig := newRig(t, smallConfig(), false, false)
	cu := rig.cus[0]
	rng := rand.New(rand.NewSource(7))
	for _, ps := range []vm.PageSize{vm.Page4K, vm.Page64K, vm.Page2M} {
		pageBits := ps.Bits()
		for _, sh := range laneShapes {
			for trial := 0; trial < 50; trial++ {
				base := uint64(rng.Intn(1<<20)) << pageBits
				// Mostly full waves, sometimes partial or longer than
				// the configured lane count.
				n := cu.cfg.Lanes
				if trial%5 == 4 {
					n = 1 + rng.Intn(2*cu.cfg.Lanes)
				}
				addrs := make([]vm.VA, n)
				for i := range addrs {
					addrs[i] = vm.VA(base + sh.gen(rng, i))
				}
				if trial%3 == 2 { // shuffle: duplicates become non-adjacent
					rng.Shuffle(n, func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
				}
				where := fmt.Sprintf("page %d B/%s/trial %d", ps, sh.name, trial)
				want := refGroupLanes(addrs, pageBits, cu.cfg.LineBytes)

				got := cu.groupLanes(addrs, pageBits, true)
				if len(got) != len(want) {
					t.Fatalf("%s: %d groups, reference %d", where, len(got), len(want))
				}
				for i, g := range got {
					if g.vpn != want[i].vpn || !slices.Equal(g.lines, want[i].lines) {
						t.Fatalf("%s: group %d is vpn %#x lines %v, reference vpn %#x lines %v",
							where, i, g.vpn, g.lines, want[i].vpn, want[i].lines)
					}
				}
				recycle(cu, got)

				pages := cu.groupLanes(addrs, pageBits, false)
				if len(pages) != len(want) {
					t.Fatalf("%s: pages-only form found %d pages, reference %d", where, len(pages), len(want))
				}
				for i, g := range pages {
					if g.vpn != want[i].vpn || len(g.lines) != 0 {
						t.Fatalf("%s: pages-only group %d is vpn %#x with %d lines, reference vpn %#x",
							where, i, g.vpn, len(g.lines), want[i].vpn)
					}
				}
				recycle(cu, pages)
			}
		}
	}
}

// recycle returns an instruction's groups to the CU's pool, as
// memTranslated and warmMemAccess do.
func recycle(cu *CU, groups []*pageGroup) {
	for _, g := range groups {
		g.lines = g.lines[:0]
		cu.groupPool.Put(g)
	}
	cu.gscratch = groups[:0]
}

// TestPageIndexGenerationWrap: when the generation counter wraps, the
// index must clear its slots rather than let entries stamped four
// billion instructions ago match again.
func TestPageIndexGenerationWrap(t *testing.T) {
	rig := newRig(t, smallConfig(), false, false)
	cu := rig.cus[0]
	addrs := []vm.VA{0x1000, 0x5000, 0x1040}
	recycle(cu, cu.groupLanes(addrs, vm.Page4K.Bits(), true))
	cu.pages.gen = ^uint32(0) // the next reset wraps
	got := cu.groupLanes(addrs, vm.Page4K.Bits(), true)
	if len(got) != 2 || got[0].vpn != 1 || got[1].vpn != 5 || !slices.Equal(got[0].lines, []uint64{0, 0x40}) {
		t.Fatalf("after wrap: %d groups (%v)", len(got), got)
	}
	recycle(cu, got)
}

// BenchmarkMemAccessEvent measures one wave memory instruction from
// coalescing through drained completion, on a warm CU, for three lane
// shapes: unit-stride (64 lanes × 4 bytes, 4 lines of one page),
// strided (one line per lane, 64 lines of 4 pages) and divergent (one
// page per lane). The L1 TLB holds all 64 pages, so after warm-up every
// shape translates on L1 hits and the coalescer's share shows.
func BenchmarkMemAccessEvent(b *testing.B) {
	shapes := []struct {
		name   string
		offset func(lane int) uint64
	}{
		{"unit-stride", func(i int) uint64 { return uint64(i) * 4 }},
		{"strided", func(i int) uint64 { return uint64(i) * 256 }},
		{"divergent", func(i int) uint64 { return uint64(i) * 4096 }},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			cfg := smallConfig()
			cfg.L1TLBEntries = 128
			rig := newRig(b, cfg, false, false)
			buf := rig.space.Alloc("data", 1<<20)
			cu := rig.cus[0]
			addrs := make([]vm.VA, cu.cfg.Lanes)
			for i := range addrs {
				addrs[i] = buf.At(sh.offset(i) % buf.Size)
			}
			h := func(any) {}
			for i := 0; i < 50; i++ {
				cu.memAccessEvent(rig.space, addrs, false, h, nil)
				rig.eng.Run()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cu.memAccessEvent(rig.space, addrs, false, h, nil)
				rig.eng.Run()
			}
		})
	}
}
