package gpu

import (
	"math/bits"
	"slices"

	"gpureach/internal/vm"
)

// groupLanes coalesces one memory instruction's lane addresses into
// the CU's scratch list of page groups: one group per unique page, in
// first-occurrence order. With lines set, each group also collects the
// page-relative offsets of its unique cache lines, in first-occurrence
// order; the fast-forward path needs the pages only.
//
// A lane on the same line as the previous lane adds nothing and is
// skipped without a lookup, which is most lanes of a unit-stride
// access. Other lanes find their page's group through the CU's page
// index in O(1); only a lane on a new line scans its group's lines.
func (cu *CU) groupLanes(addrs []vm.VA, pageBits uint, lines bool) []*pageGroup {
	cu.pages.reset(len(addrs))
	lineMask := ^(uint64(cu.cfg.LineBytes) - 1)
	pageMask := uint64(1)<<pageBits - 1
	prevLine := ^uint64(0) // no line address has its low bits set
	var g *pageGroup
	for _, va := range addrs {
		line := uint64(va) & lineMask
		if line == prevLine {
			continue
		}
		prevLine = line
		vpn := vm.VPN(uint64(va) >> pageBits)
		if g == nil || g.vpn != vpn {
			g = cu.pageGroup(vpn)
		}
		if !lines {
			continue
		}
		if off := line & pageMask; !slices.Contains(g.lines, off) {
			g.lines = append(g.lines, off)
		}
	}
	return cu.gscratch
}

// pageGroup returns the current instruction's group for vpn, taking a
// fresh group from the pool and appending it to gscratch the first
// time vpn appears.
func (cu *CU) pageGroup(vpn vm.VPN) *pageGroup {
	x := &cu.pages
	mask := len(x.slots) - 1
	for i := x.home(vpn); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.gen != x.gen {
			g := cu.groupPool.Get()
			g.vpn = vpn
			*s = pageSlot{gen: x.gen, group: int32(len(cu.gscratch))}
			cu.gscratch = append(cu.gscratch, g)
			return g
		}
		if g := cu.gscratch[s.group]; g.vpn == vpn {
			return g
		}
	}
}

// pageIndex is an open-addressed (linear probing) table from VPN to
// the position of its group in the CU's gscratch. It holds at most one
// entry per lane and keeps at least twice that many slots, so probes
// stay short. A slot is live only while its gen matches the table's:
// bumping gen empties the table for the next instruction in O(1).
type pageIndex struct {
	slots []pageSlot
	gen   uint32
	shift uint // 64 - log2(len(slots)), for multiplicative hashing
}

type pageSlot struct {
	gen   uint32
	group int32
}

// newPageIndex sizes an index for lanes addresses per instruction.
func newPageIndex(lanes int) pageIndex {
	n := 2 << bits.Len(uint(max(lanes, 1)-1)) // power of two ≥ 2·lanes
	return pageIndex{slots: make([]pageSlot, n), shift: uint(64 - bits.TrailingZeros(uint(n)))}
}

// reset empties the index for an instruction of n lane addresses,
// growing it if n exceeds the lane count it was sized for (a kernel's
// Mem generator may return more addresses than the wave has lanes).
func (x *pageIndex) reset(n int) {
	if 2*n > len(x.slots) {
		*x = newPageIndex(n)
	}
	x.gen++
	if x.gen == 0 { // wrapped: stale slots could match again
		clear(x.slots)
		x.gen = 1
	}
}

// home is vpn's first probe slot (Fibonacci hashing, so page strides
// that are multiples of the table size still spread).
func (x *pageIndex) home(vpn vm.VPN) int {
	return int((uint64(vpn) * 0x9E3779B97F4A7C15) >> x.shift)
}
