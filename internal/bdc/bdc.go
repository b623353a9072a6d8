// Package bdc implements the Base-Delta compression the paper uses to
// squeeze multiple translation tags into the space of one (§4.2.4
// Figure 7 for the LDS, §4.3.1 Figure 10 for the I-cache; the scheme
// follows Tang et al., PACT 2020 [46]).
//
// A group of N tag values is stored as one base plus N signed deltas.
// The LDS packs 3×32-bit translation tags into a 64-bit segment word
// using a 16-bit base and 48 delta bits; the I-cache packs 8 tags using
// a 32-bit base and 64 delta bits. Compression can fail when a tag is
// too far from the group's base — the hardware must then refuse the
// insertion rather than corrupt a tag, and this package models exactly
// that: Add reports failure and leaves the group untouched.
package bdc

import (
	"fmt"
	"math/bits"
)

// MaxSlots bounds a group's capacity. Fixed-size backing arrays keep a
// group inline in the array or cache line that owns it — one dependent
// load instead of three — which matters because every victim-structure
// probe scans one. The paper's geometries need at most 8 slots
// (I-cache sub-ways) and 6 (64-byte LDS segments).
const MaxSlots = 8

// Group is a fixed-capacity set of values compressed against a common
// base. The zero Group is unusable; use NewGroup. Group is a value
// type: embed it directly (not behind a pointer) so probes stay local
// to the owning structure's memory.
type Group struct {
	baseBits  uint8
	deltaBits uint8
	slots     int8
	live      uint8 // bitmask of occupied slots

	base     uint64
	values   [MaxSlots]uint64
	rejected uint64
	hasBase  bool
}

// NewGroup returns a compressor for `slots` values sharing one base of
// baseBits with deltaBits signed bits per delta. Typical instantiations:
//
//	bdc.NewGroup(3, 16, 16)  // LDS: 3 tags, 16b base, 3×16b deltas
//	bdc.NewGroup(8, 32, 8)   // I-cache: 8 tags, 32b base, 8×8b deltas
func NewGroup(slots int, baseBits, deltaBits uint) Group {
	if slots <= 0 || slots > MaxSlots || baseBits == 0 || baseBits > 64 || deltaBits == 0 || deltaBits > 63 {
		panic(fmt.Sprintf("bdc: invalid group geometry slots=%d base=%d delta=%d (max %d slots)", slots, baseBits, deltaBits, MaxSlots))
	}
	return Group{
		baseBits:  uint8(baseBits),
		deltaBits: uint8(deltaBits),
		slots:     int8(slots),
	}
}

// Slots returns the group capacity.
func (g *Group) Slots() int { return int(g.slots) }

// Live returns how many slots currently hold values.
func (g *Group) Live() int { return bits.OnesCount8(g.live) }

// Rejected returns how many Add calls failed because the delta did not
// fit — the hardware cost of compression the experiments account for.
func (g *Group) Rejected() uint64 { return g.rejected }

// StorageBits returns the compressed footprint: base + slots×delta bits.
// For the paper's geometries this is 64 bits (LDS) and 96 bits (I-cache).
func (g *Group) StorageBits() uint {
	return uint(g.baseBits) + uint(g.slots)*uint(g.deltaBits)
}

// fits reports whether v can be represented against base: the high bits
// beyond baseBits must be zero (base is a truncated-width field) and the
// difference must fit in a signed deltaBits integer.
func (g *Group) fits(base, v uint64) bool {
	d := int64(v) - int64(base)
	limit := int64(1) << (g.deltaBits - 1)
	return d >= -limit && d < limit
}

// baseRepresentable reports whether v can serve as the group's base.
func (g *Group) baseRepresentable(v uint64) bool {
	if g.baseBits == 64 {
		return true
	}
	return v < 1<<g.baseBits
}

// Add stores v in slot i if it compresses against the current base (or
// establishes the base when the group is empty). It reports success; on
// failure nothing changes and the rejection counter increments.
func (g *Group) Add(i int, v uint64) bool {
	g.checkSlot(i)
	bit := uint8(1) << i
	if !g.hasBase || g.live == 0 || g.live == bit {
		// Empty group (or overwriting the only member): rebase freely.
		if !g.baseRepresentable(v) {
			g.rejected++
			return false
		}
		g.base = v
		g.hasBase = true
		g.values[i] = v
		g.live |= bit
		return true
	}
	if !g.fits(g.base, v) {
		g.rejected++
		return false
	}
	g.values[i] = v
	g.live |= bit
	return true
}

// Get returns the value in slot i and whether it is live. Retrieval
// models decompression: the stored representation is base+delta, and Get
// reconstructs the original value exactly (verified by the round-trip
// property tests).
func (g *Group) Get(i int) (uint64, bool) {
	g.checkSlot(i)
	if g.live&(1<<i) == 0 {
		return 0, false
	}
	// Reconstruct through the compressed form to keep the model honest.
	d := int64(g.values[i]) - int64(g.base)
	return uint64(int64(g.base) + d), true
}

// Invalidate clears slot i and reports whether it was live.
func (g *Group) Invalidate(i int) bool {
	g.checkSlot(i)
	bit := uint8(1) << i
	if g.live&bit == 0 {
		return false
	}
	g.live &^= bit
	return true
}

// Clear empties the whole group (segment reclaimed by the application,
// or I-cache line flipped back to instruction mode).
func (g *Group) Clear() {
	g.live = 0
	g.hasBase = false
}

// Find returns the slot holding value v, or -1. This is the parallel tag
// comparison the hardware performs after decompressing the tag group.
func (g *Group) Find(v uint64) int {
	for i := 0; i < int(g.slots); i++ {
		if g.live&(1<<i) != 0 && g.values[i] == v {
			return i
		}
	}
	return -1
}

func (g *Group) checkSlot(i int) {
	if i < 0 || i >= int(g.slots) {
		//gpureach:allow simerr -- an out-of-range slot index is a caller bug, not a run-time fault; crashing beats silently corrupting a compressed entry
		panic(fmt.Sprintf("bdc: slot %d out of range [0,%d)", i, g.slots))
	}
}
