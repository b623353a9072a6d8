// Package vm models the virtual-memory substrate the paper's GPU sits
// on: 48-bit virtual address spaces tagged with a VM-ID (address-space
// identifier) and VRF-ID (SR-IOV virtual function), a four-level x86-
// style page table whose nodes occupy physical frames (so page-table
// walks generate real memory references), a physical frame allocator,
// and support for the three page granularities the paper evaluates
// (4KB, 64KB, 2MB — §6.2).
package vm

import "fmt"

// VA is a virtual address (48 significant bits).
type VA uint64

// PA is a physical address.
type PA uint64

// VPN is a virtual page number: the virtual address shifted right by the
// page-offset bits of the owning address space's page size.
type VPN uint64

// PFN is a physical frame number at the owning space's page granularity.
type PFN uint64

// PageSize is a translation granularity in bytes.
type PageSize uint64

// Page sizes evaluated in the paper (§6.2).
const (
	Page4K  PageSize = 4 << 10
	Page64K PageSize = 64 << 10
	Page2M  PageSize = 2 << 20
)

// Bits returns log2 of the page size (the page-offset width).
func (s PageSize) Bits() uint {
	b := uint(0)
	for v := uint64(s); v > 1; v >>= 1 {
		b++
	}
	return b
}

// VPN returns the page number of va at this granularity.
func (s PageSize) VPN(va VA) VPN { return VPN(uint64(va) >> s.Bits()) }

// Base returns the first virtual address of the page containing va.
func (s PageSize) Base(va VA) VA { return VA(uint64(va) &^ (uint64(s) - 1)) }

// MaxWalkLevels is the deepest walk: a 48-bit VA with 4KB or 64KB pages.
const MaxWalkLevels = 4

// WalkLevels returns how many page-table levels a walk traverses for this
// granularity: 4 for 4KB and 64KB pages (64KB is a TLB-coalescing
// granularity over 4KB PTEs), 3 for 2MB pages (leaf at the PMD).
func (s PageSize) WalkLevels() int {
	if s >= Page2M {
		return MaxWalkLevels - 1
	}
	return MaxWalkLevels
}

const (
	vaBits       = 48
	levelBits    = 9
	entriesPerPT = 1 << levelBits
	ptNodeBytes  = 8 * entriesPerPT // 4KB nodes, as on real x86-64
)

// FrameAllocator hands out physical frames. Frames for data pages and
// page-table nodes come from disjoint regions so experiments can tell
// walk traffic from data traffic by address. Allocation is a bump
// pointer: the simulated system never frees physical memory mid-run,
// matching the paper's end-to-end application runs.
type FrameAllocator struct {
	nextData PA
	nextNode PA
	limit    PA
}

// NewFrameAllocator returns an allocator over totalBytes of physical
// memory. Page-table nodes are carved from the top of the range.
func NewFrameAllocator(totalBytes uint64) *FrameAllocator {
	return &FrameAllocator{
		nextData: 0,
		nextNode: PA(totalBytes / 2), // node region: upper half
		limit:    PA(totalBytes),
	}
}

// AllocData returns the base physical address of a fresh data frame of
// the given size.
func (f *FrameAllocator) AllocData(size PageSize) PA {
	pa := f.nextData
	f.nextData += PA(size)
	if f.nextData > PA(uint64(f.limit)/2) {
		//gpureach:allow simerr -- frame exhaustion means the workload footprint exceeds the configured memory: a config/scale bug at build time, before the engine runs
		panic(fmt.Sprintf("vm: out of data frames (allocated %d bytes)", f.nextData))
	}
	return pa
}

// AllocNode returns the base physical address of a fresh page-table node.
func (f *FrameAllocator) AllocNode() PA {
	pa := f.nextNode
	f.nextNode += ptNodeBytes
	if f.nextNode > f.limit {
		//gpureach:allow simerr -- frame exhaustion means the workload footprint exceeds the configured memory: a config/scale bug at build time, before the engine runs
		panic("vm: out of page-table frames")
	}
	return pa
}

// DataBytesAllocated reports how much data memory has been handed out.
func (f *FrameAllocator) DataBytesAllocated() uint64 { return uint64(f.nextData) }

// ptNode is one radix node of the page table.
type ptNode struct {
	pa       PA
	children [entriesPerPT]*ptNode
	leaves   [entriesPerPT]leaf
}

type leaf struct {
	pfn   PFN
	valid bool
}

// PageTable is a four-level x86-style radix page table. Walks touch one
// 8-byte entry per level; the physical address of each touched entry is
// reported so the IOMMU's walkers can issue those references through the
// real memory hierarchy.
type PageTable struct {
	root     *ptNode
	alloc    *FrameAllocator
	pageSize PageSize
	mapped   uint64
}

// NewPageTable creates an empty table mapping pages of size ps, drawing
// node frames from alloc.
func NewPageTable(alloc *FrameAllocator, ps PageSize) *PageTable {
	return &PageTable{
		root:     &ptNode{pa: alloc.AllocNode()},
		alloc:    alloc,
		pageSize: ps,
	}
}

// PageSize returns the translation granularity of this table.
func (pt *PageTable) PageSize() PageSize { return pt.pageSize }

// Mapped returns the number of valid leaf mappings.
func (pt *PageTable) Mapped() uint64 { return pt.mapped }

// levelIndices splits a VPN into per-level radix indices. The leaf level
// depends on the page size: larger pages consume fewer low-order bits,
// so indexing starts from the top of the 48-bit space in 9-bit strides
// down to the leaf. The fixed-size return keeps the split off the heap:
// warming translates millions of VPNs through here with no events to
// amortize an allocation against.
func (pt *PageTable) levelIndices(vpn VPN) ([MaxWalkLevels]int, int) {
	levels := pt.pageSize.WalkLevels()
	va := uint64(vpn) << pt.pageSize.Bits()
	var idx [MaxWalkLevels]int
	shift := uint(vaBits - levelBits) // top level
	for i := 0; i < levels; i++ {
		idx[i] = int((va >> shift) & (entriesPerPT - 1))
		shift -= levelBits
	}
	return idx, levels
}

// Map installs vpn→pfn, creating intermediate nodes as needed.
// Remapping an existing VPN overwrites it.
func (pt *PageTable) Map(vpn VPN, pfn PFN) {
	idx, levels := pt.levelIndices(vpn)
	n := pt.root
	for _, i := range idx[:levels-1] {
		child := n.children[i]
		if child == nil {
			child = &ptNode{pa: pt.alloc.AllocNode()}
			n.children[i] = child
		}
		n = child
	}
	li := idx[levels-1]
	if !n.leaves[li].valid {
		pt.mapped++
	}
	n.leaves[li] = leaf{pfn: pfn, valid: true}
}

// Unmap removes the mapping for vpn and reports whether it existed.
// Used by TLB-shootdown experiments (§7.1).
func (pt *PageTable) Unmap(vpn VPN) bool {
	idx, levels := pt.levelIndices(vpn)
	n := pt.root
	for _, i := range idx[:levels-1] {
		if n = n.children[i]; n == nil {
			return false
		}
	}
	li := idx[levels-1]
	if !n.leaves[li].valid {
		return false
	}
	n.leaves[li] = leaf{}
	pt.mapped--
	return true
}

// Walk is the result of traversing the table for one VPN. It is a plain
// value: the step addresses live inline, so a walk never allocates.
type Walk struct {
	// Steps[:Levels] holds the physical address of the page-table entry
	// read at each level, root first. A walker that hits in a page-walk
	// cache skips a prefix of them.
	Steps  [MaxWalkLevels]PA
	Levels int
	// PFN is the translation result; only meaningful if OK.
	PFN PFN
	// OK reports whether the VPN was mapped. A failed walk still touched
	// every level down to the first missing node.
	OK bool
}

// Walk traverses the table for vpn, recording the entry addresses read.
func (pt *PageTable) Walk(vpn VPN) Walk {
	idx, levels := pt.levelIndices(vpn)
	var w Walk
	n := pt.root
	for d, i := range idx[:levels] {
		w.Steps[d] = n.pa + PA(i*8)
		w.Levels = d + 1
		if w.Levels == levels {
			lf := n.leaves[i]
			w.PFN, w.OK = lf.pfn, lf.valid
			return w
		}
		if n = n.children[i]; n == nil {
			return w // missing intermediate node: fault
		}
	}
	return w
}

// PrefixKey returns a key identifying the page-table subtree covering
// vpn's first `level` radix indices (level ≥ 1). Page-walk caches use it:
// a PGD cache entry keys on level 1, PUD on 2, PMD on 3 (cf. Table 1's
// PGD/PUD/PMD caches).
func (pt *PageTable) PrefixKey(vpn VPN, level int) uint64 {
	if levels := pt.pageSize.WalkLevels(); level > levels {
		level = levels
	}
	// The per-level radix indices are consecutive 9-bit groups taken
	// from the top of the 48-bit space, so their concatenation is just
	// the VA's top level×9 bits — no need to split and re-fold.
	va := uint64(vpn) << pt.pageSize.Bits()
	key := va >> (uint(vaBits) - uint(level)*levelBits)
	return key<<4 | uint64(level)
}

// Lookup translates vpn without recording walk steps. It is the
// functional (zero-latency) view used by tests and by structures that
// need the mapping but not the timing, and the fast path warming leans
// on.
func (pt *PageTable) Lookup(vpn VPN) (PFN, bool) {
	idx, levels := pt.levelIndices(vpn)
	n := pt.root
	for _, i := range idx[:levels-1] {
		if n = n.children[i]; n == nil {
			return 0, false
		}
	}
	lf := n.leaves[idx[levels-1]]
	return lf.pfn, lf.valid
}
