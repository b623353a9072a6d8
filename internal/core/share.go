package core

import (
	"math/bits"

	"gpureach/internal/tlb"
)

// shareTable counts the keys of the sharing sample in one pass and
// without sorting: distinct keys, and shared keys (held by more than
// one CU). CUs add their keys in turn, all of one CU's keys before the
// next CU's, into an open-addressed table (linear probing, at most 3/4
// full) that flags each key the current CU holds. A key the current CU
// adds twice (from its L1 TLB and its LDS) finds its flag and counts
// once; a key an earlier CU added is shared.
type shareTable struct {
	keys  []tlb.Key
	flags []uint8 // slot j holds keys[j] when flags[j] != 0
	shift uint    // 64 - log2(len(keys)), for multiplicative hashing
	// mine lists the slots of the current CU's keys, whose slotMine
	// flags endCU clears.
	mine []int32

	distinct, shared int
}

const (
	slotLive = 1 << iota
	slotMine
	slotShared
)

// reset empties the table and its counts for up to n keys, keeping
// its storage when that holds them.
func (t *shareTable) reset(n int) {
	clear(t.flags)
	t.mine = t.mine[:0]
	t.distinct, t.shared = 0, 0
	t.fit(n)
}

// add records that the current CU holds k.
func (t *shareTable) add(k tlb.Key) {
	if 4*(t.distinct+1) > 3*len(t.keys) {
		t.fit(t.distinct + 1)
	}
	mask := len(t.keys) - 1
	for j := t.home(k); ; j = (j + 1) & mask {
		f := t.flags[j]
		switch {
		case f == 0:
			t.keys[j], t.flags[j] = k, slotLive|slotMine
			t.distinct++
		case t.keys[j] != k:
			continue
		case f&slotMine != 0:
			return
		default:
			if f&slotShared == 0 {
				t.shared++
			}
			t.flags[j] = f | slotMine | slotShared
		}
		t.mine = append(t.mine, int32(j))
		return
	}
}

// endCU closes the current CU's keys: the next CU's adds of them are
// shares.
func (t *shareTable) endCU() {
	for _, j := range t.mine {
		t.flags[j] &^= slotMine
	}
	t.mine = t.mine[:0]
}

// fit makes room for n keys at most 3/4 full, growing the table to the
// smallest power of two (256 slots at least) that does and reinserting
// its live entries.
func (t *shareTable) fit(n int) {
	if 4*n <= 3*len(t.keys) {
		return
	}
	size := 256
	for 4*n > 3*size {
		size *= 2
	}
	keys, flags := t.keys, t.flags
	t.keys, t.flags = make([]tlb.Key, size), make([]uint8, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.mine = t.mine[:0]
	for i, f := range flags {
		if f == 0 {
			continue
		}
		j := t.home(keys[i])
		for t.flags[j] != 0 {
			j = (j + 1) & (size - 1)
		}
		t.keys[j], t.flags[j] = keys[i], f
		if f&slotMine != 0 {
			t.mine = append(t.mine, int32(j))
		}
	}
}

// home is k's first probe slot (Fibonacci hashing, so strided page
// numbers still spread).
func (t *shareTable) home(k tlb.Key) int {
	return int((uint64(k) * 0x9E3779B97F4A7C15) >> t.shift)
}
