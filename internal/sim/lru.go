package sim

import "fmt"

// LRU is the true-LRU recency order of a set-associative structure:
// per set, a doubly-linked list of way indices from most to least
// recently used. The TLBs, the data caches and the walker's page-walk
// caches keep it beside their tag arrays, so a hit or a refresh moves
// one way to the front and a full set's victim is the list's tail,
// each in O(1), where a per-way LRU stamp needs a scan over the set to
// find its minimum.
//
// Links are 16-bit way indices within the set, so a way costs 4 bytes
// and a set 8. A set's list is delimited by its head, tail and member
// count alone, not by sentinels: the zero value of both arrays is an
// empty order for every set, and NewLRU does no initialisation pass.
//
// LRU tracks only order, not which ways hold data: Add must name a way
// that is not in its set's order, and Touch and Remove one that is. It
// is not concurrency-safe; it belongs to the single-threaded engine's
// structures.
type LRU struct {
	links []lruLink // way i of set s is links[s*ways+i]
	sets  []lruSet
	ways  int
}

// maxLRUWays is the most ways a set can have with 16-bit links.
const maxLRUWays = 1 << 16

type lruLink struct {
	prev, next uint16 // towards the head (MRU) and the tail (LRU)
}

type lruSet struct {
	head, tail uint16 // MRU and LRU way; meaningful only when n > 0
	n          int32
}

// NewLRU returns an empty order over sets sets of ways ways each. It
// panics if a dimension is negative or a set has more than 65,536 ways.
func NewLRU(sets, ways int) LRU {
	if sets < 0 || ways < 0 || ways > maxLRUWays {
		panic(fmt.Sprintf("sim: bad LRU geometry sets=%d ways=%d", sets, ways))
	}
	return LRU{links: make([]lruLink, sets*ways), sets: make([]lruSet, sets), ways: ways}
}

// Len returns the number of ways in set s's order.
func (l *LRU) Len(s int) int { return int(l.sets[s].n) }

// Oldest returns set s's least recently used way. The set must not be
// empty.
func (l *LRU) Oldest(s int) int { return int(l.sets[s].tail) }

// Add makes way w, not yet in set s's order, its most recently used.
func (l *LRU) Add(s, w int) {
	st := &l.sets[s]
	ls := l.links[s*l.ways:]
	if st.n == 0 {
		st.tail = uint16(w)
	} else {
		ls[st.head].prev = uint16(w)
	}
	ls[w].next = st.head
	st.head = uint16(w)
	st.n++
}

// Touch makes way w, already in set s's order, its most recently used.
// It runs on every hit, so its body stays within the compiler's
// inlining budget.
func (l *LRU) Touch(s, w int) {
	st := &l.sets[s]
	if int(st.head) == w {
		return
	}
	ls := l.links[s*l.ways:]
	ln := &ls[w]
	ls[ln.prev].next = ln.next // w is not the head: it has a predecessor
	if int(st.tail) == w {
		st.tail = ln.prev
	} else {
		ls[ln.next].prev = ln.prev
	}
	ls[st.head].prev = uint16(w)
	ln.next = st.head
	st.head = uint16(w)
}

// Remove takes way w out of set s's order.
func (l *LRU) Remove(s, w int) {
	st := &l.sets[s]
	ls := l.links[s*l.ways:]
	ln := ls[w]
	if int(st.head) == w {
		st.head = ln.next
	} else {
		ls[ln.prev].next = ln.next
	}
	if int(st.tail) == w {
		st.tail = ln.prev
	} else {
		ls[ln.next].prev = ln.prev
	}
	st.n--
}

// Reset empties every set's order. It clears only the per-set headers;
// a way's stale links are overwritten when it is next added.
func (l *LRU) Reset() { clear(l.sets) }
