package sim

import "math/bits"

// Waiters tracks requests merged onto in-flight work, keyed by what
// they wait for: the TLB coalescer's page translations, the data
// caches' MSHRs and the I-cache's line fills all use it. Each open key
// owns a FIFO WaitList; every list is threaded through one node arena
// with a LIFO free list, the calendar's slot-arena pattern. Storage
// therefore grows to the peak number of waiting requests and is then
// reused: a warm table joins and drains without allocating.
//
// Open keys live in an open-addressed table the struct owns: 16-byte
// slots holding a key and its WaitList, found by linear probing from a
// Fibonacci hash of the key. A slot whose list tail is 0 is empty; a
// key open with no waiters yet has tail -1 (node indices start at 1),
// so the zero slot, and the zero Waiters, need no initialisation. The
// table is a power of two, doubles at ¾ load, and deletes by shifting
// the rest of the probe run back, so no tombstones build up.
//
// The arena grows in fixed chunks rather than by reallocating one
// slice: growth never copies nodes and allocates at most one chunk
// beyond the peak.
//
// The zero value is ready to use. Waiters is not concurrency-safe; it
// belongs to the single-threaded engine's event handlers.
type Waiters[K ~uint64, T any] struct {
	slots  []waitSlot[K] // len is 0 or a power of two
	shift  uint8         // 64 − log2(len(slots)): hash bits to drop
	live   int           // open keys
	chunks []*[waitChunk]waitNode[T]
	used   int32 // nodes ever handed out, the nil index included
	free   int32
}

const (
	waitChunkBits = 7
	waitChunk     = 1 << waitChunkBits

	// waitMinSlots is the table size a first Open or Wait builds.
	waitMinSlots = 16
	// fibMul is 2^64 / φ, the Fibonacci-hashing multiplier: it spreads
	// line and page numbers with regular strides over the top bits.
	fibMul = 0x9E3779B97F4A7C15
	// openEmpty is the tail of a key that is open with no waiters.
	openEmpty = -1
)

// WaitList is one key's FIFO of waiters: head and tail index the
// arena's nodes, and a zero head means the list is empty (node 0 is a
// never-used sentinel).
type WaitList struct {
	head, tail int32
}

type waitSlot[K ~uint64] struct {
	key  K
	list WaitList
}

type waitNode[T any] struct {
	v    T
	next int32
}

// Busy reports whether key is open.
func (w *Waiters[K, T]) Busy(key K) bool {
	_, ok := w.find(key)
	return ok
}

// Open marks key in flight with no waiters yet. It reports false, and
// changes nothing, when key is already open.
func (w *Waiters[K, T]) Open(key K) bool {
	i, ok := w.find(key)
	if ok {
		return false
	}
	w.claim(i, key).tail = openEmpty
	return true
}

// Wait appends v to key's list, opening key if it is not open. It
// reports whether this call opened key.
func (w *Waiters[K, T]) Wait(key K, v T) (opened bool) {
	i, busy := w.find(key)
	if busy {
		w.push(&w.slots[i].list, v)
		return false
	}
	w.push(w.claim(i, key), v)
	return true
}

// Take closes key and returns its list for draining with Pop; ok is
// false (and nothing changes) when key is not open. Closing before
// the drain means a waiter that joins key again from its handler opens
// a new in-flight entry rather than extending the one being drained.
func (w *Waiters[K, T]) Take(key K) (l WaitList, ok bool) {
	i, ok := w.find(key)
	if !ok {
		return WaitList{}, false
	}
	l = w.slots[i].list
	w.remove(i)
	return l, true
}

// Pop removes and returns the first waiter of l, a list obtained from
// Take; ok is false when l is empty. The node is released before Pop
// returns, so the caller may run the waiter's handler straight away
// even if that handler joins this table.
func (w *Waiters[K, T]) Pop(l *WaitList) (v T, ok bool) {
	n := l.head
	if n == 0 {
		return v, false
	}
	node := w.node(n)
	v, l.head = node.v, node.next
	if l.head == 0 {
		l.tail = 0
	}
	*node = waitNode[T]{next: w.free} // release refs eagerly
	w.free = n
	return v, true
}

// Len returns the number of open keys.
func (w *Waiters[K, T]) Len() int { return w.live }

// home returns the slot key's probe run starts at.
func (w *Waiters[K, T]) home(key K) int {
	return int(uint64(key) * fibMul >> w.shift)
}

// find returns key's slot and true, or false and the empty slot that
// ends key's probe run (-1 when the table is not built yet).
func (w *Waiters[K, T]) find(key K) (int, bool) {
	if len(w.slots) == 0 {
		return -1, false
	}
	mask := len(w.slots) - 1
	for i := w.home(key); ; i = (i + 1) & mask {
		s := &w.slots[i]
		if s.list.tail == 0 {
			return i, false
		}
		if s.key == key {
			return i, true
		}
	}
}

// claim opens key in slot i, the empty slot find returned for it,
// growing the table first when the new key would take it past ¾
// load. It returns the key's (empty) list.
func (w *Waiters[K, T]) claim(i int, key K) *WaitList {
	if 4*(w.live+1) > 3*len(w.slots) {
		w.grow()
		i, _ = w.find(key)
	}
	w.live++
	s := &w.slots[i]
	s.key = key
	return &s.list
}

// grow doubles the table (or builds the first one) and re-inserts
// every open key.
func (w *Waiters[K, T]) grow() {
	old := w.slots
	n := 2 * len(old)
	if n == 0 {
		n = waitMinSlots
	}
	w.slots = make([]waitSlot[K], n)
	w.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	mask := n - 1
	for _, s := range old {
		if s.list.tail == 0 {
			continue
		}
		i := w.home(s.key)
		for w.slots[i].list.tail != 0 {
			i = (i + 1) & mask
		}
		w.slots[i] = s
	}
}

// remove empties slot i, then walks the rest of its probe run and
// shifts back each entry whose home lies at or before the hole, so
// every key stays reachable from its home without tombstones.
func (w *Waiters[K, T]) remove(i int) {
	mask := len(w.slots) - 1
	for j := (i + 1) & mask; w.slots[j].list.tail != 0; j = (j + 1) & mask {
		// Entry j may fill the hole at i when its probe distance is at
		// least the hole's distance behind it.
		if (j-w.home(w.slots[j].key))&mask >= (j-i)&mask {
			w.slots[i] = w.slots[j]
			i = j
		}
	}
	w.slots[i] = waitSlot[K]{}
	w.live--
}

// node returns arena node i.
func (w *Waiters[K, T]) node(i int32) *waitNode[T] {
	return &w.chunks[i>>waitChunkBits][i&(waitChunk-1)]
}

// push appends v at l's tail, reusing a free node when there is one.
func (w *Waiters[K, T]) push(l *WaitList, v T) {
	n := w.free
	if n != 0 {
		w.free = w.node(n).next
	} else {
		if w.used == 0 {
			w.used = 1 // node 0 is the nil index
		}
		if int(w.used>>waitChunkBits) == len(w.chunks) {
			w.chunks = append(w.chunks, new([waitChunk]waitNode[T]))
		}
		n = w.used
		w.used++
	}
	*w.node(n) = waitNode[T]{v: v}
	if l.tail <= 0 { // empty: never used, or opened with no waiters
		l.head = n
	} else {
		w.node(l.tail).next = n
	}
	l.tail = n
}
