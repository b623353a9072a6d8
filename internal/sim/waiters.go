package sim

// Waiters tracks requests merged onto in-flight work, keyed by what
// they wait for: the TLB coalescer's page translations, the data
// caches' MSHRs and the I-cache's line fills all use it. Each open key
// owns a FIFO WaitList; every list is threaded through one node arena
// with a LIFO free list, the calendar's slot-arena pattern. Storage
// therefore grows to the peak number of waiting requests and is then
// reused: a warm table joins and drains without allocating.
//
// The arena grows in fixed chunks rather than by reallocating one
// slice: growth never copies nodes and allocates at most one chunk
// beyond the peak.
//
// The zero value is ready to use. Waiters is not concurrency-safe; it
// belongs to the single-threaded engine's event handlers.
type Waiters[K comparable, T any] struct {
	open   map[K]WaitList
	chunks []*[waitChunk]waitNode[T]
	used   int32 // nodes ever handed out, the nil index included
	free   int32
}

const (
	waitChunkBits = 7
	waitChunk     = 1 << waitChunkBits
)

// WaitList is one key's FIFO of waiters: head and tail index the
// arena's nodes, and a zero head means the list is empty (node 0 is a
// never-used sentinel).
type WaitList struct {
	head, tail int32
}

type waitNode[T any] struct {
	v    T
	next int32
}

// Busy reports whether key is open.
func (w *Waiters[K, T]) Busy(key K) bool {
	_, ok := w.open[key]
	return ok
}

// Open marks key in flight with no waiters yet. It reports false, and
// changes nothing, when key is already open.
func (w *Waiters[K, T]) Open(key K) bool {
	if w.Busy(key) {
		return false
	}
	if w.open == nil {
		w.open = make(map[K]WaitList)
	}
	w.open[key] = WaitList{}
	return true
}

// Wait appends v to key's list, opening key if it is not open. It
// reports whether this call opened key.
func (w *Waiters[K, T]) Wait(key K, v T) (opened bool) {
	l, busy := w.open[key]
	if !busy && w.open == nil {
		w.open = make(map[K]WaitList)
	}
	w.push(&l, v)
	w.open[key] = l
	return !busy
}

// Take closes key and returns its list for draining with Pop; ok is
// false (and nothing changes) when key is not open. Closing before
// the drain means a waiter that joins key again from its handler opens
// a new in-flight entry rather than extending the one being drained.
func (w *Waiters[K, T]) Take(key K) (l WaitList, ok bool) {
	if l, ok = w.open[key]; ok {
		delete(w.open, key)
	}
	return l, ok
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
func (w *Waiters[K, T]) Len() int { return len(w.open) }

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
	if l.tail == 0 {
		l.head = n
	} else {
		w.node(l.tail).next = n
	}
	l.tail = n
}
