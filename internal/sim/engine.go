// Package sim provides the discrete-event simulation engine that every
// timing model in gpureach runs on: an event queue ordered by cycle,
// pipelined ports with configurable initiation intervals, and small
// helpers for deterministic pseudo-randomness.
//
// The engine is deliberately single-threaded. GPU hardware is massively
// parallel, but a deterministic, repeatable simulation is worth far more
// for experiments than wall-clock parallelism, and the event volume for
// the paper's scaled-down configuration (Table 1) runs in seconds.
package sim

import (
	"fmt"
	"math/bits"
)

// Time is simulation time in GPU core cycles (2 GHz in the default
// configuration, though nothing in the engine depends on the frequency).
type Time uint64

// Handler is an event callback paired with its payload at dispatch.
// Scheduling a (Handler, ctx) pair with AtEvent is allocation-free when
// ctx is pointer-shaped (a pointer, a func value, or nil): both words
// store directly into the queue. This is the hot-path scheduling form;
// At/After wrap it for closure-style call sites.
type Handler func(ctx any)

// runClosure adapts the closure-style At/After API onto the handler
// form: the func value itself rides in the ctx word.
func runClosure(ctx any) { ctx.(func())() }

// The near-future calendar: a ring of calWindow per-cycle buckets.
// Events within calWindow cycles of now append to their cycle's bucket
// (O(1), no ordering work at all); farther events go to the binary
// heap. Every bucket is a FIFO list threaded through one shared slot
// arena, so the calendar's storage is sized by the peak number of
// pending near events, not by the ring width. calWindow must be a
// power of two and comfortably cover the model's common latencies
// (cache hits, TLB probes, DRAM bursts — all well under 1024 cycles) so
// the heap only sees rare long-range events (kernel launches,
// oversubscribed port grants).
const (
	calWindow = 16384
	calWords  = calWindow / 64

	// CalendarWindow mirrors calWindow for code outside the package
	// that needs to reason about the near/far boundary — typically
	// allocation tests warming every bucket index of the ring.
	CalendarWindow = calWindow
)

// calSlot is one calendar event in the slot arena. next links it to
// the following slot of its bucket (or of the free list); 0 ends a
// list, which is why arena index 0 is a never-used sentinel. Bucket
// order is append order; see Step for why that alone reproduces the
// (at, seq) total order.
type calSlot struct {
	h    Handler
	ctx  any
	next int32
}

// calBucket is one cycle's FIFO list in the slot arena: events append
// at tail and dispatch from head. A zero head means the bucket is empty.
type calBucket struct {
	head, tail int32
}

// heapEvent is one far-future event. seq breaks same-cycle ties so that
// events scheduled earlier run first, keeping runs deterministic.
type heapEvent struct {
	at  Time
	seq uint64
	h   Handler
	ctx any
}

func heapLess(a, b heapEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a discrete-event simulator clock and queue.
// The zero value is not usable; call NewEngine.
//
// Determinism contract: events run in exactly the (at, seq) order of
// the original single-heap engine, where seq is global scheduling
// order. The split queue preserves it structurally:
//
//   - Within one bucket, append order IS scheduling order.
//   - A heap event and a bucket event for the same cycle t cannot be
//     misordered: an event lands in the heap only while now ≤ t-calWindow
//     and in the bucket only while now > t-calWindow, and now is
//     monotone — so every heap event for t was scheduled before every
//     bucket event for t. Step drains heap events at t first.
//   - Handlers running at cycle t can only add same-cycle events to t's
//     bucket (t-now = 0 < calWindow), never to the heap, so the
//     heap-first rule stays valid while t's bucket drains.
type Engine struct {
	now    Time
	seq    uint64
	events uint64

	// buckets[t % calWindow] lists the near-future events for cycle t
	// as slots of the shared arena; free heads the LIFO list of
	// released slots; bits tracks non-empty buckets for O(words)
	// next-event scans; nearCount is the number of undispatched
	// calendar events.
	buckets   [calWindow]calBucket
	slots     []calSlot
	free      int32
	bits      [calWords]uint64
	nearCount int

	heap []heapEvent

	// ports lists every Port created on this engine, so a sampled run
	// can relax them all at a fast-forward boundary (see RelaxPorts).
	ports []*Port
}

// NewEngine returns an engine at cycle zero with an empty queue.
func NewEngine() *Engine {
	return &Engine{slots: make([]calSlot, 1)} // slots[0]: the nil index
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// EventsRun returns the number of events executed so far, useful for
// reporting simulation effort.
func (e *Engine) EventsRun() uint64 { return e.events }

// AtEvent schedules h(ctx) to run at absolute cycle t. Scheduling in
// the past is a programming error and panics: silently reordering time
// would corrupt every latency measurement downstream.
func (e *Engine) AtEvent(t Time, h Handler, ctx any) {
	if t < e.now {
		//gpureach:allow simerr -- this is the engine's own integrity check; the schedguard analyzer proves call sites can't reach it, and if one does the clock is already corrupt
		panic(fmt.Sprintf("sim: scheduling event in the past (at=%d, now=%d, %d events run)",
			t, e.now, e.events))
	}
	if t-e.now < calWindow {
		n := e.free
		if n != 0 {
			e.free = e.slots[n].next
			e.slots[n] = calSlot{h: h, ctx: ctx}
		} else {
			n = int32(len(e.slots))
			e.slots = append(e.slots, calSlot{h: h, ctx: ctx})
		}
		i := int(t % calWindow)
		b := &e.buckets[i]
		if b.tail == 0 {
			b.head = n
			e.bits[i>>6] |= 1 << uint(i&63)
		} else {
			e.slots[b.tail].next = n
		}
		b.tail = n
		e.nearCount++
		return
	}
	e.seq++
	e.heapPush(heapEvent{at: t, seq: e.seq, h: h, ctx: ctx})
}

// AfterEvent schedules h(ctx) to run d cycles from now.
func (e *Engine) AfterEvent(d Time, h Handler, ctx any) { e.AtEvent(e.now+d, h, ctx) }

// At schedules fn to run at absolute cycle t (closure-style wrapper
// over AtEvent; the func value rides in the ctx word, so the engine
// itself still does not allocate).
func (e *Engine) At(t Time, fn func()) {
	//gpureach:allow schedguard -- forwarding wrapper: AtEvent re-validates t against the clock
	e.AtEvent(t, runClosure, fn)
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Time, fn func()) { e.AtEvent(e.now+d, runClosure, fn) }

// Step runs the next event, advancing the clock to its time.
// It reports whether an event was run.
func (e *Engine) Step() bool {
	for {
		// Heap events for the current cycle first: they were scheduled
		// before any bucket event for this cycle (see the determinism
		// contract above).
		if len(e.heap) > 0 && e.heap[0].at == e.now {
			ev := e.heapPop()
			e.events++
			ev.h(ev.ctx)
			return true
		}
		ci := int(e.now % calWindow)
		b := &e.buckets[ci]
		if n := b.head; n != 0 {
			// Unlink the head slot and free it before dispatch: the
			// handler may schedule into this very bucket and reuse it.
			s := &e.slots[n]
			h, ctx := s.h, s.ctx
			b.head = s.next
			if b.head == 0 {
				// Drained: clear the occupancy bit before the clock can
				// move on, because index t%calWindow aliases cycle
				// t+calWindow.
				b.tail = 0
				e.bits[ci>>6] &^= 1 << uint(ci&63)
			}
			*s = calSlot{next: e.free} // release refs eagerly
			e.free = n
			e.nearCount--
			e.events++
			h(ctx)
			return true
		}
		t, ok := e.nextEventTime()
		if !ok {
			return false
		}
		e.now = t
	}
}

// nextEventTime returns the earliest pending event time strictly after
// the (drained) current cycle.
func (e *Engine) nextEventTime() (Time, bool) {
	have := false
	var t Time
	if len(e.heap) > 0 {
		t = e.heap[0].at
		have = true
	}
	if e.nearCount > 0 {
		if ct, ok := e.nextCalTime(); ok && (!have || ct < t) {
			t = ct
			have = true
		}
	}
	return t, have
}

// nextCalTime scans the occupancy bitmap for the nearest non-empty
// bucket in ring order starting at now+1. Every pending calendar event
// lies in (now, now+calWindow), so ring distance from now+1 recovers
// the absolute cycle unambiguously.
func (e *Engine) nextCalTime() (Time, bool) {
	base := e.now + 1
	start := int(base % calWindow)
	w := start >> 6
	mask := ^uint64(0) << uint(start&63)
	for i := 0; i <= calWords; i++ {
		wi := (w + i) % calWords
		if b := e.bits[wi] & mask; b != 0 {
			idx := wi<<6 + bits.TrailingZeros64(b)
			delta := (idx - start + calWindow) % calWindow
			return base + Time(delta), true
		}
		mask = ^uint64(0)
	}
	return 0, false
}

// peekTime returns the time of the next pending event without running
// it. A caller that goes on to run that event sets now to the returned
// time before calling Step, so each clock advance costs one bitmap scan
// (this one) rather than two.
func (e *Engine) peekTime() (Time, bool) {
	if e.buckets[e.now%calWindow].head != 0 {
		return e.now, true
	}
	if len(e.heap) > 0 && e.heap[0].at == e.now {
		return e.now, true
	}
	return e.nextEventTime()
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time ≤ limit. Events beyond the limit
// stay queued; the clock is left at the last executed event (or at limit
// if the queue drained earlier than the limit).
func (e *Engine) RunUntil(limit Time) {
	for {
		t, ok := e.peekTime()
		if !ok {
			if e.now < limit {
				e.now = limit
			}
			return
		}
		if t > limit {
			return
		}
		e.now = t
		e.Step()
	}
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.nearCount + len(e.heap) }

// heapPush inserts ev into the far-future heap (non-boxing sift-up).
func (e *Engine) heapPush(ev heapEvent) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !heapLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.heap = h
}

// heapPop removes and returns the minimum event (non-boxing sift-down).
func (e *Engine) heapPop() heapEvent {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = heapEvent{} // release refs eagerly
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && heapLess(h[r], h[l]) {
			m = r
		}
		if !heapLess(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	e.heap = h
	return top
}
