package tlb

import "gpureach/internal/sim"

// Coalescer merges concurrent translation requests to the same page, the
// way the hardware coalesces a SIMD unit's lane accesses and in-flight
// L1 misses (§2.1: "memory accesses targeting the same page are
// coalesced by the hardware"). The first requester for a key triggers
// the real lookup; later requesters for the same key ride along and are
// all completed together.
type Coalescer struct {
	inflight sim.Waiters[Key, waiter]
	// Merged counts requests that piggybacked on an in-flight miss.
	Merged uint64
	// Started counts misses that went down the memory system.
	Started uint64
}

// EntryHandler is the completion callback form used on the translation
// hot path: a plain function pointer plus a payload word, so joining a
// coalescer does not allocate a closure per request.
type EntryHandler func(ctx any, e Entry)

type waiter struct {
	h   EntryHandler
	ctx any
}

// NewCoalescer returns an empty coalescer.
func NewCoalescer() *Coalescer { return &Coalescer{} }

// JoinEvent registers h(ctx, entry) to run when key's translation
// resolves. It reports whether the caller is the first requester and
// must start the actual translation; subsequent callers are merged.
func (c *Coalescer) JoinEvent(key Key, h EntryHandler, ctx any) (first bool) {
	if !c.inflight.Wait(key, waiter{h: h, ctx: ctx}) {
		c.Merged++
		return false
	}
	c.Started++
	return true
}

// Complete resolves key with entry, invoking every waiter in join order.
// Completing a key with no waiters is a no-op (it can happen when a
// shootdown raced the completion and cleared the waiters).
func (c *Coalescer) Complete(key Key, entry Entry) {
	l, _ := c.inflight.Take(key)
	for w, ok := c.inflight.Pop(&l); ok; w, ok = c.inflight.Pop(&l) {
		w.h(w.ctx, entry)
	}
}

// Inflight returns the number of distinct keys currently outstanding.
func (c *Coalescer) Inflight() int { return c.inflight.Len() }
