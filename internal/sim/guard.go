package sim

import (
	"fmt"
	"sort"
)

// ErrorKind classifies a structured simulation failure.
type ErrorKind string

const (
	// ErrPageFault: a timing-path component dereferenced an unmapped
	// page (workload bug, or a chaos-injected unmap racing a walk).
	ErrPageFault ErrorKind = "page-fault"
	// ErrDeadlock: the event queue drained with work still outstanding.
	ErrDeadlock ErrorKind = "deadlock"
	// ErrWatchdog: a RunGuarded limit tripped (event budget, cycle
	// horizon, or no-forward-progress livelock detection).
	ErrWatchdog ErrorKind = "watchdog"
	// ErrInvariant: a live internal/check probe found a violated
	// invariant.
	ErrInvariant ErrorKind = "invariant-violation"
)

// QueueSnapshot captures the engine state at the moment of a failure so
// the error itself carries enough context to debug an injected-fault
// schedule: where the clock was, how much work had run, and what was
// about to run next.
type QueueSnapshot struct {
	Now       Time
	EventsRun uint64
	Pending   int
	// NextTimes holds the earliest few queued event times.
	NextTimes []Time
}

func (q QueueSnapshot) String() string {
	return fmt.Sprintf("cycle %d, %d events run, %d queued, next %v",
		q.Now, q.EventsRun, q.Pending, q.NextTimes)
}

// SimError is the structured failure every hardened component raises
// instead of crashing the process. Deep callbacks panic with a
// *SimError; core.Run recovers it at the simulation boundary and
// returns it as an ordinary error.
type SimError struct {
	Kind  ErrorKind
	Msg   string
	Queue QueueSnapshot
}

func (e *SimError) Error() string {
	return fmt.Sprintf("sim[%s] at %s: %s", e.Kind, e.Queue, e.Msg)
}

// Snapshot returns the current engine state with up to maxNext queued
// event times (sorted ascending).
func (e *Engine) Snapshot(maxNext int) QueueSnapshot {
	pending := e.Pending()
	times := make([]Time, 0, pending)
	for idx := range e.buckets {
		t := e.calCycle(idx)
		for n := e.buckets[idx].head; n != 0; n = e.slots[n].next {
			times = append(times, t)
		}
	}
	for i := range e.heap {
		times = append(times, e.heap[i].at)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	if len(times) > maxNext {
		times = times[:maxNext]
	}
	return QueueSnapshot{Now: e.now, EventsRun: e.events, Pending: pending, NextTimes: times}
}

// calCycle maps a bucket index back to the absolute cycle it currently
// represents: the unique t ∈ [now, now+calWindow) with t ≡ idx.
func (e *Engine) calCycle(idx int) Time {
	delta := (idx - int(e.now%calWindow) + calWindow) % calWindow
	return e.now + Time(delta)
}

// Failf panics with a *SimError stamped with the engine's current queue
// snapshot. Components deep inside event callbacks cannot return errors
// through the callback chain, so the convention is: panic here, recover
// exactly once at the core.Run boundary with RecoverSimError.
func (e *Engine) Failf(kind ErrorKind, format string, args ...interface{}) {
	panic(&SimError{Kind: kind, Msg: fmt.Sprintf(format, args...), Queue: e.Snapshot(4)})
}

// RecoverSimError converts a recovered *SimError panic into *err.
// Any other panic value is re-raised: only structured simulation
// failures are demoted to errors, genuine bugs still crash.
//
//	func Run(...) (res Results, err error) {
//	    defer sim.RecoverSimError(&err)
//	    ...
//	}
func RecoverSimError(err *error) {
	r := recover()
	if r == nil {
		return
	}
	if se, ok := r.(*SimError); ok {
		*err = se
		return
	}
	//gpureach:allow simerr -- re-raising a foreign panic value unchanged: only structured failures are demoted to errors, genuine bugs still crash
	panic(r)
}

// GuardConfig bounds a guarded engine run. Zero values disable the
// corresponding check; the zero GuardConfig is equivalent to Run().
// All fields are comparable scalars so configs embedding a GuardConfig
// stay usable as map keys.
type GuardConfig struct {
	// MaxEvents aborts after this many events executed by one
	// RunGuarded call.
	MaxEvents uint64
	// MaxCycles aborts when the next event lies beyond this absolute
	// cycle.
	MaxCycles Time
	// NoProgressEvents aborts after this many consecutive events ran
	// without the clock advancing — the signature of a self-rearming
	// same-cycle livelock, which MaxEvents alone would only catch after
	// burning the whole budget.
	NoProgressEvents uint64
}

// RunGuarded executes events until the queue is empty, like Run, but
// under the given watchdog limits. On a trip it stops immediately and
// returns a *SimError (kind ErrWatchdog) carrying a queue snapshot;
// remaining events stay queued for inspection.
func (e *Engine) RunGuarded(g GuardConfig) error {
	if g == (GuardConfig{}) {
		e.Run()
		return nil
	}
	start := e.events
	lastNow := e.now
	var sameCycle uint64
	for {
		next, ok := e.peekTime()
		if !ok {
			return nil
		}
		if g.MaxEvents > 0 && e.events-start >= g.MaxEvents {
			return e.watchdogErr("event budget of %d exhausted", g.MaxEvents)
		}
		if g.MaxCycles > 0 && next > g.MaxCycles {
			return e.watchdogErr("cycle horizon %d exceeded (next event at %d)", g.MaxCycles, next)
		}
		// Move the clock to the event peekTime found, so Step dispatches
		// it at once instead of scanning the calendar a second time.
		e.now = next
		e.Step()
		if e.now != lastNow {
			lastNow = e.now
			sameCycle = 0
			continue
		}
		sameCycle++
		if g.NoProgressEvents > 0 && sameCycle >= g.NoProgressEvents {
			return e.watchdogErr("no forward progress: %d consecutive events at cycle %d", sameCycle, e.now)
		}
	}
}

func (e *Engine) watchdogErr(format string, args ...interface{}) *SimError {
	return &SimError{Kind: ErrWatchdog, Msg: fmt.Sprintf(format, args...), Queue: e.Snapshot(4)}
}
