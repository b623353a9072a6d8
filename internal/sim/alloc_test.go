package sim

import (
	"testing"
)

// warmEngine grows the engine's internal storage so steady-state
// measurements see no growth allocations: a burst of 16 events on each
// of 2*calWindow consecutive cycles grows the calendar's slot arena to
// well past any test's peak of pending near events (released slots are
// reused through the free list, so the arena never shrinks), and the
// events beyond the window grow the overflow heap's backing array.
func warmEngine(e *Engine, h Handler) {
	const depth = 16
	for d := 0; d < depth; d++ {
		for i := 0; i < 2*calWindow; i++ {
			e.AtEvent(e.Now()+Time(i)+1, h, nil)
		}
	}
	e.Run()
}

// TestEngineSteadyStateZeroAllocs guards the engine's core contract:
// scheduling and running events through AtEvent/AfterEvent with
// pointer-shaped contexts allocates nothing once warm. Any regression
// here multiplies by the millions of events per run.
func TestEngineSteadyStateZeroAllocs(t *testing.T) {
	e := NewEngine()
	nop := Handler(func(any) {})
	warmEngine(e, nop)

	ctx := &struct{ n int }{}
	h := Handler(func(c any) { c.(*struct{ n int }).n++ })

	allocs := testing.AllocsPerRun(100, func() {
		// Near-future (bucket) events, including same-cycle bursts...
		for i := 0; i < 64; i++ {
			e.AtEvent(e.Now()+Time(i%8), h, ctx)
		}
		// ...and far-future (heap) events.
		for i := 0; i < 16; i++ {
			e.AfterEvent(Time(calWindow+i*37), h, ctx)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("engine steady state allocated %.1f times per run; the contract is 0", allocs)
	}

	// A port that does not record idle gaps keeps no samples, however
	// many idle cycles its grants straddle. One long run per
	// measurement, because AllocsPerRun's integer average would hide a
	// sample slice's amortized growth.
	port := NewPort(e, 2)
	next := e.Now()
	allocs = testing.AllocsPerRun(1, func() {
		for i := 0; i < 4096; i++ {
			next += 5
			port.AcquireAt(next)
		}
	})
	if allocs != 0 {
		t.Fatalf("idle grants on a non-recording port allocated %.1f times per run; the contract is 0", allocs)
	}
}

// TestPoolReuseZeroAllocs guards the free-list pool: a warm Get/Put
// cycle must not allocate.
func TestPoolReuseZeroAllocs(t *testing.T) {
	type req struct{ a, b uint64 }
	var p Pool[req]
	// Warm: one object in the free list.
	p.Put(p.Get())
	allocs := testing.AllocsPerRun(100, func() {
		r := p.Get()
		r.a, r.b = 1, 2
		p.Put(r)
	})
	if allocs != 0 {
		t.Fatalf("warm pool allocated %.1f times per Get/Put; the contract is 0", allocs)
	}
}

// BenchmarkEngineAtEvent: schedule+run near-future events (the bucket
// fast path) — the shape of almost all simulator traffic.
func BenchmarkEngineAtEvent(b *testing.B) {
	e := NewEngine()
	h := Handler(func(any) {})
	warmEngine(e, h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AtEvent(e.Now()+Time(i%64+1), h, nil)
		if i%64 == 63 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkEngineSameCycleStorm: many events on one cycle (coalescer
// bursts, wave storms) stress bucket append/drain order bookkeeping.
func BenchmarkEngineSameCycleStorm(b *testing.B) {
	e := NewEngine()
	h := Handler(func(any) {})
	warmEngine(e, h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 256 {
		at := e.Now() + 1
		for j := 0; j < 256 && i+j < b.N; j++ {
			e.AtEvent(at, h, nil)
		}
		e.Run()
	}
}

// BenchmarkEngineFarFuture: events beyond the calendar window exercise
// the overflow heap (DRAM-latency and refresh-horizon traffic).
func BenchmarkEngineFarFuture(b *testing.B) {
	e := NewEngine()
	h := Handler(func(any) {})
	warmEngine(e, h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 64 {
		for j := 0; j < 64 && i+j < b.N; j++ {
			e.AfterEvent(Time(calWindow+(j*977)%(4*calWindow)), h, nil)
		}
		e.Run()
	}
}

// BenchmarkRunGuardedSparse: four self-rearming event chains spaced
// hundreds of cycles apart, run under the default watchdog as every
// simulation is. Nearly every event starts a drained cycle, so the
// cost per event is the guarded loop's calendar scan to the next one.
func BenchmarkRunGuardedSparse(b *testing.B) {
	e := NewEngine()
	left := b.N
	var h Handler
	h = func(any) {
		if left > 0 {
			left--
			e.AfterEvent(Time(300+left*7919%700), h, nil)
		}
	}
	for c := 0; c < 4; c++ {
		e.AtEvent(Time(c*37), h, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.RunGuarded(GuardConfig{NoProgressEvents: 5_000_000}); err != nil {
		b.Fatal(err)
	}
}
