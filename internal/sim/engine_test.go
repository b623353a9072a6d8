package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(10, func() { order = append(order, 2) })
	e.At(5, func() { order = append(order, 1) })
	e.At(10, func() { order = append(order, 3) }) // same-cycle FIFO
	e.At(20, func() { order = append(order, 4) })
	e.Run()
	want := []int{1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("ran %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 20 {
		t.Errorf("Now() = %d, want 20", e.Now())
	}
	if e.EventsRun() != 4 {
		t.Errorf("EventsRun() = %d, want 4", e.EventsRun())
	}
}

func TestEngineAfterChains(t *testing.T) {
	e := NewEngine()
	var last Time
	var step func()
	n := 0
	step = func() {
		n++
		last = e.Now()
		if n < 5 {
			e.After(3, step)
		}
	}
	e.After(3, step)
	e.Run()
	if last != 15 {
		t.Errorf("final time = %d, want 15", last)
	}
}

func TestEnginePastSchedulePanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	for i := Time(1); i <= 10; i++ {
		e.At(i*10, func() { ran++ })
	}
	e.RunUntil(50)
	if ran != 5 {
		t.Errorf("ran %d events by cycle 50, want 5", ran)
	}
	if e.Pending() != 5 {
		t.Errorf("pending = %d, want 5", e.Pending())
	}
	e.Run()
	if ran != 10 {
		t.Errorf("ran %d total events, want 10", ran)
	}
}

func TestPortSerializes(t *testing.T) {
	e := NewEngine()
	p := NewPort(e, 4)
	g1 := p.Acquire()
	g2 := p.Acquire()
	g3 := p.Acquire()
	if g1 != 0 || g2 != 4 || g3 != 8 {
		t.Errorf("grants = %d,%d,%d, want 0,4,8", g1, g2, g3)
	}
	if p.Grants() != 3 {
		t.Errorf("Grants() = %d, want 3", p.Grants())
	}
}

func TestPortIdleGaps(t *testing.T) {
	e := NewEngine()
	p := NewPort(e, 1)
	p.RecordIdle()
	p.Acquire() // cycle 0
	e.At(10, func() { p.Acquire() })
	e.At(25, func() { p.Acquire() })
	e.Run()
	g := p.IdleGaps()
	if g.Count() != 2 {
		t.Fatalf("gap count = %d, want 2", g.Count())
	}
	// gap definition: grant - lastGrant - interval + 1 => 10 and 15.
	if g.Min() != 10 || g.Max() != 15 {
		t.Errorf("gaps min/max = %d/%d, want 10/15", g.Min(), g.Max())
	}
}

func TestPortAcquireAt(t *testing.T) {
	e := NewEngine()
	p := NewPort(e, 2)
	g1 := p.AcquireAt(7)
	g2 := p.AcquireAt(7)
	g3 := p.AcquireAt(20)
	if g1 != 7 || g2 != 9 || g3 != 20 {
		t.Errorf("grants = %d,%d,%d, want 7,9,20", g1, g2, g3)
	}
}

// TestPortRelaxClearsBacklog: a port hammered during fast-forward
// warming accumulates a fictitious backlog; Relax (via RelaxPorts)
// makes the next grant land at the current cycle as if the port had
// been idle.
func TestPortRelaxClearsBacklog(t *testing.T) {
	e := NewEngine()
	p := NewPort(e, 4)
	e.At(100, func() {
		for i := 0; i < 50; i++ {
			p.Acquire() // backlog reaches cycle 100+50*4
		}
	})
	e.At(120, func() {
		e.RelaxPorts()
		if g := p.Acquire(); g != 120 {
			t.Errorf("post-relax grant = %d, want 120 (now)", g)
		}
		// The invariant nextFree == lastGrant+Interval must hold again:
		// the following grant serializes normally.
		if g := p.Acquire(); g != 124 {
			t.Errorf("second post-relax grant = %d, want 124", g)
		}
	})
	e.Run()
}

// TestPortRelaxIdleAndEarly: relaxing an idle port is a no-op, and
// relaxing within the first Interval cycles never wraps the unsigned
// idle-gap arithmetic.
func TestPortRelaxIdleAndEarly(t *testing.T) {
	e := NewEngine()
	p := NewPort(e, 4)
	p.RecordIdle()
	p.Relax() // idle port at cycle 0: nothing to clear
	if g := p.Acquire(); g != 0 {
		t.Fatalf("grant after idle relax = %d, want 0", g)
	}
	p.Acquire() // backlog to cycle 8 while now is still 0 < Interval
	p.Relax()
	g := p.Acquire()
	if g > 4 {
		t.Fatalf("early relax left backlog beyond one interval: grant %d", g)
	}
	for i := 0; i < 4; i++ {
		p.Acquire()
	}
	if mx := p.IdleGaps().Max(); mx > 1 {
		t.Fatalf("idle gap wrapped after early relax: max %d", mx)
	}
}

// TestRelaxPortsReachesEveryPort: NewPort registers with the engine.
func TestRelaxPortsReachesEveryPort(t *testing.T) {
	e := NewEngine()
	var ports []*Port
	for i := 0; i < 5; i++ {
		p := NewPort(e, Time(i+1))
		for j := 0; j < 10; j++ {
			p.Acquire()
		}
		ports = append(ports, p)
	}
	e.At(10, func() {
		e.RelaxPorts()
		for i, p := range ports {
			if g := p.Acquire(); g != 10 {
				t.Errorf("port %d post-relax grant = %d, want 10", i, g)
			}
		}
	})
	e.Run()
}

func TestPortUtilization(t *testing.T) {
	e := NewEngine()
	p := NewPort(e, 1)
	for i := 0; i < 50; i++ {
		p.Acquire()
	}
	if u := p.Utilization(100); u != 0.5 {
		t.Errorf("utilization = %v, want 0.5", u)
	}
	if u := p.Utilization(10); u != 1 {
		t.Errorf("utilization should clamp to 1, got %v", u)
	}
	if u := p.Utilization(0); u != 0 {
		t.Errorf("utilization with zero elapsed = %v, want 0", u)
	}
}

func TestGapsSummary(t *testing.T) {
	g := NewGaps()
	for i := uint64(1); i <= 100; i++ {
		g.Record(i)
	}
	s := g.Summarize()
	if s.Min != 1 || s.Max != 100 {
		t.Errorf("min/max = %d/%d, want 1/100", s.Min, s.Max)
	}
	if s.Median < 45 || s.Median > 55 {
		t.Errorf("median = %d, want ~50", s.Median)
	}
	if s.Mean < 50 || s.Mean > 51 {
		t.Errorf("mean = %v, want 50.5", s.Mean)
	}
}

func TestGapsThinningPreservesShape(t *testing.T) {
	g := NewGaps()
	// Record far more than the cap; uniform distribution over [0,1000).
	for i := 0; i < 500000; i++ {
		g.Record(uint64(i % 1000))
	}
	if g.Count() != 500000 {
		t.Fatalf("count = %d", g.Count())
	}
	med := g.Quantile(0.5)
	if med < 400 || med > 600 {
		t.Errorf("median after thinning = %d, want ~500", med)
	}
	if len(g.samples) > gapsCap {
		t.Errorf("retained %d samples, cap %d", len(g.samples), gapsCap)
	}
}

func TestGapsEmpty(t *testing.T) {
	g := NewGaps()
	s := g.Summarize()
	if s.Min != 0 || s.Max != 0 || s.Median != 0 || s.Mean != 0 || s.Count != 0 {
		t.Errorf("empty summary should be all zero, got %+v", s)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 10 {
		t.Errorf("different seeds matched %d/1000 draws", same)
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed appears stuck at zero")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	f := func(n uint16) bool {
		bound := int(n%1000) + 1
		v := r.Intn(bound)
		return v >= 0 && v < bound
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(11)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestGapsQuantileEdges(t *testing.T) {
	g := NewGaps()
	for _, v := range []uint64{5, 1, 9, 3, 7} {
		g.Record(v)
	}
	if q := g.Quantile(0); q != 1 {
		t.Errorf("Quantile(0) = %d, want 1", q)
	}
	if q := g.Quantile(1); q != 9 {
		t.Errorf("Quantile(1) = %d, want 9", q)
	}
}
