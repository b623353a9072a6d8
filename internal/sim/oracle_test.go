package sim

import (
	"container/heap"
	"math/rand"
	"strings"
	"testing"
)

// This file keeps the engine's original scheduling core — one boxed
// container/heap ordered by (at, seq) — as a test oracle, and checks
// that the calendar+heap queue dequeues randomized workloads in exactly
// the same order. The (at, seq) total order is the determinism contract
// every result in the repo depends on.

type oracleEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type oracleHeap []oracleEvent

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)   { *h = append(*h, x.(oracleEvent)) }
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old) - 1
	e := old[n]
	*h = old[:n]
	return e
}

// oracleEngine replicates the pre-calendar engine semantics.
type oracleEngine struct {
	now Time
	seq uint64
	h   oracleHeap
}

func (o *oracleEngine) At(t Time, fn func()) {
	if t < o.now {
		//gpureach:allow simerr -- test oracle mirrors the engine's own past-scheduling integrity panic
		panic("oracle: scheduling event in the past")
	}
	o.seq++
	heap.Push(&o.h, oracleEvent{at: t, seq: o.seq, fn: fn})
}

func (o *oracleEngine) Now() Time { return o.now }

func (o *oracleEngine) Run() {
	for o.h.Len() > 0 {
		ev := heap.Pop(&o.h).(oracleEvent)
		o.now = ev.at
		ev.fn()
	}
}

func (o *oracleEngine) RunUntil(limit Time) {
	for o.h.Len() > 0 && o.h[0].at <= limit {
		ev := heap.Pop(&o.h).(oracleEvent)
		o.now = ev.at
		ev.fn()
	}
	// Like Engine.RunUntil, the clock coasts to limit only on a fully
	// drained queue; with events still pending past limit it stays at
	// the last executed event.
	if o.h.Len() == 0 && o.now < limit {
		o.now = limit
	}
}

// scheduler is the least common API of Engine and oracleEngine.
type scheduler interface {
	At(t Time, fn func())
	Now() Time
}

type execRecord struct {
	id int
	at Time
}

// runProgram executes a deterministic randomized event program on s:
// roots are scheduled at their absolute times, and every executed event
// schedules children at offsets derived purely from its id (including
// same-cycle offsets and far-future offsets that cross the calendar
// window). The returned log of (id, Now()) pairs is the observable
// dequeue order.
func runProgram(s scheduler, roots []Time, seed int64, spawnLimit int, drain func()) []execRecord {
	var log []execRecord
	next := len(roots)
	var handler func(id int) func()
	handler = func(id int) func() {
		return func() {
			log = append(log, execRecord{id: id, at: s.Now()})
			if id >= spawnLimit {
				return
			}
			rng := rand.New(rand.NewSource(seed ^ int64(id)*0x9E3779B9))
			for k := rng.Intn(4); k > 0; k-- {
				var off Time
				switch rng.Intn(5) {
				case 0:
					off = 0 // same-cycle storm from inside a handler
				case 1:
					off = Time(rng.Intn(8))
				case 2:
					off = Time(rng.Intn(400))
				case 3:
					off = Time(calWindow - 2 + rng.Intn(5)) // straddle the window edge
				default:
					off = Time(rng.Intn(3 * calWindow)) // deep heap territory
				}
				cid := next
				next++
				s.At(s.Now()+off, handler(cid))
			}
		}
	}
	for i, t := range roots {
		s.At(t, handler(i))
	}
	drain()
	return log
}

// makeRoots builds the initial event set: scattered singles plus a
// same-cycle storm at one hot cycle.
func makeRoots(rng *rand.Rand) []Time {
	var roots []Time
	for i := 0; i < 40; i++ {
		roots = append(roots, Time(rng.Intn(2000)))
	}
	storm := Time(rng.Intn(500))
	for i := 0; i < 64; i++ {
		roots = append(roots, storm)
	}
	return roots
}

func compareLogs(t *testing.T, seed int64, got, want []execRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("seed %d: engine ran %d events, oracle %d", seed, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("seed %d: divergence at event %d: engine ran id=%d at=%d, oracle id=%d at=%d",
				seed, i, got[i].id, got[i].at, want[i].id, want[i].at)
		}
	}
}

// TestQueueMatchesHeapOracle: full-drain runs under randomized seeded
// workloads must dequeue in exactly the oracle's (at, seq) order.
func TestQueueMatchesHeapOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		roots := makeRoots(rng)

		eng := NewEngine()
		got := runProgram(eng, roots, seed, 4000, eng.Run)

		ora := &oracleEngine{}
		want := runProgram(ora, roots, seed, 4000, ora.Run)

		compareLogs(t, seed, got, want)
		if eng.Now() != ora.Now() {
			t.Fatalf("seed %d: final clock %d, oracle %d", seed, eng.Now(), ora.Now())
		}
		if eng.Pending() != 0 {
			t.Fatalf("seed %d: %d events left pending after Run", seed, eng.Pending())
		}
	}
}

// TestQueueMatchesOracleAcrossRunUntil: draining in randomized RunUntil
// chunks (limits landing between, on, and past event times) must
// preserve the order and the clock at every boundary.
func TestQueueMatchesOracleAcrossRunUntil(t *testing.T) {
	for seed := int64(11); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		roots := makeRoots(rng)
		// One shared list of limits, increasing, crossing the calendar
		// window several times.
		var limits []Time
		cur := Time(0)
		for i := 0; i < 50; i++ {
			cur += Time(rng.Intn(calWindow))
			limits = append(limits, cur)
		}

		eng := NewEngine()
		ora := &oracleEngine{}
		var clocks []Time
		got := runProgram(eng, roots, seed, 2000, func() {
			for _, lim := range limits {
				eng.RunUntil(lim)
				clocks = append(clocks, eng.Now())
			}
			eng.Run() // drain the tail
		})
		var oraClocks []Time
		want := runProgram(ora, roots, seed, 2000, func() {
			for _, lim := range limits {
				ora.RunUntil(lim)
				oraClocks = append(oraClocks, ora.Now())
			}
			ora.Run()
		})

		compareLogs(t, seed, got, want)
		for i := range clocks {
			if clocks[i] != oraClocks[i] {
				t.Fatalf("seed %d: after RunUntil(%d) clock=%d, oracle=%d",
					seed, limits[i], clocks[i], oraClocks[i])
			}
		}
	}
}

// TestAtEventMatchesOracle drives the engine through the raw
// (Handler, ctx) form — the hot-path API — instead of the closure
// wrapper, against the same oracle.
func TestAtEventMatchesOracle(t *testing.T) {
	type node struct {
		id  int
		eng *Engine
		log *[]execRecord
	}
	const n = 300
	seed := int64(99)

	offsets := func(id int) []Time {
		rng := rand.New(rand.NewSource(seed ^ int64(id)))
		var offs []Time
		for k := rng.Intn(3); k > 0; k-- {
			offs = append(offs, Time(rng.Intn(2*calWindow)))
		}
		return offs
	}

	eng := NewEngine()
	var got []execRecord
	next := n
	var h Handler
	h = func(ctx any) {
		nd := ctx.(*node)
		*nd.log = append(*nd.log, execRecord{id: nd.id, at: nd.eng.Now()})
		if nd.id >= 2000 {
			return
		}
		for _, off := range offsets(nd.id) {
			child := &node{id: next, eng: nd.eng, log: nd.log}
			next++
			nd.eng.AtEvent(nd.eng.Now()+off, h, child)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var roots []Time
	for i := 0; i < n; i++ {
		roots = append(roots, Time(rng.Intn(1000)))
	}
	for i, at := range roots {
		eng.AtEvent(at, h, &node{id: i, eng: eng, log: &got})
	}
	eng.Run()

	ora := &oracleEngine{}
	var want []execRecord
	oNext := n
	var oh func(id int) func()
	oh = func(id int) func() {
		return func() {
			want = append(want, execRecord{id: id, at: ora.Now()})
			if id >= 2000 {
				return
			}
			for _, off := range offsets(id) {
				cid := oNext
				oNext++
				ora.At(ora.Now()+off, oh(cid))
			}
		}
	}
	for i, at := range roots {
		ora.At(at, oh(i))
	}
	ora.Run()

	compareLogs(t, seed, got, want)
}

// refRunGuarded is RunGuarded as it was before the guarded loop moved
// the clock itself: peekTime finds the next event and then Step, on a
// drained cycle, scans the calendar for it a second time. It is the
// reference TestRunGuardedMatchesReference holds the one-scan loop to.
func refRunGuarded(e *Engine, g GuardConfig) error {
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

// TestRunGuardedMatchesReference runs randomized near, far and
// same-cycle programs under every combination of guard settings (each
// limit off, tripping mid-run, or never reached) and requires the
// guarded loop to dispatch in the reference loop's order and to end in
// the same state: clock, events run, events pending, and a tripped
// watchdog's error text, queue snapshot included. Runs no guard stops
// must also match the heap oracle's order and final clock.
func TestRunGuardedMatchesReference(t *testing.T) {
	const never = 1 << 40
	var guards []GuardConfig
	for _, maxEvents := range []uint64{0, 1500, never} {
		for _, maxCycles := range []Time{0, 20_000, never} {
			for _, noProgress := range []uint64{0, 8, never} {
				guards = append(guards, GuardConfig{
					MaxEvents: maxEvents, MaxCycles: maxCycles, NoProgressEvents: noProgress,
				})
			}
		}
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	trips := map[string]int{}
	for seed := int64(21); seed <= 23; seed++ {
		roots := makeRoots(rand.New(rand.NewSource(seed)))
		ora := &oracleEngine{}
		want := runProgram(ora, roots, seed, 2000, ora.Run)
		for _, g := range guards {
			eng, ref := NewEngine(), NewEngine()
			var err, refErr error
			got := runProgram(eng, roots, seed, 2000, func() { err = eng.RunGuarded(g) })
			refLog := runProgram(ref, roots, seed, 2000, func() { refErr = refRunGuarded(ref, g) })
			compareLogs(t, seed, got, refLog)
			if errText(err) != errText(refErr) {
				t.Fatalf("seed %d, %+v: error %q, reference %q", seed, g, errText(err), errText(refErr))
			}
			if eng.Now() != ref.Now() || eng.EventsRun() != ref.EventsRun() || eng.Pending() != ref.Pending() {
				t.Fatalf("seed %d, %+v: ended at cycle %d with %d run, %d pending; reference cycle %d, %d run, %d pending",
					seed, g, eng.Now(), eng.EventsRun(), eng.Pending(), ref.Now(), ref.EventsRun(), ref.Pending())
			}
			if err != nil {
				for _, limit := range []string{"event budget", "cycle horizon", "no forward progress"} {
					if strings.Contains(err.Error(), limit) {
						trips[limit]++
					}
				}
				continue
			}
			compareLogs(t, seed, got, want)
			if eng.Now() != ora.Now() {
				t.Fatalf("seed %d, %+v: final clock %d, oracle %d", seed, g, eng.Now(), ora.Now())
			}
		}
	}
	if len(trips) != 3 {
		t.Fatalf("watchdog trips by limit %v: every limit must trip in some combination", trips)
	}
}
