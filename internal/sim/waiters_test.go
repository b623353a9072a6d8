package sim

import (
	"math/rand"
	"testing"
)

// drain closes key and returns its waiters in the order Pop yields them.
func drain(w *Waiters[uint64, int], key uint64) []int {
	var got []int
	l, _ := w.Take(key)
	for v, ok := w.Pop(&l); ok; v, ok = w.Pop(&l) {
		got = append(got, v)
	}
	return got
}

// Waiters drain in join order, per key, across arena chunk boundaries
// and with other keys' lists interleaved in the arena.
func TestWaitersFIFO(t *testing.T) {
	var w Waiters[uint64, int]
	const n = 3 * waitChunk
	for i := 0; i < n; i++ {
		opened := w.Wait(uint64(i%2), i)
		if opened != (i < 2) {
			t.Fatalf("Wait(%d, %d) opened=%v", i%2, i, opened)
		}
	}
	if w.Len() != 2 || !w.Busy(0) || !w.Busy(1) {
		t.Fatalf("Len=%d Busy(0)=%v Busy(1)=%v, want 2 open keys", w.Len(), w.Busy(0), w.Busy(1))
	}
	for key := 0; key < 2; key++ {
		got := drain(&w, uint64(key))
		if len(got) != n/2 {
			t.Fatalf("key %d drained %d waiters, want %d", key, len(got), n/2)
		}
		for j, v := range got {
			if v != key+2*j {
				t.Fatalf("key %d waiter %d = %d, want %d", key, j, v, key+2*j)
			}
		}
	}
	if w.Len() != 0 || w.Busy(0) {
		t.Fatalf("Len=%d after draining every key", w.Len())
	}
}

// A waiter that joins the key being drained opens a new entry: it is
// not appended to the list in flight, and the drain still finishes.
func TestWaitersReentrantJoinDuringDrain(t *testing.T) {
	var w Waiters[uint64, int]
	w.Wait(7, 1)
	w.Wait(7, 2)
	l, ok := w.Take(7)
	if !ok {
		t.Fatal("Take of an open key reported not open")
	}
	var got []int
	for v, ok := w.Pop(&l); ok; v, ok = w.Pop(&l) {
		got = append(got, v)
		if v == 1 && !w.Wait(7, 10) {
			t.Fatal("join during the drain did not open a new entry")
		}
		if v == 1 && w.Wait(7, 11) {
			t.Fatal("second join during the drain opened again")
		}
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("drain yielded %v, want [1 2]", got)
	}
	if again := drain(&w, 7); len(again) != 2 || again[0] != 10 || again[1] != 11 {
		t.Fatalf("re-opened entry drained %v, want [10 11]", again)
	}
}

// Taking a key that is not open changes nothing; Open marks a key busy
// with no waiters, and a second Open is refused.
func TestWaitersUnknownKeyAndOpen(t *testing.T) {
	var w Waiters[uint64, int]
	if l, ok := w.Take(3); ok || l != (WaitList{}) {
		t.Fatalf("Take of an unknown key = %+v, %v", l, ok)
	}
	if got := drain(&w, 3); len(got) != 0 {
		t.Fatalf("unknown key drained %v", got)
	}
	if !w.Open(3) || w.Open(3) {
		t.Fatal("Open should succeed once, then refuse")
	}
	if w.Wait(3, 5) {
		t.Fatal("Wait on an opened key reported opening it")
	}
	if got := drain(&w, 3); len(got) != 1 || got[0] != 5 {
		t.Fatalf("opened key drained %v, want [5]", got)
	}
	if w.Len() != 0 {
		t.Fatalf("Len = %d", w.Len())
	}
}

// Once the arena and map have grown to a workload's peak, joining and
// draining allocate nothing.
func TestWaitersSteadyStateZeroAllocs(t *testing.T) {
	var w Waiters[uint64, *int]
	x := new(int)
	round := func() {
		for i := uint64(0); i < 300; i++ {
			w.Wait(i%40, x)
		}
		for k := uint64(0); k < 40; k++ {
			l, _ := w.Take(k)
			for _, ok := w.Pop(&l); ok; _, ok = w.Pop(&l) {
			}
		}
	}
	round()
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("warm Waiters allocated %.1f times per round; want 0", allocs)
	}
}

// waitModel is the oracle for TestWaitersMatchesMapModel: a Go map
// from each open key to its waiters in join order.
type waitModel map[uint64][]int

// collidingKeys returns n keys whose Fibonacci hashes share their top 8
// bits with top: in any table of up to 256 slots they share one home
// slot, and with top 0xFF that home is the table's last slot, so their
// probe runs wrap past the end.
func collidingKeys(top uint64, n int) []uint64 {
	var keys []uint64
	for k := uint64(1); len(keys) < n; k++ {
		if k*fibMul>>56 == top {
			keys = append(keys, k)
		}
	}
	return keys
}

// Random Open/Wait/Take/Pop/Busy/Len sequences against a map model,
// over keys that share a home slot, keys whose probe runs wrap, key 0,
// dense small keys and sparse 64-bit keys. Drains are interleaved with
// other operations, including re-entrant joins of the key being
// drained and enough new keys to grow the table mid-drain. The test
// also counts those situations, so it fails if it stops reaching them.
func TestWaitersMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pool := append(collidingKeys(0xFF, 24), collidingKeys(0x40, 24)...)
	for k := uint64(0); k < 200; k++ {
		pool = append(pool, k)
	}
	for i := 0; i < 40; i++ {
		pool = append(pool, rng.Uint64())
	}

	var w Waiters[uint64, int]
	model := waitModel{}
	next := 0 // next waiter value; values are unique
	var wrapped, sharedHome, grewMidDrain, reentrant int

	check := func(step int) {
		t.Helper()
		if w.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model has %d open keys", step, w.Len(), len(model))
		}
		for _, k := range pool {
			if _, open := model[k]; w.Busy(k) != open {
				t.Fatalf("step %d: Busy(%#x) = %v, model says %v", step, k, w.Busy(k), open)
			}
		}
		homes := map[int]int{}
		for i, s := range w.slots {
			if s.list.tail == 0 {
				continue
			}
			h := w.home(s.key)
			if i < h {
				wrapped++
			}
			if homes[h]++; homes[h] == 2 {
				sharedHome++
			}
		}
	}
	wait := func(k uint64) {
		_, open := model[k]
		if opened := w.Wait(k, next); opened == open {
			t.Fatalf("Wait(%#x) opened = %v with the key open = %v", k, opened, open)
		}
		model[k] = append(model[k], next)
		next++
	}
	// drain takes k and pops its list, running extra operations between
	// pops as a waiter's handler would.
	var drain func(k uint64, depth int)
	drain = func(k uint64, depth int) {
		want, open := model[k]
		l, ok := w.Take(k)
		if ok != open {
			t.Fatalf("Take(%#x) ok = %v, model open = %v", k, ok, open)
		}
		delete(model, k)
		for i := 0; ; i++ {
			v, ok := w.Pop(&l)
			if !ok {
				if i != len(want) {
					t.Fatalf("drain of %#x stopped after %d of %v", k, i, want)
				}
				return
			}
			if i >= len(want) || v != want[i] {
				t.Fatalf("drain of %#x popped %d at %d, want %v", k, v, i, want)
			}
			// Each pop adds under one waiter on average, so the
			// nested drains end.
			switch r := rng.Intn(64); {
			case r < 4:
				wait(k) // re-entrant join of the key being drained
				reentrant++
			case r == 4:
				size := len(w.slots)
				for n := rng.Intn(40); n > 0; n-- {
					wait(pool[rng.Intn(len(pool))])
				}
				if len(w.slots) != size {
					grewMidDrain++
				}
			case r < 8 && depth < 2:
				drain(pool[rng.Intn(len(pool))], depth+1)
			}
		}
	}

	for step := 0; step < 20000; step++ {
		k := pool[rng.Intn(len(pool))]
		// Phases of 1,000 steps alternate between filling the table and
		// emptying it, so it grows, shrinks to empty and refills.
		filling := step/1000%2 == 0
		switch r := rng.Intn(10); {
		case r < 1:
			_, open := model[k]
			if w.Open(k) == open {
				t.Fatalf("step %d: Open(%#x) with the key open = %v", step, k, open)
			}
			if !open {
				model[k] = nil
			}
		case r < 5 == filling:
			wait(k)
		default:
			// Half the time take the first open key at or after k in
			// the pool, so most takes find something to drain.
			if i := rng.Intn(len(pool)); len(model) > 0 && rng.Intn(2) == 0 {
				for k = pool[i]; ; k = pool[i] {
					if _, open := model[k]; open {
						break
					}
					i = (i + 1) % len(pool)
				}
			}
			drain(k, 0)
		}
		check(step)
	}
	t.Logf("wrapped slots %d, shared homes %d, growths mid-drain %d, re-entrant joins %d",
		wrapped, sharedHome, grewMidDrain, reentrant)
	if wrapped == 0 || sharedHome == 0 || grewMidDrain == 0 || reentrant == 0 {
		t.Fatal("the sequence missed a case it exists to cover")
	}
}

// BenchmarkWaitersChurn holds 2,048 keys open, the in-flight scale of
// the TLB coalescers and MSHRs under a translation-heavy run: each
// iteration opens a new key, joins a live one and drains the oldest.
// Keys are consecutive page keys (VPN<<4 | space).
func BenchmarkWaitersChurn(b *testing.B) {
	const live = 2048
	key := func(i int) uint64 { return uint64(i)<<4 | 1 }
	var w Waiters[uint64, int]
	for i := 0; i < live; i++ {
		w.Wait(key(i), i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := live; i < live+b.N; i++ {
		w.Wait(key(i), i)
		w.Wait(key(i-live/2), i)
		l, _ := w.Take(key(i - live))
		for _, ok := w.Pop(&l); ok; _, ok = w.Pop(&l) {
		}
	}
}
