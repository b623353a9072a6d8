package sim

import "testing"

// drain closes key and returns its waiters in the order Pop yields them.
func drain(w *Waiters[int, int], key int) []int {
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
	var w Waiters[int, int]
	const n = 3 * waitChunk
	for i := 0; i < n; i++ {
		opened := w.Wait(i%2, i)
		if opened != (i < 2) {
			t.Fatalf("Wait(%d, %d) opened=%v", i%2, i, opened)
		}
	}
	if w.Len() != 2 || !w.Busy(0) || !w.Busy(1) {
		t.Fatalf("Len=%d Busy(0)=%v Busy(1)=%v, want 2 open keys", w.Len(), w.Busy(0), w.Busy(1))
	}
	for key := 0; key < 2; key++ {
		got := drain(&w, key)
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
	var w Waiters[int, int]
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
	var w Waiters[int, int]
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
