package sim

import (
	"math/rand"
	"testing"
)

// lruOrder returns set s's ways from most to least recently used,
// walking the next links from the head, and checks the prev links
// walk the same ways back from the tail.
func lruOrder(t *testing.T, l *LRU, s int) []int {
	t.Helper()
	st, ls := l.sets[s], l.links[s*l.ways:(s+1)*l.ways]
	var order []int
	for i, w := 0, int(st.head); i < int(st.n); i, w = i+1, int(ls[w].next) {
		order = append(order, w)
	}
	for i, w := len(order)-1, int(st.tail); i >= 0; i, w = i-1, int(ls[w].prev) {
		if order[i] != w {
			t.Fatalf("set %d: prev links walk %d at position %d, next links %d", s, w, i, order[i])
		}
	}
	return order
}

// Random Add/Touch/Remove/Oldest/Reset sequences keep every set's list
// in the order of a stamp model: a member's stamp is the clock of its
// last Add or Touch, and the list runs from the largest stamp to the
// smallest. Oldest is followed by a Touch, as a full set's eviction
// does. Counters fail the test if removals of the head, the tail, a
// middle member or the only member stop occurring.
func TestLRUMatchesStampModel(t *testing.T) {
	const sets = 3
	for _, ways := range []int{1, 8, 16, 32} {
		rng := rand.New(rand.NewSource(int64(ways)))
		l := NewLRU(sets, ways)
		stamps := make([][]uint64, sets) // 0: not a member
		for s := range stamps {
			stamps[s] = make([]uint64, ways)
		}
		var clock uint64
		removed := map[string]int{}
		for step := 0; step < 20000; step++ {
			s := rng.Intn(sets)
			var members, free []int
			oldest, newest := -1, -1
			for w, st := range stamps[s] {
				if st == 0 {
					free = append(free, w)
					continue
				}
				members = append(members, w)
				if oldest < 0 || st < stamps[s][oldest] {
					oldest = w
				}
				if newest < 0 || st > stamps[s][newest] {
					newest = w
				}
			}
			switch r := rng.Intn(100); {
			case r < 35:
				if len(free) > 0 {
					w := free[rng.Intn(len(free))]
					clock++
					stamps[s][w] = clock
					l.Add(s, w)
				}
			case r < 65:
				if len(members) > 0 {
					w := members[rng.Intn(len(members))]
					clock++
					stamps[s][w] = clock
					l.Touch(s, w)
				}
			case r < 85:
				if len(members) > 0 {
					w := members[rng.Intn(len(members))]
					switch {
					case len(members) == 1:
						removed["only"]++
					case w == newest:
						removed["head"]++
					case w == oldest:
						removed["tail"]++
					default:
						removed["middle"]++
					}
					stamps[s][w] = 0
					l.Remove(s, w)
				}
			case r < 99:
				if len(members) > 0 {
					if got := l.Oldest(s); got != oldest {
						t.Fatalf("%d ways, step %d: Oldest(%d) = %d, model %d", ways, step, s, got, oldest)
					}
					clock++
					stamps[s][oldest] = clock
					l.Touch(s, oldest)
				}
			default:
				for s := range stamps {
					clear(stamps[s])
				}
				l.Reset()
			}
			for s := range stamps {
				var want []int
				for w, st := range stamps[s] {
					if st != 0 {
						want = append(want, w)
					}
				}
				// Largest stamp first: insertion sort on a handful of ways.
				for i := 1; i < len(want); i++ {
					for j := i; j > 0 && stamps[s][want[j]] > stamps[s][want[j-1]]; j-- {
						want[j], want[j-1] = want[j-1], want[j]
					}
				}
				if l.Len(s) != len(want) {
					t.Fatalf("%d ways, step %d: Len(%d) = %d, model %d", ways, step, s, l.Len(s), len(want))
				}
				got := lruOrder(t, &l, s)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%d ways, step %d: set %d order %v, model %v", ways, step, s, got, want)
					}
				}
			}
		}
		cases := []string{"only", "head", "tail", "middle"}
		if ways == 1 {
			cases = cases[:1]
		}
		for _, c := range cases {
			if removed[c] == 0 {
				t.Errorf("%d ways: no removal of the %s member occurred", ways, c)
			}
		}
	}
}

// NewLRU accepts sets of up to 65,536 ways, the most 16-bit links can
// name, and panics beyond that or on a negative dimension.
func TestNewLRUGeometry(t *testing.T) {
	l := NewLRU(1, maxLRUWays)
	l.Add(0, maxLRUWays-1)
	l.Add(0, 0)
	if l.Oldest(0) != maxLRUWays-1 || l.Len(0) != 2 {
		t.Errorf("65,536-way set: Oldest = %d, Len = %d", l.Oldest(0), l.Len(0))
	}
	for _, g := range [][2]int{{1, maxLRUWays + 1}, {-1, 4}, {4, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLRU(%d, %d) did not panic", g[0], g[1])
				}
			}()
			NewLRU(g[0], g[1])
		}()
	}
}
