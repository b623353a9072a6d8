package core

import (
	"runtime"
	"testing"

	"gpureach/internal/workloads"
)

// TestFullDetailRunAllocBudget guards DESIGN.md §4's steady-state
// contract at system level: once the machine is built, a full-detail
// run allocates only warm-up growth (pools, the calendar's slot arena,
// the reported ports' idle-gap samples), nothing per event. The budget
// is in bytes per event over the whole System.Run, so per-event or
// per-kernel-boundary allocations show up as a rate independent of run
// length. NW at scale 0.25 is heavy on kernel boundaries, where the
// sharing sample runs; ATAX/baseline at scale 0.25 is heavy on IOMMU
// page walks (~84k), whose steps and walker queue must stay off the
// heap; GUPS/ic+lds at scale 0.05 is heavy on merged translation and
// data-cache misses, whose waiters must reuse their arenas, and it
// builds the LDSs' Tx-mode arrays mid-run.
func TestFullDetailRunAllocBudget(t *testing.T) {
	const maxBytesPerEvent = 4
	cases := []struct {
		name   string
		app    string
		scheme Scheme
		scale  float64
	}{
		{"ATAX/baseline", "ATAX", Baseline(), 0.05},
		{"NW/ic+lds", "NW", Combined(), 0.25},
		{"ATAX/baseline@0.25", "ATAX", Baseline(), 0.25},
		{"GUPS/ic+lds@0.05", "GUPS", Combined(), 0.05},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w, ok := workloads.ByName(c.app)
			if !ok {
				t.Fatalf("unknown workload %s", c.app)
			}
			s := NewSystem(DefaultConfig(c.scheme))
			kernels := w.Build(s.Space, c.scale)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := s.Run(w.Name, kernels); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			events := s.Eng.EventsRun()
			perEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(events)
			t.Logf("%d events, %.2f bytes/event", events, perEvent)
			if perEvent > maxBytesPerEvent {
				t.Fatalf("full-detail run allocated %.2f bytes/event over %d events; the budget is %d",
					perEvent, events, maxBytesPerEvent)
			}
		})
	}
}

// TestNewSystemByteBudget pins what building a default machine costs
// on the heap, so state sized to the structures' full geometry cannot
// creep back in. The LDSs' and I-caches' Tx-mode state is built only
// when a segment or line first enters Tx-mode, which is never at
// construction, so every scheme costs the same. Bounds are about 10%
// above the bytes measured when the budget was set (1.15 MB each, Go
// 1.24, with 8-byte data-cache tags and 4-byte LRU links per way);
// with a 16-byte tag-and-stamp line per data-cache way NewSystem took
// 1.40 MB, with every I-cache line also carrying its own Tx state
// 1.56 MB, and with every LDS segment doing so too, 2.80 MB.
func TestNewSystemByteBudget(t *testing.T) {
	const maxBytes = 1_270_000
	for _, scheme := range []Scheme{Baseline(), LDSOnly(), Combined()} {
		t.Run(scheme.Name, func(t *testing.T) {
			cfg := DefaultConfig(scheme)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s := NewSystem(cfg)
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(s)
			bytes := after.TotalAlloc - before.TotalAlloc
			t.Logf("NewSystem allocated %d bytes", bytes)
			if bytes > maxBytes {
				t.Fatalf("NewSystem(%s) allocated %d bytes; the budget is %d", scheme.Name, bytes, maxBytes)
			}
		})
	}
}
