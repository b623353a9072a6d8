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
// page walks (~84k), whose steps and walker queue must stay off the heap.
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
