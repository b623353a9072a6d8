package core

import (
	"testing"
	"time"

	"gpureach/internal/sample"
	"gpureach/internal/workloads"
)

// TestCalibrationReport prints the Table 2 characterization at full
// experiment scale:
//
//	go test ./internal/core/ -run Calibration -v
//
// Under -short the report switches to sampled execution (16 windows,
// 5% detail) instead of skipping: the numbers become extrapolated
// estimates, but every app still runs end-to-end in normal CI.
func TestCalibrationReport(t *testing.T) {
	sc := sample.Config{}
	mode := "full detail"
	if testing.Short() {
		sc = sample.Config{Windows: 16, DetailFrac: 0.05, Seed: 1}.Normalize()
		mode = "sampled " + sc.String()
	}
	t.Logf("calibration mode: %s", mode)
	for _, w := range workloads.All() {
		start := time.Now()
		r, est := runSampled(t, DefaultConfig(Baseline()), w, 1.0, sc)
		elapsed := float64(time.Since(start).Microseconds()) / 1000
		if est != nil {
			t.Logf("%-5s cat=%s %8.1fms  %v  (cycles ±%.0f over %d windows)",
				w.Name, w.Category, elapsed, r, est.Cycles.CI95, est.Cycles.N)
			continue
		}
		t.Logf("%-5s cat=%s %8.1fms  %v", w.Name, w.Category, elapsed, r)
	}
}
