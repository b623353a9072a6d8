package core

import (
	"math"
	"reflect"
	"testing"

	"gpureach/internal/sample"
	"gpureach/internal/workloads"
)

// TestSampledSkipPathAccuracy covers the skip phase: at a 5% detail
// fraction the warming run-in is far shorter than the inter-window
// gap, so most fast-forward instructions skip structure warming
// entirely. The property that must survive is the one the harness
// sells — relative speedups. Absolute per-window CPI carries a
// schedule-correlated transient bias at small scales (wide CIs
// absorb it); the speedup ratio between two schemes sampled on the
// same schedule cancels it, and that ratio must stay within 5% of
// full detail even when the gaps are mostly skipped.
func TestSampledSkipPathAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full-detail references; skipped under -short")
	}
	w, _ := workloads.ByName("GUPS")
	const scale = 0.05
	sc := sample.Config{Windows: 8, DetailFrac: 0.05, Seed: 1}
	fullBase := mustRun(t, DefaultConfig(Baseline()), w, scale)
	fullScheme := mustRun(t, DefaultConfig(Combined()), w, scale)
	_, sampBase := runSampled(t, DefaultConfig(Baseline()), w, scale, sc)
	_, sampScheme := runSampled(t, DefaultConfig(Combined()), w, scale, sc)
	if sampBase.MeasuredInstrs*4 > sampBase.TotalInstrs {
		t.Fatalf("measured %d of %d instrs — config no longer exercises the skip path",
			sampBase.MeasuredInstrs, sampBase.TotalInstrs)
	}
	fullSp := float64(fullBase.Cycles) / float64(fullScheme.Cycles)
	sampSp := sampBase.Cycles.Mean / sampScheme.Cycles.Mean
	relErr := math.Abs(sampSp-fullSp) / fullSp
	t.Logf("speedup full=%.4f sampled=%.4f relErr=%.2f%%", fullSp, sampSp, 100*relErr)
	if relErr > 0.05 {
		t.Fatalf("sampled speedup %.4f vs full %.4f: rel err %.1f%% > 5%%", sampSp, fullSp, 100*relErr)
	}
}

// TestSampledDeterminism pins the reproducibility contract: the same
// (seed, windows, detail-frac) produces byte-identical estimates and
// window digests on every run, and a different seed produces a
// different window schedule.
func TestSampledDeterminism(t *testing.T) {
	w, _ := workloads.ByName("GUPS")
	sc := sample.Config{Windows: 6, DetailFrac: 0.25, Seed: 1}
	run := func(seed uint64) (Results, *sample.Estimate) {
		c := sc
		c.Seed = seed
		return runSampled(t, DefaultConfig(Combined()), w, 0.05, c)
	}
	r1, e1 := run(1)
	r2, e2 := run(1)
	if e1.Digest != e2.Digest {
		t.Fatalf("window digests diverged: %s vs %s", e1.Digest, e2.Digest)
	}
	if e1.ScheduleDigest != e2.ScheduleDigest {
		t.Fatalf("schedule digests diverged: %s vs %s", e1.ScheduleDigest, e2.ScheduleDigest)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("results diverged:\n%+v\nvs\n%+v", r1, r2)
	}
	if e1.Cycles != e2.Cycles {
		t.Fatalf("cycle estimates diverged: %+v vs %+v", e1.Cycles, e2.Cycles)
	}

	_, e3 := run(2)
	if e3.ScheduleDigest == e1.ScheduleDigest {
		t.Fatal("different seeds produced the same window schedule")
	}
	if e3.Digest == e1.Digest {
		t.Fatal("different seeds produced identical window measurements")
	}
}
