package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestEveryMetricEmitted runs every workload at a tiny scale, untraced
// and traced, and checks that each run is correct and emits exactly the
// metrics BENCHMARK.json names, each with its unit.
func TestEveryMetricEmitted(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayer))
	}
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			rec, err := Run(Options{Workload: wl.Name, Seed: 7, Seconds: 0, Trace: trace, Scale: 0.02, Dir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			res := rec.Result
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v",
					wl.Name, trace, res.Correct, res.Attempted, res.Failed, rec.Failures)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s emitted=%v unit %q, want unit %q", wl.Name, trace, m.Name, ok, got.Unit, m.Unit)
				}
			}
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"gpureach/internal/tlb.(*TLB).Lookup":         "tlb",
		"gpureach/internal/gpu.(*CU).memAccess.func1": "gpu",
		"gpureach/internal/vm.(*PageTable).Walk":      "other",
		"runtime.mallocgc":                            "runtime",
		"internal/runtime/atomic.(*Uint32).Load":      "runtime",
		"encoding/json.(*decodeState).object":         "other",
		"":                                            "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseTop(t *testing.T) {
	top := `File: perfbench
Type: cpu
Showing nodes accounting for 2500000000ns, 100% of 2500000000ns total
      flat  flat%   sum%        cum   cum%
1440000000ns 57.60% 57.60% 1440000000ns 57.60%  gpureach/internal/cache.findWay (inline)
640000000ns 25.60% 83.20% 690000000ns 27.60%  gpureach/internal/tlb.(*TLB).Insert
420000000ns 16.80%   100% 420000000ns 16.80%  runtime.mallocgc
         0     0%   100% 2500000000ns   100%  main.main
`
	got, err := parseTop(top)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"gpureach/internal/cache.findWay (inline)": 1.44e9,
		"gpureach/internal/tlb.(*TLB).Insert":      6.4e8,
		"runtime.mallocgc":                         4.2e8,
		"main.main":                                0,
	}
	if len(got) != len(want) {
		t.Errorf("parseTop = %v, want %v", got, want)
	}
	for fn, ns := range want {
		if got[fn] != ns {
			t.Errorf("parseTop[%q] = %v, want %v", fn, got[fn], ns)
		}
	}
	if _, err := parseTop("no table here\n"); err == nil {
		t.Error("parseTop accepted output without a table")
	}
}
