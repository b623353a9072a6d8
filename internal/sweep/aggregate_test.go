package sweep

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"gpureach/internal/core"
	"gpureach/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata/")

// stubResults derives synthetic Results from r's matrix coordinates
// alone, so goldens built on them move only when the reduction or its
// rendering does. SRAD's baseline never walks.
func stubResults(r Run) core.Results {
	h := fnv.New32a()
	fmt.Fprintf(h, "%s/%s/%d/%s/%d", r.App, r.Scheme, r.L2TLB, r.PageSize, r.ChaosSeed)
	v := uint64(h.Sum32())
	res := core.Results{
		Cycles:       sim.Time(20000 + v%20000),
		PageWalks:    100 + v%900,
		DRAMEnergyPJ: float64(1000 + v%1000),
	}
	if r.App == "SRAD" && r.Scheme == "baseline" {
		res.PageWalks = 0
	}
	return res
}

// checkGolden compares got with testdata/name, or rewrites it under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden\n got:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestAggregateGolden pins the campaign artifacts byte for byte on a
// stubbed matrix: a High app (GUPS), a Low app (PRK), an app whose
// baseline never walks (SRAD), a tenancy mix, two L2 TLB sizes, one
// chaos rate, and one run that fails.
func TestAggregateGolden(t *testing.T) {
	failing := Run{App: "GUPS", Scheme: "ic+lds", Scale: 0.05, L2TLB: 1024, PageSize: "4K", ChaosSeed: 1, ChaosRate: 0.01}
	stub := func(r Run) (RunResult, error) {
		if r == failing {
			return RunResult{}, errors.New("injected failure")
		}
		return RunResult{Results: stubResults(r)}, nil
	}
	spec := Spec{
		Apps:       []string{"GUPS", "PRK", "SRAD"},
		Tenancy:    []string{"MVT+SRAD"},
		Schemes:    []string{"lds", "ic+lds"},
		Scale:      0.05,
		L2TLB:      []int{512, 1024},
		ChaosRates: []float64{0.01},
	}
	c, err := Execute(spec, Options{Procs: 2, RunFn: stub})
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats.Failed != 1 {
		t.Fatalf("%d failed runs, want 1", c.Stats.Failed)
	}
	agg := c.Aggregate()
	aggJSON, err := agg.JSON()
	if err != nil {
		t.Fatal(err)
	}
	aggCSV, err := agg.CSV()
	if err != nil {
		t.Fatal(err)
	}
	var tables bytes.Buffer
	for _, tb := range agg.Tables() {
		tb.Render(&tables)
	}
	robJSON, err := c.Robustness().JSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "aggregate.json", aggJSON)
	checkGolden(t, "aggregate.csv", aggCSV)
	checkGolden(t, "aggregate_tables.txt", tables.Bytes())
	checkGolden(t, "robustness.json", robJSON)
}
