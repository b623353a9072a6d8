// Package gpureach_test is the benchmark harness that regenerates every
// table and figure of the paper's evaluation (see DESIGN.md §3 for the
// experiment index). BenchmarkPaper runs every experiment end-to-end
// and prints the same rows/series the paper reports; custom metrics
// expose the headline numbers (geomean speedups, walk reductions) so
// regressions are visible in benchstat output.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// BenchmarkPaper simulates hundreds of application runs on the sweep
// engine (GOMAXPROCS workers); set GPUREACH_BENCH_SCALE (e.g. 0.25) to
// shrink footprints for a quick pass. Results at reduced scale keep
// the qualitative shape but the reach-limited applications saturate
// earlier.
package gpureach_test

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"

	"gpureach/internal/metrics"
	"gpureach/internal/sweep"
)

// benchOpts returns the experiment options for benchmarks, honouring
// GPUREACH_BENCH_SCALE.
func benchOpts() sweep.ExpOptions {
	scale := 1.0
	if s := os.Getenv("GPUREACH_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			scale = v
		}
	}
	return sweep.ExpOptions{Scale: scale}
}

// cell parses a float cell of a table row (col 0 = the row label);
// rows counts from the end, 1 being the last row.
func cell(t *metrics.Table, fromEnd, col int) float64 {
	if len(t.Rows) < fromEnd {
		return 0
	}
	row := t.Rows[len(t.Rows)-fromEnd]
	if col >= len(row) {
		return 0
	}
	v, _ := strconv.ParseFloat(row[col], 64)
	return v
}

// BenchmarkPaper regenerates every table and figure of the evaluation
// through one harness call per iteration, so runs shared between
// figures (every per-app baseline, the Figure 13/14/15 scheme runs)
// are simulated once. It prints the tables and reports each figure's
// headline number as a custom metric named <experiment>.<metric>.
func BenchmarkPaper(b *testing.B) {
	var tables map[string][]*metrics.Table
	for i := 0; i < b.N; i++ {
		tables = map[string][]*metrics.Table{}
		err := sweep.RunExperiments(sweep.Experiments(), benchOpts(), sweep.EngineOptions{},
			func(e sweep.Experiment, ts []*metrics.Table) { tables[e.ID] = ts })
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, e := range sweep.Experiments() {
		for _, t := range tables[e.ID] {
			fmt.Print(t.String())
		}
	}
	report := func(id string, table, fromEnd, col int, unit string) {
		b.ReportMetric(cell(tables[id][table], fromEnd, col), id+"."+unit)
	}
	// F13b: the second-to-last row is the all-apps geomean (the last is
	// High+Medium only).
	report("F13b", 0, 2, 3, "geospeedup/ic+lds")
	report("F13a", 0, 1, 4, "geospeedup/aware+flush")
	report("F13c", 0, 1, 3, "normenergy/ic+lds")
	report("F14b", 0, 1, 3, "normwalks/ic+lds")
	report("S631", 0, 1, 1, "geospeedup/32B")
	report("S631", 0, 1, 2, "geospeedup/64B")
	report("ABLPF", 0, 1, 1, "geospeedup/victim")
	report("ABLPF", 0, 1, 2, "geospeedup/prefetch")
	report("F16c", 0, 1, 3, "geospeedup/ic+lds+ducati")
	report("F14c", 0, 1, 1, "geospeedup/4K")
	report("F14c", 0, 1, 3, "geospeedup/2M")
	report("F16a", 0, 1, 1, "geospeedup/1CU")
	report("F16a", 0, 1, 4, "geospeedup/8CU")
	// F16b: the last row is IC_LDS, the last column +100cy.
	report("F16b", 0, 1, 3, "geospeedup/+100cy")
	fig3 := tables["F2F3"][1]
	report("F2F3", 1, 1, len(fig3.Headers)-1, "geospeedup/2M")
	// Figure 2: the 2M-entry normalized walks, averaged over apps.
	var norm []float64
	for _, row := range tables["F2F3"][0].Rows {
		if v, err := strconv.ParseFloat(row[len(row)-2], 64); err == nil {
			norm = append(norm, v)
		}
	}
	b.ReportMetric(metrics.Mean(norm), "F2F3.normwalks/2M")
}

// BenchmarkSweepCampaign measures the parallel sweep engine end to end:
// a 2-app × (baseline + 2 schemes) campaign on a GOMAXPROCS worker
// pool, in-memory (no cache) so every iteration simulates all six
// points. runs/sec is the engine's throughput trajectory metric.
func BenchmarkSweepCampaign(b *testing.B) {
	spec := sweep.Spec{
		Apps:    []string{"ATAX", "GUPS"},
		Schemes: []string{"lds", "ic+lds"},
		Scale:   benchOpts().Scale,
	}
	var campaign *sweep.Campaign
	for i := 0; i < b.N; i++ {
		var err error
		campaign, err = sweep.Execute(spec, sweep.Options{Procs: runtime.GOMAXPROCS(0)})
		if err != nil {
			b.Fatal(err)
		}
	}
	agg := campaign.Aggregate()
	for _, t := range agg.Tables() {
		fmt.Print(t.String())
	}
	st := campaign.Stats
	if st.WallMS > 0 {
		b.ReportMetric(float64(st.Total)/(st.WallMS/1000), "runs/sec")
	}
	b.ReportMetric(agg.Points[0].GeomeanSpeedup["ic+lds"], "geospeedup/ic+lds")
}
