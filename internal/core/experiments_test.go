// The paper experiments are assembled from sweep.Runs in internal/sweep,
// which imports core, so their end-to-end checks live in this external
// test package, next to the model whose figures they reproduce.
package core_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"gpureach/internal/cli"
	"gpureach/internal/metrics"
	"gpureach/internal/sample"
	"gpureach/internal/sweep"
)

func TestExperimentRegistry(t *testing.T) {
	exps := sweep.Experiments()
	if len(exps) != 18 {
		t.Errorf("%d experiments registered, want 18", len(exps))
	}
	for _, e := range exps {
		if got, ok := sweep.ExperimentByID(e.ID); !ok || got.Title != e.Title {
			t.Errorf("experiment %q unresolvable or not unique", e.ID)
		}
	}
	if _, ok := sweep.ExperimentByID("nope"); ok {
		t.Error("bogus ID resolved")
	}
}

func readGolden(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// firstDiff describes the first line where got departs from want.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n want %q\n  got %q", i+1, w, g)
		}
	}
	return "identical"
}

// TestExperimentsSmoke runs every experiment at a tiny scale and
// compares the rendered tables byte for byte with
// testdata/exp_all.golden, the stdout of
//
//	gpureach exp -exp all -scale 0.05 -apps MVT,SRAD
//
// Each experiment's subtest checks its own slice of that output. Two
// more golden invocations cover what -apps leaves out: the §7.2
// co-runs, and sampled execution.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke skipped in -short")
	}
	golden := readGolden(t, "exp_all.golden")
	exps := sweep.Experiments()
	rendered := map[string]string{}
	opts := sweep.ExpOptions{Scale: 0.05, Apps: []string{"MVT", "SRAD"}}
	err := sweep.RunExperiments(exps, opts, sweep.EngineOptions{}, func(e sweep.Experiment, tables []*metrics.Table) {
		var b strings.Builder
		for _, tab := range tables {
			tab.Render(&b)
		}
		rendered[e.ID] = b.String()
	})
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for _, e := range exps {
		got, start := rendered[e.ID], off
		off += len(got)
		t.Run(e.ID, func(t *testing.T) {
			want := golden[min(start, len(golden)):min(start+len(got), len(golden))]
			if got != want {
				t.Errorf("tables differ from the golden at byte %d, %s", start, firstDiff(want, got))
			}
		})
	}
	if off != len(golden) {
		t.Errorf("experiments rendered %d bytes, golden holds %d", off, len(golden))
	}

	for _, c := range []struct {
		name, golden string
		args         []string
	}{
		{"S72_all_apps", "exp_s72.golden", []string{"-exp", "S72", "-scale", "0.05"}},
		{"F13b_sampled", "exp_f13b_sampled.golden", []string{"-exp", "F13b", "-scale", "0.05",
			"-apps", "GUPS,SRAD", "-sample", "windows=6,frac=0.25,seed=1"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := cli.RunExp(c.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exp %v exited %d: %s", c.args, code, stderr.String())
			}
			if want := readGolden(t, c.golden); stdout.String() != want {
				t.Errorf("stdout differs from %s, %s", c.golden, firstDiff(want, stdout.String()))
			}
		})
	}
}

// requestedRuns runs experiment id on a stub simulator and returns the
// runs it asked for, sorted by app and scheme.
func requestedRuns(t *testing.T, id string, opts sweep.ExpOptions) []sweep.Run {
	t.Helper()
	e, ok := sweep.ExperimentByID(id)
	if !ok {
		t.Fatalf("experiment %q unresolvable", id)
	}
	var mu sync.Mutex
	var runs []sweep.Run
	stub := func(r sweep.Run) (sweep.RunResult, error) {
		mu.Lock()
		defer mu.Unlock()
		runs = append(runs, r)
		return sweep.RunResult{}, nil
	}
	err := sweep.RunExperiments([]sweep.Experiment{e}, opts, sweep.EngineOptions{RunFn: stub},
		func(sweep.Experiment, []*metrics.Table) {})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(runs, func(i, j int) bool {
		if runs[i].App != runs[j].App {
			return runs[i].App < runs[j].App
		}
		return runs[i].Scheme < runs[j].Scheme
	})
	return runs
}

// TestExpOptionsDefaults: zero options run all ten apps at scale 1.0,
// full detail, on the Table 1 L2 TLB and page size; Apps and Sampling
// narrow and switch that.
func TestExpOptionsDefaults(t *testing.T) {
	runs := requestedRuns(t, "T2", sweep.ExpOptions{})
	if len(runs) != 10 {
		t.Fatalf("default options requested %d runs, want one per app", len(runs))
	}
	for _, r := range runs {
		if r.Scheme != "baseline" || r.Scale != 1 || r.L2TLB != 512 || r.PageSize != "4K" || r.SampleWindows != 0 {
			t.Errorf("default run %+v, want baseline at scale 1, l2tlb 512, 4K pages, full detail", r)
		}
	}
	sc := sample.Config{Windows: 6, DetailFrac: 0.25, Seed: 1}
	runs = requestedRuns(t, "T2", sweep.ExpOptions{Scale: 0.05, Apps: []string{"ATAX"}, Sampling: sc})
	if len(runs) != 1 || runs[0].App != "ATAX" || runs[0].Scale != 0.05 || runs[0].SampleConfig() != sc {
		t.Errorf("restricted options requested %+v, want one sampled ATAX run at scale 0.05", runs)
	}
}

// TestUnknownAppDoesNotPanic: unknown names and unusable scales are
// validation errors that name the problem, returned before anything
// is simulated — never a panic.
func TestUnknownAppDoesNotPanic(t *testing.T) {
	cases := []struct {
		opts sweep.ExpOptions
		want string
	}{
		{sweep.ExpOptions{Apps: []string{"NOPE", "ATAX"}}, "NOPE"},
		{sweep.ExpOptions{Scale: math.NaN()}, "NaN"},
		{sweep.ExpOptions{Scale: math.Inf(1)}, "infinite"},
		{sweep.ExpOptions{Scale: math.Inf(-1)}, "infinite"},
		{sweep.ExpOptions{Scale: -1}, "negative"},
	}
	never := func(r sweep.Run) (sweep.RunResult, error) {
		t.Errorf("invalid options simulated %s", r)
		return sweep.RunResult{}, nil
	}
	for _, c := range cases {
		if err := c.opts.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%+v) = %v, want an error mentioning %q", c.opts, err, c.want)
		}
		err := sweep.RunExperiments(sweep.Experiments(), c.opts, sweep.EngineOptions{RunFn: never},
			func(sweep.Experiment, []*metrics.Table) {})
		if err == nil {
			t.Errorf("RunExperiments accepted %+v", c.opts)
		}
	}
	if err := (sweep.ExpOptions{}).Validate(); err != nil {
		t.Fatalf("Validate rejected default options: %v", err)
	}
}

// TestSampledMatchesFullDetail is the statistical cross-validation
// gate: over the stock app × scheme matrix, the sampled speedup
// estimate must land within 5% of the full-detail speedup and the
// sampled 95% confidence interval must cover the full-detail truth.
// Six windows with a quarter of each detailed keep windows long enough
// for the short test-scale runs to reach steady state inside every
// window, and make the warming run-in cover the whole inter-window gap
// (the skip path has its own coverage in TestSampledSkipPathAccuracy).
func TestSampledMatchesFullDetail(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation matrix runs full-detail references; skipped under -short")
	}
	sc := sample.Config{Windows: 6, DetailFrac: 0.25, Seed: 1}
	rep, err := sweep.Calibrate(sample.CalibrationPairs, 0.05, sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep.Table())
	if err := rep.Check(0.05); err != nil {
		t.Fatal(err)
	}
}
