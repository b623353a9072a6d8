package sweep

import (
	"strings"
	"testing"

	"gpureach/internal/core"
	"gpureach/internal/metrics"
)

// TestReduceRequestingUndeclaredRunFails: a body whose runs depend on
// a result declares fewer runs than its reduce pass requests.
// RunExperiments names the undeclared run as that experiment's error,
// emits nothing for it, and still emits the experiments around it.
func TestReduceRequestingUndeclaredRunFails(t *testing.T) {
	base := defaultRun("GUPS", core.Baseline().Name, 0.05)
	follow := defaultRun("GUPS", core.Combined().Name, 0.05)
	table := func(title string) []*metrics.Table { return []*metrics.Table{metrics.NewTable(title, "x")} }
	exps := []Experiment{
		{ID: "ok", body: func(o *expRun) []*metrics.Table { o.run(base); return table("ok") }},
		{ID: "dependent", body: func(o *expRun) []*metrics.Table {
			if o.run(base).Results.Cycles > 0 {
				o.run(follow)
			}
			return table("dependent")
		}},
	}
	stub := func(Run) (RunResult, error) { return RunResult{Results: core.Results{Cycles: 100}}, nil }
	var emitted []string
	err := RunExperiments(exps, ExpOptions{Scale: 0.05}, EngineOptions{RunFn: stub},
		func(e Experiment, _ []*metrics.Table) { emitted = append(emitted, e.ID) })
	if err == nil {
		t.Fatal("RunExperiments accepted a reduce pass that requests an undeclared run")
	}
	for _, want := range []string{"experiment dependent", follow.String(), follow.DigestHex(), "not declared"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not name %q: %v", want, err)
		}
	}
	if len(emitted) != 1 || emitted[0] != "ok" {
		t.Errorf("emitted %v, want only the experiment that declared its runs", emitted)
	}
}
