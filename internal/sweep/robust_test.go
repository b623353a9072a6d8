package sweep

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"gpureach/internal/sim"
	"gpureach/internal/stats"
)

// TestBackoffScheduleExact pins the retry backoff: base delay doubling
// per attempt, observed through the injected sleep — no wall clock
// involved.
func TestBackoffScheduleExact(t *testing.T) {
	var mu sync.Mutex
	var sleeps []time.Duration
	dead := func(r Run) (RunResult, error) {
		return RunResult{}, &sim.SimError{Kind: sim.ErrWatchdog, Msg: "always"}
	}
	start := time.Now()
	c, err := Execute(Spec{Apps: []string{"ATAX"}, Scale: 0.05}, Options{
		Procs: 1, MaxAttempts: 4, Backoff: 100 * time.Millisecond,
		Sleep: func(d time.Duration) {
			mu.Lock()
			sleeps = append(sleeps, d)
			mu.Unlock()
		},
		RunFn: dead,
	})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond}
	if len(sleeps) != len(want) {
		t.Fatalf("sleeps = %v, want %v", sleeps, want)
	}
	for i := range want {
		if sleeps[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v (full schedule %v)", i, sleeps[i], want[i], sleeps)
		}
	}
	if c.Records[0].Attempts != 4 {
		t.Fatalf("attempts = %d, want 4", c.Records[0].Attempts)
	}
	// The injected sleep means the 700ms schedule costs no real time.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("campaign took %v despite injected sleep", elapsed)
	}
}

// TestTerminalFailuresBecomeScoredRows: a chaos trial that exhausts its
// retries does not abort the campaign — it lands in the journal as a
// terminal-failure record (kind and watchdog trips attached) and drags
// the scorecard's completion rate down.
func TestTerminalFailuresBecomeScoredRows(t *testing.T) {
	spec := Spec{
		Apps: []string{"ATAX"}, Scale: 0.05,
		ChaosRates: []float64{0.01}, ChaosSeeds: []uint64{1, 2},
	}
	fn := func(r Run) (RunResult, error) {
		if r.ChaosSeed == 2 {
			return RunResult{Chaos: &ChaosOutcome{}},
				&sim.SimError{Kind: sim.ErrWatchdog, Msg: "injected livelock"}
		}
		return ExecuteRun(r)
	}
	c, err := Execute(spec, Options{
		Procs: 2, MaxAttempts: 2, Backoff: 1,
		Sleep: func(time.Duration) {}, RunFn: fn,
	})
	if err != nil {
		t.Fatalf("campaign aborted on a scored failure: %v", err)
	}
	if c.Stats.Failed != 1 {
		t.Fatalf("stats.Failed = %d, want 1", c.Stats.Failed)
	}
	var failed *Record
	for i := range c.Records {
		if c.Records[i].Failed() {
			failed = &c.Records[i]
		}
	}
	if failed == nil {
		t.Fatal("no terminal-failure record")
	}
	if failed.ErrKind != string(sim.ErrWatchdog) {
		t.Fatalf("ErrKind = %q, want watchdog", failed.ErrKind)
	}
	if failed.WatchdogTrips != 2 {
		t.Fatalf("WatchdogTrips = %d, want 2 (both attempts tripped)", failed.WatchdogTrips)
	}
	if failed.Chaos == nil {
		t.Fatal("terminal failure lost its chaos outcome")
	}

	rb := c.Robustness()
	if len(rb.Rows) != 1 {
		t.Fatalf("scorecard has %d rows, want 1", len(rb.Rows))
	}
	row := rb.Rows[0]
	if row.Trials != 2 || row.Completion.N != 2 {
		t.Fatalf("trials = %d, completion N = %d, want 2/2", row.Trials, row.Completion.N)
	}
	if row.Completion.Mean != 0.5 {
		t.Fatalf("completion mean = %v, want 0.5", row.Completion.Mean)
	}
	if row.Watchdog.Mean != 1.0 { // (0 + 2) trips over 2 trials
		t.Fatalf("watchdog mean = %v, want 1.0", row.Watchdog.Mean)
	}
	if len(row.Terminal) != 1 || !strings.Contains(row.Terminal[0], "seed 2") ||
		!strings.Contains(row.Terminal[0], "watchdog") {
		t.Fatalf("terminal = %v, want the seed-2 watchdog entry", row.Terminal)
	}
	// The completed trial anchors slowdown against the fault-free cell.
	if row.Slowdown.N != 1 || row.Slowdown.Mean <= 0 {
		t.Fatalf("slowdown = %+v, want one positive sample", row.Slowdown)
	}
}

// adversarialSpec is the multi-tenant chaos matrix the byte-identity
// tests run: one §7.2 co-run × two schemes' worth of rows (baseline is
// implicit) × a two-rate ladder × two seed trials.
func adversarialSpec() Spec {
	return Spec{
		Tenancy:    []string{"MVT+SRAD"},
		Schemes:    []string{"ic+lds"},
		Scale:      0.05,
		ChaosRates: []float64{0.002, 0.01},
		ChaosSeeds: []uint64{1, 2},
	}
}

// TestRobustnessByteIdenticalAcrossProcs is the scorecard's determinism
// guarantee: the same adversarial campaign at procs=1 and procs=4
// produces byte-identical robustness.json and robustness.csv, and every
// chaos schedule digest matches run-for-run.
func TestRobustnessByteIdenticalAcrossProcs(t *testing.T) {
	if testing.Short() {
		t.Skip("adversarial campaign skipped in -short")
	}
	serial, err := Execute(adversarialSpec(), Options{Procs: 1})
	if err != nil {
		t.Fatalf("serial campaign: %v", err)
	}
	parallel, err := Execute(adversarialSpec(), Options{Procs: 4})
	if err != nil {
		t.Fatalf("parallel campaign: %v", err)
	}
	for i := range serial.Records {
		s, p := serial.Records[i], parallel.Records[i]
		if (s.Chaos == nil) != (p.Chaos == nil) {
			t.Fatalf("record %d chaos presence differs", i)
		}
		if s.Chaos != nil && s.Chaos.ScheduleDigest != p.Chaos.ScheduleDigest {
			t.Errorf("record %d schedule digest differs: %s vs %s",
				i, s.Chaos.ScheduleDigest, p.Chaos.ScheduleDigest)
		}
	}
	sj, err := serial.Robustness().JSON()
	if err != nil {
		t.Fatal(err)
	}
	pj, err := parallel.Robustness().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, pj) {
		t.Fatalf("robustness JSON differs between procs=1 and procs=4:\n--- serial ---\n%s\n--- parallel ---\n%s", sj, pj)
	}
	sc, _ := serial.Robustness().CSV()
	pc, _ := parallel.Robustness().CSV()
	if !bytes.Equal(sc, pc) {
		t.Fatalf("robustness CSV differs between procs=1 and procs=4")
	}

	// The campaign must actually have been adversarial: injections
	// happened, every chaos run probed its invariants, and the
	// scorecard scored both rates for both rows.
	injections := uint64(0)
	var first *Record
	for i, rec := range serial.Records {
		if rec.Chaos != nil {
			injections += rec.Chaos.Stats.Injections
			if rec.Chaos.ProbeRuns == 0 {
				t.Errorf("%v: no invariant probe runs", rec.Run)
			}
			if first == nil && rec.Chaos.Stats.Injections > 5 {
				first = &serial.Records[i]
			}
		}
	}
	if injections == 0 || first == nil {
		t.Fatal("no chaos run injected more than five faults across the whole campaign")
	}
	// ChaosMax stops the same schedule early: the run reaches the cap
	// (a storm may overshoot it within its last event) and then stops.
	capped := first.Run
	capped.ChaosMax = 5
	rr, err := ExecuteRun(capped)
	if err != nil {
		t.Fatalf("%v: %v", capped, err)
	}
	if got := rr.Chaos.Stats.Injections; got < 5 || got >= first.Chaos.Stats.Injections {
		t.Errorf("%v: %d injections, want the cap 5 (uncapped: %d)", capped, got, first.Chaos.Stats.Injections)
	}
	if rr.Chaos.ProbeRuns == 0 || rr.Chaos.ProbeRuns >= first.Chaos.ProbeRuns {
		t.Errorf("%v: %d probe runs, want fewer than the uncapped %d and more than 0", capped, rr.Chaos.ProbeRuns, first.Chaos.ProbeRuns)
	}
	rb := serial.Robustness()
	if len(rb.Rows) != 4 { // 1 unit × 2 schemes × 2 rates
		t.Fatalf("scorecard has %d rows, want 4", len(rb.Rows))
	}
	for _, row := range rb.Rows {
		if row.Tenants != "MVT+SRAD" {
			t.Errorf("row tenants = %q, want MVT+SRAD", row.Tenants)
		}
		if row.Trials != 2 {
			t.Errorf("row %s@%g trials = %d, want 2", row.Scheme, row.ChaosRate, row.Trials)
		}
	}
}

// TestStatOfStudentT keeps the scorecard's original known answers as a
// pin on the extracted internal/stats machinery (whose own tests cover
// the full table): the alias and delegation must not drift.
func TestStatOfStudentT(t *testing.T) {
	if s := statOf(nil); s != (Stat{}) {
		t.Fatalf("statOf(nil) = %+v, want zero", s)
	}
	if s := statOf([]float64{5}); s.Mean != 5 || s.CI95 != 0 || s.N != 1 {
		t.Fatalf("statOf singleton = %+v", s)
	}
	s := statOf([]float64{1, 2, 3, 4})
	if math.Abs(s.Mean-2.5) > 1e-12 {
		t.Fatalf("mean = %v, want 2.5", s.Mean)
	}
	// sd = sqrt(5/3), half-width = t(3) * sd / sqrt(4) = 3.182*1.29099/2.
	want := 3.182 * math.Sqrt(5.0/3.0) / 2
	if math.Abs(s.CI95-want) > 1e-9 {
		t.Fatalf("ci95 = %v, want %v", s.CI95, want)
	}
	if stats.TCrit(1) != 12.706 || stats.TCrit(30) != 2.042 || stats.TCrit(1000) != 1.96 {
		t.Fatalf("t table lookup broken: %v %v %v", stats.TCrit(1), stats.TCrit(30), stats.TCrit(1000))
	}
}
