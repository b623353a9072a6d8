package sweep

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpureach/internal/core"
	"gpureach/internal/sim"
)

// testSpec is a small but real matrix: 2 apps × (baseline + 2 schemes)
// × 2 L2-TLB sizes at smoke scale = 12 simulations.
func testSpec() Spec {
	return Spec{
		Apps:    []string{"ATAX", "SRAD"},
		Schemes: []string{"lds", "ic+lds"},
		Scale:   0.05,
		L2TLB:   []int{512, 1024},
	}
}

func TestNormalizeFillsDefaultsAndBaseline(t *testing.T) {
	n := Spec{}.Normalize()
	if len(n.Apps) != 10 {
		t.Fatalf("default apps = %d, want all ten", len(n.Apps))
	}
	if len(n.Schemes) != 1 || n.Schemes[0] != "baseline" {
		t.Fatalf("default schemes = %v, want [baseline]", n.Schemes)
	}
	n = Spec{Schemes: []string{"ic+lds", "baseline", "ic+lds"}}.Normalize()
	if len(n.Schemes) != 2 || n.Schemes[0] != "baseline" || n.Schemes[1] != "ic+lds" {
		t.Fatalf("schemes = %v, want baseline first and deduplicated", n.Schemes)
	}
	if n.Scale != 1.0 || len(n.L2TLB) != 1 || len(n.PageSizes) != 1 {
		t.Fatalf("defaults not filled: %+v", n)
	}
	if len(n.ChaosRates) != 1 || n.ChaosRates[0] != 0 || len(n.ChaosSeeds) != 0 {
		t.Fatalf("chaos defaults: rates=%v seeds=%v, want the bare fault-free rate", n.ChaosRates, n.ChaosSeeds)
	}
}

func TestNormalizeChaosLadderAndTenancy(t *testing.T) {
	// The fault-free rate is always present (and first), duplicates
	// collapse, and Trials expands to seeds 1..T when none are given.
	n := Spec{ChaosRates: []float64{0.01, 0.01, 0.001}, Trials: 3}.Normalize()
	if len(n.ChaosRates) != 3 || n.ChaosRates[0] != 0 || n.ChaosRates[1] != 0.01 || n.ChaosRates[2] != 0.001 {
		t.Fatalf("rates = %v, want [0 0.01 0.001]", n.ChaosRates)
	}
	if len(n.ChaosSeeds) != 3 || n.ChaosSeeds[0] != 1 || n.ChaosSeeds[2] != 3 {
		t.Fatalf("seeds = %v, want [1 2 3]", n.ChaosSeeds)
	}
	// Explicit seeds win over Trials.
	n = Spec{ChaosRates: []float64{0.01}, ChaosSeeds: []uint64{7, 9}, Trials: 5}.Normalize()
	if len(n.ChaosSeeds) != 2 || n.ChaosSeeds[0] != 7 {
		t.Fatalf("explicit seeds overridden: %v", n.ChaosSeeds)
	}
	// A tenancy-only spec does not drag in all ten solo apps.
	n = Spec{Tenancy: []string{"MVT+SRAD"}}.Normalize()
	if len(n.Apps) != 0 {
		t.Fatalf("tenancy-only spec defaulted apps: %v", n.Apps)
	}
	if got := len(n.units()); got != 1 {
		t.Fatalf("tenancy-only spec has %d app-axis units, want 1", got)
	}
}

func TestValidateChaosAndTenancyDimensions(t *testing.T) {
	bad := []struct {
		name string
		spec Spec
		want string
	}{
		{"NaN rate", Spec{ChaosRates: []float64{math.NaN()}}, "NaN"},
		{"negative rate", Spec{ChaosRates: []float64{-0.5}}, "negative"},
		{"super-unity rate", Spec{ChaosRates: []float64{1.5}}, "exceeds"},
		{"reserved seed", Spec{ChaosRates: []float64{0.01}, ChaosSeeds: []uint64{0}}, "reserved"},
		{"seeds without rate", Spec{ChaosSeeds: []uint64{1}}, "without a non-zero chaos rate"},
		{"negative trials", Spec{Trials: -1}, "negative trials"},
		{"unknown tenant", Spec{Tenancy: []string{"MVT+NOPE"}}, "NOPE"},
		{"too many tenants", Spec{Tenancy: []string{"MVT+SRAD+GEV+SSSP+BICG"}}, "VM-ID limit"},
		{"uneven partition", Spec{Tenancy: []string{"MVT+SRAD+GEV"}}, "partition"},
		{"empty mix", Spec{Tenancy: []string{"+"}}, "empty tenancy mix"},
		{"NaN scale", Spec{Scale: math.NaN()}, "NaN"},
		{"infinite scale", Spec{Scale: math.Inf(1)}, "infinite"},
		{"negative scale", Spec{Scale: -1}, "negative scale"},
	}
	for _, c := range bad {
		// Normalize must not repair a bad spec before Validate sees it.
		err := c.spec.Normalize().Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	good := Spec{Tenancy: []string{"MVT+SRAD"}, ChaosRates: []float64{0.01}, ChaosSeeds: []uint64{1, 2}}
	if err := good.Normalize().Validate(); err != nil {
		t.Fatalf("valid adversarial spec rejected: %v", err)
	}
}

func TestValidateRejectsUnknownNames(t *testing.T) {
	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{Apps: []string{"NOPE"}}, "valid"},
		{Spec{Schemes: []string{"warp-drive"}}, "valid"},
		{Spec{PageSizes: []string{"1G"}}, "valid"},
		{Spec{L2TLB: []int{-1}}, "valid"},
		{Spec{L2TLB: []int{24}}, "valid"},
		// A repeated row or point would weigh twice in the geomeans.
		{Spec{Apps: []string{"GUPS", "GUPS", "SRAD"}}, "GUPS named more than once"},
		{Spec{Tenancy: []string{"MVT+SRAD", "MVT+SRAD"}}, "tenancy mix MVT+SRAD named more than once"},
		{Spec{L2TLB: []int{512, 1024, 512}}, "L2 TLB size 512 named more than once"},
		{Spec{PageSizes: []string{"4K", "4K"}}, "page size 4K named more than once"},
	}
	for i, c := range cases {
		if err := c.spec.Normalize().Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid spec %+v", i, c.spec)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: error %q does not contain %q", i, err, c.want)
		}
	}
	if err := testSpec().Normalize().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestExpandOrderAndDigestsAreStable(t *testing.T) {
	runs := testSpec().Normalize().Expand()
	if len(runs) != 2*3*2 {
		t.Fatalf("expanded %d runs, want 12", len(runs))
	}
	// Digest must be a pure function of the run config: re-expansion
	// produces identical digests, and all digests are distinct.
	again := testSpec().Normalize().Expand()
	seen := map[string]bool{}
	for i := range runs {
		if runs[i] != again[i] {
			t.Fatalf("expansion not deterministic at %d: %+v vs %+v", i, runs[i], again[i])
		}
		d := runs[i].DigestHex()
		if d != again[i].DigestHex() {
			t.Fatalf("digest of %v not stable", runs[i])
		}
		if seen[d] {
			t.Fatalf("digest collision at %v", runs[i])
		}
		seen[d] = true
	}
}

func TestDigestSeparatesConfigAxes(t *testing.T) {
	base := Run{App: "ATAX", Scheme: "baseline", Scale: 0.05, L2TLB: 512, PageSize: "4K"}
	variants := []Run{
		{App: "SRAD", Scheme: "baseline", Scale: 0.05, L2TLB: 512, PageSize: "4K"},
		{App: "ATAX", Scheme: "ic+lds", Scale: 0.05, L2TLB: 512, PageSize: "4K"},
		{App: "ATAX", Scheme: "baseline", Scale: 0.1, L2TLB: 512, PageSize: "4K"},
		{App: "ATAX", Scheme: "baseline", Scale: 0.05, L2TLB: 1024, PageSize: "4K"},
		{App: "ATAX", Scheme: "baseline", Scale: 0.05, L2TLB: 512, PageSize: "2M"},
		{App: "ATAX", Scheme: "baseline", Scale: 0.05, L2TLB: 512, PageSize: "4K", ChaosSeed: 7, ChaosRate: 0.01},
		{App: "ATAX", Scheme: "baseline", Scale: 0.05, L2TLB: 512, PageSize: "4K", PerfectL2TLB: true},
		{App: "ATAX", Scheme: "baseline", Scale: 0.05, L2TLB: 512, PageSize: "4K", ICSharers: 8},
		{App: "ATAX", Scheme: "baseline", Scale: 0.05, L2TLB: 512, PageSize: "4K", WireLatencyIC: 10},
		{App: "ATAX", Scheme: "baseline", Scale: 0.05, L2TLB: 512, PageSize: "4K", WireLatencyLDS: 10},
		{App: "ATAX", Scheme: "baseline", Scale: 0.05, L2TLB: 512, PageSize: "4K", LDSSegmentBytes: 64},
	}
	for _, v := range variants {
		if v.Digest() == base.Digest() {
			t.Errorf("digest does not separate %v from %v", v, base)
		}
	}
	// The injection cap separates a chaos run from its uncapped twin.
	chaosRun := Run{App: "ATAX", Scheme: "baseline", Scale: 0.05, L2TLB: 512, PageSize: "4K", ChaosSeed: 7, ChaosRate: 0.01}
	capped := chaosRun
	capped.ChaosMax = 5
	if capped.Digest() == chaosRun.Digest() {
		t.Errorf("digest does not separate %v from %v", capped, chaosRun)
	}
	// Fields left at zero, or set to their Table 1 value, are the
	// default configuration and share its cache slot.
	same := base
	same.ICSharers, same.LDSSegmentBytes = 4, 32
	if same.Digest() != base.Digest() {
		t.Errorf("Table 1 values of the sensitivity fields moved the digest of %v", base)
	}
	// Digests of default runs are pinned: existing cache directories
	// and journals keep their slots.
	pinned := []struct {
		run  Run
		want string
	}{
		{Run{App: "ATAX", Scheme: "baseline", Scale: 1, L2TLB: 512, PageSize: "4K"}, "237b5c801fb97ae5"},
		{Run{App: "GUPS", Scheme: "ic+lds", Scale: 0.05, L2TLB: 512, PageSize: "4K"}, "9509df8265233114"},
		{Run{App: "MVT+SRAD", Tenants: "MVT+SRAD", Scheme: "ic+lds", Scale: 0.05, L2TLB: 512, PageSize: "4K"}, "4df198f6a9e5dc92"},
	}
	for _, p := range pinned {
		if got := p.run.DigestHex(); got != p.want {
			t.Errorf("digest of %v = %s, pinned %s", p.run, got, p.want)
		}
	}
}

// TestParallelMatchesSerial is the core determinism guarantee: the same
// campaign at procs=8 and procs=1 produces identical per-run digests
// and byte-identical aggregated JSON and CSV.
func TestParallelMatchesSerial(t *testing.T) {
	serial, err := Execute(testSpec(), Options{Procs: 1})
	if err != nil {
		t.Fatalf("serial campaign: %v", err)
	}
	parallel, err := Execute(testSpec(), Options{Procs: 8})
	if err != nil {
		t.Fatalf("parallel campaign: %v", err)
	}
	if len(serial.Records) != len(parallel.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(serial.Records), len(parallel.Records))
	}
	for i := range serial.Records {
		s, p := serial.Records[i], parallel.Records[i]
		if s.Digest != p.Digest {
			t.Errorf("record %d digest differs: %s vs %s", i, s.Digest, p.Digest)
		}
		if s.Results.Cycles != p.Results.Cycles || s.Results.PageWalks != p.Results.PageWalks {
			t.Errorf("record %d results differ: %v vs %v", i, s.Results, p.Results)
		}
	}
	sj, err := serial.Aggregate().JSON()
	if err != nil {
		t.Fatal(err)
	}
	pj, err := parallel.Aggregate().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, pj) {
		t.Fatalf("aggregate JSON differs between procs=1 and procs=8:\n--- serial ---\n%s\n--- parallel ---\n%s", sj, pj)
	}
	sc, _ := serial.Aggregate().CSV()
	pc, _ := parallel.Aggregate().CSV()
	if !bytes.Equal(sc, pc) {
		t.Fatalf("aggregate CSV differs between procs=1 and procs=8")
	}
}

// TestCacheServesSecondInvocation: re-running the same campaign in the
// same out dir must execute nothing and report 100% cache hits, and the
// aggregates must be byte-identical to the first invocation's.
func TestCacheServesSecondInvocation(t *testing.T) {
	dir := t.TempDir()
	first, err := Execute(testSpec(), Options{Procs: 4, OutDir: dir})
	if err != nil {
		t.Fatalf("first campaign: %v", err)
	}
	if first.Stats.Executed != first.Stats.Total {
		t.Fatalf("first campaign executed %d of %d", first.Stats.Executed, first.Stats.Total)
	}
	second, err := Execute(testSpec(), Options{Procs: 4, OutDir: dir})
	if err != nil {
		t.Fatalf("second campaign: %v", err)
	}
	if second.Stats.Executed != 0 || second.Stats.CacheHits != second.Stats.Total {
		t.Fatalf("second campaign not fully cached: %+v", second.Stats)
	}
	fj, _ := first.Aggregate().JSON()
	sj, _ := second.Aggregate().JSON()
	if !bytes.Equal(fj, sj) {
		t.Fatalf("cached aggregate differs from executed aggregate")
	}
}

// TestResumeSkipsCompletedRuns kills a journal mid-campaign (by
// truncating it to a prefix, plus a torn final line) and verifies the
// resumed campaign executes only the missing runs — completed ones are
// skipped, not recomputed.
func TestResumeSkipsCompletedRuns(t *testing.T) {
	dir := t.TempDir()
	full, err := Execute(testSpec(), Options{Procs: 1, OutDir: dir})
	if err != nil {
		t.Fatalf("full campaign: %v", err)
	}
	total := full.Stats.Total

	// Simulate the kill: keep the first half of the journal and append
	// a torn (half-written) record; empty the cache so resume can only
	// lean on the journal.
	journalPath := filepath.Join(dir, "journal.jsonl")
	data, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
	if len(lines) != total {
		t.Fatalf("journal has %d lines, want %d", len(lines), total)
	}
	keep := total / 2
	truncated := append(bytes.Join(lines[:keep], []byte("\n")), '\n')
	truncated = append(truncated, []byte(`{"digest":"deadbeef","run":{"app":"AT`)...)
	if err := os.WriteFile(journalPath, truncated, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, "cache")); err != nil {
		t.Fatal(err)
	}

	var executed atomic.Int64
	countingRun := func(r Run) (RunResult, error) {
		executed.Add(1)
		return ExecuteRun(r)
	}
	resumed, err := Execute(testSpec(), Options{Procs: 4, OutDir: dir, Resume: true, RunFn: countingRun})
	if err != nil {
		t.Fatalf("resumed campaign: %v", err)
	}
	if got := int(executed.Load()); got != total-keep {
		t.Fatalf("resume executed %d runs, want %d (journal had %d of %d)", got, total-keep, keep, total)
	}
	if resumed.Stats.JournalHits != keep {
		t.Fatalf("resume reported %d journal hits, want %d", resumed.Stats.JournalHits, keep)
	}
	// The resumed campaign's aggregate must match the uninterrupted one.
	fj, _ := full.Aggregate().JSON()
	rj, _ := resumed.Aggregate().JSON()
	if !bytes.Equal(fj, rj) {
		t.Fatalf("resumed aggregate differs from uninterrupted aggregate")
	}
}

// TestRetryOnSimError: structured simulation failures are retried with
// bounded attempts; success on a later attempt yields a normal record
// with the retry history, exhaustion yields a terminal failure that is
// journaled but not cached, and retried runs leave the aggregate
// byte-identical to a campaign that never failed.
func TestRetryOnSimError(t *testing.T) {
	spec := Spec{Apps: []string{"ATAX"}, Scale: 0.05}
	var calls atomic.Int64
	flaky := func(r Run) (RunResult, error) {
		if calls.Add(1) < 3 {
			return RunResult{}, &sim.SimError{Kind: sim.ErrWatchdog, Msg: "injected"}
		}
		return ExecuteRun(r)
	}
	c, err := Execute(spec, Options{Procs: 1, MaxAttempts: 3, Backoff: 1, RunFn: flaky})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	rec := c.Records[0]
	if rec.Failed() {
		t.Fatalf("run failed despite retry budget: %v", rec.Err)
	}
	if rec.Attempts != 3 || len(rec.RetryErrors) != 2 {
		t.Fatalf("attempts=%d retryErrors=%d, want 3/2", rec.Attempts, len(rec.RetryErrors))
	}
	if c.Stats.Retries != 2 {
		t.Fatalf("stats retries = %d, want 2", c.Stats.Retries)
	}

	// Exhaustion: always-failing run becomes a terminal, uncached failure.
	dir := t.TempDir()
	calls.Store(0)
	dead := func(r Run) (RunResult, error) {
		calls.Add(1)
		return RunResult{}, &sim.SimError{Kind: sim.ErrWatchdog, Msg: "always"}
	}
	c, err = Execute(spec, Options{Procs: 1, MaxAttempts: 2, Backoff: 1, OutDir: dir, RunFn: dead})
	if err != nil {
		t.Fatalf("campaign infrastructure error: %v", err)
	}
	if c.Stats.Failed != 1 || calls.Load() != 2 {
		t.Fatalf("failed=%d calls=%d, want 1 failure after 2 attempts", c.Stats.Failed, calls.Load())
	}
	if cache, _ := OpenCache(filepath.Join(dir, "cache")); cache.Len() != 0 {
		t.Fatalf("failed run was cached")
	}
	// Non-SimError failures are not retried.
	calls.Store(0)
	hardFail := func(r Run) (RunResult, error) {
		calls.Add(1)
		return RunResult{}, errors.New("infrastructure broke")
	}
	c, _ = Execute(spec, Options{Procs: 1, MaxAttempts: 5, Backoff: 1, RunFn: hardFail})
	if calls.Load() != 1 {
		t.Fatalf("non-SimError was retried %d times", calls.Load())
	}
	if c.Stats.Failed != 1 {
		t.Fatalf("non-SimError did not fail the run")
	}

	// Retry transparency: failing every run's first attempt on a
	// 2-worker pool costs exactly one retry per run, and the aggregate
	// is byte-identical to a clean campaign's.
	matrix := Spec{Apps: []string{"ATAX", "SRAD"}, Schemes: []string{"ic+lds"}, Scale: 0.05}
	clean, err := Execute(matrix, Options{Procs: 2})
	if err != nil {
		t.Fatalf("clean campaign: %v", err)
	}
	var attempted sync.Map
	failFirst := func(r Run) (RunResult, error) {
		if _, again := attempted.LoadOrStore(r.Digest(), true); !again {
			return RunResult{}, &sim.SimError{Kind: sim.ErrWatchdog, Msg: "first attempt"}
		}
		return ExecuteRun(r)
	}
	c, err = Execute(matrix, Options{Procs: 2, MaxAttempts: 3, Backoff: 1, RunFn: failFirst})
	if err != nil {
		t.Fatalf("retried campaign: %v", err)
	}
	if len(c.Records) != 4 {
		t.Fatalf("got %d records, want 4", len(c.Records))
	}
	for _, rec := range c.Records {
		if rec.Attempts != 2 {
			t.Errorf("%s: attempts = %d, want 2", rec.Run, rec.Attempts)
		}
	}
	want, err := clean.Aggregate().JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Aggregate().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("aggregate after retries differs from a clean campaign:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestFailedRunsExcludedFromAggregate: a failing scheme leaves a
// Missing marker instead of poisoning the tables.
func TestFailedRunsExcludedFromAggregate(t *testing.T) {
	spec := Spec{Apps: []string{"ATAX"}, Schemes: []string{"lds"}, Scale: 0.05}
	failLDS := func(r Run) (RunResult, error) {
		if r.Scheme == "lds" {
			return RunResult{}, &sim.SimError{Kind: sim.ErrWatchdog, Msg: "boom"}
		}
		return ExecuteRun(r)
	}
	c, err := Execute(spec, Options{Procs: 1, MaxAttempts: 1, Backoff: 1, RunFn: failLDS})
	if err != nil {
		t.Fatal(err)
	}
	agg := c.Aggregate()
	pt := agg.Points[0]
	if len(pt.Missing) != 1 || pt.Missing[0] != "ATAX/lds" {
		t.Fatalf("missing = %v, want [ATAX/lds]", pt.Missing)
	}
	if _, ok := pt.Apps[0].Speedup["lds"]; ok {
		t.Fatalf("failed run produced a speedup cell")
	}
}

func TestJournalToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	want := Record{Digest: "0011223344556677", Run: Run{App: "ATAX", Scheme: "baseline"}}
	if err := j.Append(want); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(f, `{"digest":"torn`)
	f.Close()
	recs, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Digest != want.Digest {
		t.Fatalf("ReadJournal = %+v, want the one intact record", recs)
	}
}

// TestAggregateMatchesExperimentHarness cross-checks the sweep path
// against the existing experiment harness: the speedup the campaign
// computes for an app/scheme must equal the one core.Run reports
// directly.
func TestAggregateMatchesExperimentHarness(t *testing.T) {
	spec := Spec{Apps: []string{"ATAX"}, Schemes: []string{"ic+lds"}, Scale: 0.05}
	c, err := Execute(spec, Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	agg := c.Aggregate()
	got := agg.Points[0].Apps[0].Speedup["ic+lds"]

	w, _ := core.ResolveApps([]string{"ATAX"})
	base, err := core.Run(core.DefaultConfig(core.Baseline()), w[0], 0.05)
	if err != nil {
		t.Fatal(err)
	}
	comb, err := core.Run(core.DefaultConfig(core.Combined()), w[0], 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want := comb.Speedup(base)
	if got != want {
		t.Fatalf("sweep speedup %v != direct speedup %v", got, want)
	}
}

// TestWriteFileAtomic: the write-temp-and-rename helper replaces
// existing content whole and leaves no temporary behind, and when the
// rename fails the old content at the path is untouched.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "aggregate.json")
	for _, content := range []string{"old content, longer than the new\n", "new\n"} {
		if err := WriteFileAtomic(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != content {
			t.Fatalf("read back %q (err %v), want %q", got, err, content)
		}
	}

	// Renaming a file over a non-empty directory fails.
	blocked := filepath.Join(dir, "blocked")
	kept := filepath.Join(blocked, "kept.json")
	if err := os.MkdirAll(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(kept, []byte("kept\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(blocked, []byte("new\n")); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	if got, err := os.ReadFile(kept); err != nil || string(got) != "kept\n" {
		t.Fatalf("old content after failed rename: %q (err %v)", got, err)
	}

	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil || len(tmps) != 0 {
		t.Fatalf("temporaries left behind: %v (err %v)", tmps, err)
	}
}

// TestShuffledCompletionOrderMatchesSerial hardens the determinism
// guarantee beyond TestParallelMatchesSerial: there the workers race
// roughly uniformly, here each run is delayed so completion order is
// adversarially scrambled relative to spec-expansion order — early
// jobs finish last. The aggregate bytes must not care.
func TestShuffledCompletionOrderMatchesSerial(t *testing.T) {
	runs := testSpec().Normalize().Expand()
	delay := map[string]time.Duration{}
	for i, r := range runs {
		// Longest delay first: the first-dispatched jobs complete last.
		delay[r.DigestHex()] = time.Duration(len(runs)-i) * 3 * time.Millisecond
	}
	delayed := func(r Run) (RunResult, error) {
		time.Sleep(delay[r.DigestHex()])
		return ExecuteRun(r)
	}

	var order []string
	var mu sync.Mutex
	shuffled, err := Execute(testSpec(), Options{
		Procs: 8,
		RunFn: delayed,
		Progress: func(p Progress) {
			mu.Lock()
			order = append(order, p.Record.Digest)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("shuffled campaign: %v", err)
	}
	// Sanity: the delays really did scramble completion order.
	inOrder := true
	for i, r := range runs {
		if i >= len(order) || order[i] != r.DigestHex() {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Fatalf("completion order matched expansion order; delays failed to scramble")
	}

	serial, err := Execute(testSpec(), Options{Procs: 1})
	if err != nil {
		t.Fatalf("serial campaign: %v", err)
	}
	sj, err := serial.Aggregate().JSON()
	if err != nil {
		t.Fatal(err)
	}
	hj, err := shuffled.Aggregate().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, hj) {
		t.Fatalf("aggregate JSON depends on completion order:\n--- serial ---\n%s\n--- shuffled ---\n%s", sj, hj)
	}
	sc, _ := serial.Aggregate().CSV()
	hc, _ := shuffled.Aggregate().CSV()
	if !bytes.Equal(sc, hc) {
		t.Fatalf("aggregate CSV depends on completion order")
	}
}

// TestCacheFilesAreByteIdentical pins the WallMS-stripping rule: two
// independent campaigns over the same spec must write byte-identical
// cache files, because a cache entry's bytes depend only on the run
// config and its deterministic results — never on how long this
// machine took to execute it.
func TestCacheFilesAreByteIdentical(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	if _, err := Execute(testSpec(), Options{Procs: 4, OutDir: dirA}); err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(testSpec(), Options{Procs: 1, OutDir: dirB}); err != nil {
		t.Fatal(err)
	}
	readCache := func(dir string) map[string][]byte {
		files := map[string][]byte{}
		root := filepath.Join(dir, "cache")
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			data, rerr := os.ReadFile(path)
			files[rel] = data
			return rerr
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	a, b := readCache(dirA), readCache(dirB)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("cache file counts differ (or empty): %d vs %d", len(a), len(b))
	}
	for name, data := range a {
		if !bytes.Equal(data, b[name]) {
			t.Errorf("cache file %s differs between campaigns", name)
		}
	}
}

// sampledSpec is the sampled counterpart of testSpec: the same small
// matrix on a single L2-TLB size, executed in sampled mode.
func sampledSpec() Spec {
	return Spec{
		Apps:          []string{"GUPS", "SRAD"},
		Schemes:       []string{"lds", "ic+lds"},
		Scale:         0.05,
		SampleWindows: 6, SampleDetailFrac: 0.25, SampleSeed: 1,
	}
}

func TestSampledSpecNormalizeAndValidate(t *testing.T) {
	// Normalize fills the default detail fraction.
	n := Spec{SampleWindows: 4}.Normalize()
	if n.SampleDetailFrac == 0 {
		t.Fatal("Normalize left the sampled detail fraction unset")
	}
	// Sampling composes with neither chaos nor tenancy.
	bad := Spec{SampleWindows: 4, ChaosRates: []float64{0.01}}.Normalize()
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "chaos") {
		t.Fatalf("sampling+chaos validated: %v", err)
	}
	bad = Spec{SampleWindows: 4, Tenancy: []string{"MVT+SRAD"}}.Normalize()
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "tenancy") {
		t.Fatalf("sampling+tenancy validated: %v", err)
	}
	bad = Spec{SampleWindows: 4, SampleDetailFrac: 1.5}
	if err := bad.Validate(); err == nil {
		t.Fatal("detail fraction 1.5 validated")
	}
}

// TestSampledDigestSeparatesFromFullDetail pins the cache-keying rule:
// a sampled run must digest differently from the same run at full
// detail and from the same run at another sampling coordinate, while
// an unsampled Run's digest is untouched by the fields existing.
func TestSampledDigestSeparatesFromFullDetail(t *testing.T) {
	full := Run{App: "GUPS", Scheme: "lds", Scale: 0.05, L2TLB: 512, PageSize: "4K"}
	samp := full
	samp.SampleWindows, samp.SampleDetailFrac, samp.SampleSeed = 6, 0.25, 1
	if full.Digest() == samp.Digest() {
		t.Fatal("sampled run shares the full-detail cache digest")
	}
	reseed := samp
	reseed.SampleSeed = 2
	if samp.Digest() == reseed.Digest() {
		t.Fatal("different sampling seeds share a cache digest")
	}
	if !strings.Contains(samp.String(), "sampled windows=6") {
		t.Fatalf("sampled run label missing sampling coordinate: %s", samp)
	}
}

// TestSampledCampaignDeterministicAndCached runs the sampled matrix at
// procs 1 and 4: estimates, window digests and aggregates must be
// byte-identical, every record must journal its CI alongside the point
// estimate, and a second campaign over the same dir must be served
// entirely from cache with the estimates intact.
func TestSampledCampaignDeterministicAndCached(t *testing.T) {
	dir := t.TempDir()
	serial, err := Execute(sampledSpec(), Options{Procs: 1})
	if err != nil {
		t.Fatalf("serial campaign: %v", err)
	}
	par, err := Execute(sampledSpec(), Options{Procs: 4, OutDir: dir})
	if err != nil {
		t.Fatalf("parallel campaign: %v", err)
	}
	for i := range serial.Records {
		s, p := serial.Records[i], par.Records[i]
		if s.Sampled == nil || p.Sampled == nil {
			t.Fatalf("record %d missing sampling estimate", i)
		}
		if s.Sampled.Digest != p.Sampled.Digest || s.Sampled.ScheduleDigest != p.Sampled.ScheduleDigest {
			t.Errorf("record %d window digests differ across procs: %s/%s vs %s/%s",
				i, s.Sampled.Digest, s.Sampled.ScheduleDigest, p.Sampled.Digest, p.Sampled.ScheduleDigest)
		}
		if s.Results.Cycles != p.Results.Cycles {
			t.Errorf("record %d extrapolated cycles differ: %d vs %d", i, s.Results.Cycles, p.Results.Cycles)
		}
		if v := s.Metrics.Get("cycles_ci95"); v != s.Sampled.Cycles.CI95 {
			t.Errorf("record %d journals cycles_ci95=%v, estimate says %v", i, v, s.Sampled.Cycles.CI95)
		}
	}
	sj, _ := serial.Aggregate().JSON()
	pj, _ := par.Aggregate().JSON()
	if !bytes.Equal(sj, pj) {
		t.Fatal("sampled aggregate JSON differs between procs=1 and procs=4")
	}

	cached, err := Execute(sampledSpec(), Options{Procs: 4, OutDir: dir})
	if err != nil {
		t.Fatalf("cached campaign: %v", err)
	}
	if cached.Stats.Executed != 0 || cached.Stats.CacheHits != cached.Stats.Total {
		t.Fatalf("second sampled campaign not fully cached: %+v", cached.Stats)
	}
	for i, rec := range cached.Records {
		if rec.Sampled == nil || rec.Sampled.Digest != par.Records[i].Sampled.Digest {
			t.Fatalf("record %d lost its sampling estimate through the cache", i)
		}
	}

	// A different sampling seed is a different campaign: nothing may be
	// served from the first seed's cache slots.
	other := sampledSpec()
	other.SampleSeed = 2
	reseed, err := Execute(other, Options{Procs: 4, OutDir: dir})
	if err != nil {
		t.Fatalf("reseeded campaign: %v", err)
	}
	if reseed.Stats.CacheHits != 0 || reseed.Stats.Executed != reseed.Stats.Total {
		t.Fatalf("reseeded sampled campaign hit the old cache: %+v", reseed.Stats)
	}
}
