package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gpureach/internal/core"
	"gpureach/internal/sim"
	"gpureach/internal/sweep"
)

// fakeResult is a deterministic pure function of the run descriptor,
// standing in for the simulator in tests that exercise the service
// machinery rather than the timing model.
func fakeResult(run sweep.Run) sweep.RunResult {
	return sweep.RunResult{Results: core.Results{
		App:          run.App,
		Scheme:       run.Scheme,
		Cycles:       sim.Time(1000 + 37*len(run.App) + 11*len(run.Scheme) + 3*run.SampleWindows),
		WaveInstrs:   500,
		ThreadInstrs: 32000,
		KernelsRun:   1,
	}}
}

func countingRunFn(calls *atomic.Int64) func(sweep.Run) (sweep.RunResult, error) {
	return func(run sweep.Run) (sweep.RunResult, error) {
		calls.Add(1)
		return fakeResult(run), nil
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func waitDone(t *testing.T, c *Campaign) {
	t.Helper()
	select {
	case <-c.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("campaign %s did not finish (state %s, counts %+v)", c.ID, c.State(), c.Counts())
	}
}

// TestServeAggregateMatchesCLISweep is the service's headline SLA: the
// bytes GET /campaigns/{id}/aggregate returns for a spec are exactly
// the bytes the CLI sweep writes for the same spec — same simulator,
// same aggregation, same encoding.
func TestServeAggregateMatchesCLISweep(t *testing.T) {
	srv := newTestServer(t, Config{})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const specJSON = `{"apps":["ATAX"],"schemes":["lds"],"scale":0.05}`
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if sub.Total != 2 { // ATAX x {baseline, lds}
		t.Fatalf("total = %d, want 2", sub.Total)
	}

	c, ok := srv.Campaign(sub.ID)
	if !ok {
		t.Fatalf("campaign %s not registered", sub.ID)
	}
	waitDone(t, c)
	if c.State() != StateDone {
		t.Fatalf("state = %s (err %q), want done", c.State(), c.Err())
	}

	get := func(path string) []byte {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, resp.StatusCode)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return buf.Bytes()
	}
	gotJSON := get("/campaigns/" + sub.ID + "/aggregate")
	gotCSV := get("/campaigns/" + sub.ID + "/aggregate.csv")

	var spec sweep.Spec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		t.Fatal(err)
	}
	cli, err := sweep.Execute(spec, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	agg := cli.Aggregate()
	wantJSON, err := agg.JSON()
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, err := agg.CSV()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("aggregate JSON differs from CLI sweep:\nserve: %s\ncli:   %s", gotJSON, wantJSON)
	}
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Errorf("aggregate CSV differs from CLI sweep:\nserve: %s\ncli:   %s", gotCSV, wantCSV)
	}

	// The same bytes are on disk in the campaign directory, where the
	// CLI sweep tooling can pick them up.
	onDisk, err := os.ReadFile(filepath.Join(c.Dir, "aggregate.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, gotJSON) {
		t.Error("campaign-dir aggregate.json differs from the HTTP artifact")
	}
}

// TestServeSharedCacheAcrossCampaigns: a second submission of the same
// spec is served entirely from the content-addressed store — zero new
// executions, byte-identical aggregate.
func TestServeSharedCacheAcrossCampaigns(t *testing.T) {
	var calls atomic.Int64
	srv := newTestServer(t, Config{RunFn: countingRunFn(&calls)})
	defer srv.Drain()

	spec := sweep.Spec{Apps: []string{"ATAX", "GUPS"}, Schemes: []string{"ic+lds"}, Scale: 0.05}
	c1, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c1)
	if got := calls.Load(); got != 4 {
		t.Fatalf("executions after first campaign = %d, want 4", got)
	}

	c2, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c2)
	if got := calls.Load(); got != 4 {
		t.Fatalf("executions after second campaign = %d, want still 4", got)
	}
	counts := c2.Counts()
	if counts.CacheHits != 4 || counts.Executed != 0 {
		t.Fatalf("second campaign counts = %+v, want 4 cache hits, 0 executed", counts)
	}

	j1, _, _ := c1.Aggregate()
	j2, _, _ := c2.Aggregate()
	if !bytes.Equal(j1, j2) {
		t.Error("cache-served campaign aggregate differs from the executed one")
	}

	m := srv.Metrics()
	if hits := m.Get("runs_cache_hits"); hits != 4 {
		t.Errorf("runs_cache_hits = %v, want 4", hits)
	}
}

// TestServeCoalescesOverlappingCampaigns: two campaigns racing on the
// same spec share in-flight executions MSHR-style — the duplicate
// piggybacks instead of re-running or waiting for the cache.
func TestServeCoalescesOverlappingCampaigns(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	srv := newTestServer(t, Config{
		Procs: 2,
		RunFn: func(run sweep.Run) (sweep.RunResult, error) {
			calls.Add(1)
			started <- struct{}{}
			<-release
			return fakeResult(run), nil
		},
	})
	defer srv.Drain()

	spec := sweep.Spec{Apps: []string{"ATAX"}, Scale: 0.05} // 1 run: ATAX x baseline
	c1, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-started // the single run is in flight and gated

	c2, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for c2's runner to hand its (duplicate) run to the engine;
	// the flight is still gated, so the submission must coalesce onto
	// it rather than execute or hit the cache.
	deadline := time.Now().Add(30 * time.Second)
	for srv.eng.Counters().Submitted < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second campaign never submitted its run")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	waitDone(t, c1)
	waitDone(t, c2)
	if got := calls.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1 (duplicate coalesced)", got)
	}
	if n := c1.Counts().Coalesced + c2.Counts().Coalesced; n != 1 {
		t.Fatalf("coalesced completions = %d, want exactly 1", n)
	}
	j1, _, _ := c1.Aggregate()
	j2, _, _ := c2.Aggregate()
	if !bytes.Equal(j1, j2) {
		t.Error("coalesced campaign aggregate differs from the executing one")
	}
	if got := srv.Metrics().Get("runs_coalesced"); got != 1 {
		t.Errorf("runs_coalesced = %v, want 1", got)
	}
}

// TestServeBackpressure: submissions beyond MaxCampaigns get 429 with a
// Retry-After hint and leave no half-registered campaign behind; the
// slot frees when the running campaign finishes.
func TestServeBackpressure(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	srv := newTestServer(t, Config{
		MaxCampaigns: 1,
		RetryAfter:   7 * time.Second,
		RunFn: func(run sweep.Run) (sweep.RunResult, error) {
			started <- struct{}{}
			<-release
			return fakeResult(run), nil
		},
	})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const specJSON = `{"apps":["ATAX"],"scale":0.05}`
	post := func() *http.Response {
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(specJSON))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	first := post()
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", first.StatusCode)
	}
	<-started // queue slot is held by the gated run

	second := post()
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %d, want 429", second.StatusCode)
	}
	if got := second.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want \"7\"", got)
	}
	if n := len(srv.Campaigns()); n != 1 {
		t.Fatalf("campaigns registered = %d, want 1 (rejection must not half-register)", n)
	}

	close(release)
	var sub SubmitResponse
	json.NewDecoder(first.Body).Decode(&sub)
	c, _ := srv.Campaign(sub.ID)
	waitDone(t, c)

	third := post()
	if third.StatusCode != http.StatusAccepted {
		t.Fatalf("post-completion submit = %d, want 202 (slot freed)", third.StatusCode)
	}
}

// TestServeDrainInterruptsThenResume: a drain mid-campaign journals
// every completed run, parks the campaign in StateInterrupted, and the
// advertised `gpureach sweep -resume -out <dir>` completes exactly the
// missing runs.
func TestServeDrainInterruptsThenResume(t *testing.T) {
	var resuming atomic.Bool
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	runFn := func(run sweep.Run) (sweep.RunResult, error) {
		if !resuming.Load() && run.App == "ATAX" && run.Scheme == "baseline" {
			started <- struct{}{}
			<-release
		}
		return fakeResult(run), nil
	}
	srv := newTestServer(t, Config{Procs: 1, RunFn: runFn})

	// 2 apps x {baseline, lds} = 4 runs; expansion starts with
	// ATAX/baseline, which is gated.
	spec := sweep.Spec{Apps: []string{"ATAX", "GUPS"}, Schemes: []string{"lds"}, Scale: 0.05}
	c, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-started // run 1 in flight; with procs=1 the runner is blocked submitting run 2

	drained := make(chan struct{})
	go func() { srv.Drain(); close(drained) }()
	deadline := time.Now().Add(30 * time.Second)
	for !srv.stopping() {
		if time.Now().After(deadline) {
			t.Fatal("drain never signalled stop")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	waitDone(t, c)
	<-drained

	if c.State() != StateInterrupted {
		t.Fatalf("state = %s, want interrupted", c.State())
	}
	counts := c.Counts()
	if counts.Completed == 0 || counts.Completed == counts.Total {
		t.Fatalf("completed = %d of %d, want a strict partial prefix", counts.Completed, counts.Total)
	}

	// A drained server refuses new work with 503.
	if _, err := srv.Submit(spec); err == nil {
		t.Fatal("submit after drain succeeded, want 503")
	} else if he, ok := err.(*HTTPError); !ok || he.Status != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain = %v, want 503", err)
	}

	// The journal holds exactly the completed runs...
	journaled, err := sweep.ReadJournal(filepath.Join(c.Dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(journaled) != counts.Completed {
		t.Fatalf("journaled = %d records, counts say %d", len(journaled), counts.Completed)
	}

	// ...and the advertised resume command line completes the rest.
	resuming.Store(true)
	resumed, err := sweep.Execute(spec, sweep.Options{
		OutDir: c.Dir, Resume: true, Procs: 1, RunFn: runFn,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Stats.JournalHits != counts.Completed {
		t.Fatalf("resume journal hits = %d, want %d", resumed.Stats.JournalHits, counts.Completed)
	}
	if resumed.Stats.Executed != counts.Total-counts.Completed {
		t.Fatalf("resume executed = %d, want %d", resumed.Stats.Executed, counts.Total-counts.Completed)
	}

	// The resumed aggregate is byte-identical to an uninterrupted run.
	clean, err := sweep.Execute(spec, sweep.Options{RunFn: runFn})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := clean.Aggregate().JSON()
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := resumed.Aggregate().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("resumed aggregate differs from uninterrupted aggregate")
	}
}

// TestServeTornTailJournalTolerated: concurrent campaigns journal
// independently, and a torn final line (the remnant of a killed
// process) costs a resume at most the torn run.
func TestServeTornTailJournalTolerated(t *testing.T) {
	var calls atomic.Int64
	srv := newTestServer(t, Config{Procs: 4, RunFn: countingRunFn(&calls)})

	// Two campaigns with disjoint specs running concurrently, so their
	// journal writes interleave in time on the shared pool.
	specA := sweep.Spec{Apps: []string{"ATAX", "GUPS"}, Schemes: []string{"lds"}, Scale: 0.05}
	specB := sweep.Spec{Apps: []string{"MVT", "BICG"}, Schemes: []string{"ic+lds"}, Scale: 0.05}
	ca, err := srv.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := srv.Submit(specB)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ca)
	waitDone(t, cb)
	srv.Drain()

	for _, c := range []*Campaign{ca, cb} {
		recs, err := sweep.ReadJournal(filepath.Join(c.Dir, "journal.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != c.Counts().Total {
			t.Fatalf("campaign %s journal = %d records, want %d", c.ID, len(recs), c.Counts().Total)
		}
	}

	// Tear campaign A's journal: drop its last line mid-record, the
	// way a kill mid-write does.
	jpath := filepath.Join(ca.Dir, "journal.jsonl")
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	var torn []byte
	for _, l := range lines[:len(lines)-2] {
		torn = append(torn, l...)
	}
	last := lines[len(lines)-2]
	torn = append(torn, last[:len(last)/2]...) // half a record, no newline
	if err := os.WriteFile(jpath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, err := sweep.ReadJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if want := ca.Counts().Total - 1; len(recs) != want {
		t.Fatalf("torn journal = %d records, want %d (tail dropped, prefix intact)", len(recs), want)
	}

	// Resume re-runs exactly the torn record. The fresh OutDir cache is
	// empty (the server's shared cache lives elsewhere), so the one
	// missing run executes.
	before := calls.Load()
	resumed, err := sweep.Execute(specA, sweep.Options{
		OutDir: ca.Dir, Resume: true, RunFn: countingRunFn(&calls),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Stats.JournalHits != ca.Counts().Total-1 || resumed.Stats.Executed != 1 {
		t.Fatalf("resume stats = %+v, want %d journal hits and 1 executed",
			resumed.Stats, ca.Counts().Total-1)
	}
	if calls.Load()-before != 1 {
		t.Fatalf("resume executed %d runs, want 1", calls.Load()-before)
	}
}

// TestServeSampledAndFullDigestsNeverCollide: a sampled campaign and a
// full-detail campaign over the same matrix must never share cache
// entries — the sampling coordinate is part of the digest.
func TestServeSampledAndFullDigestsNeverCollide(t *testing.T) {
	var calls atomic.Int64
	dataDir := t.TempDir()
	srv := newTestServer(t, Config{DataDir: dataDir, RunFn: countingRunFn(&calls)})
	defer srv.Drain()

	full := sweep.Spec{Apps: []string{"ATAX"}, Scale: 0.05}
	sampled := sweep.Spec{Apps: []string{"ATAX"}, Scale: 0.05, SampleWindows: 4}

	c1, err := srv.Submit(full)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c1)
	c2, err := srv.Submit(sampled)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c2)

	if got := calls.Load(); got != 2 {
		t.Fatalf("executions = %d, want 2 (sampled run must not be served from the full-detail entry)", got)
	}
	counts := c2.Counts()
	if counts.CacheHits != 0 || counts.Coalesced != 0 {
		t.Fatalf("sampled campaign counts = %+v, want no cache hits or coalesces", counts)
	}

	entries, err := filepath.Glob(filepath.Join(dataDir, "cache", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("cache entries = %d, want 2 distinct digests", len(entries))
	}
}

// TestServeEventsStream: /events replays the journal as NDJSON and
// stays attached for live completions until the campaign finalizes;
// an SSE Accept header switches the framing.
func TestServeEventsStream(t *testing.T) {
	gate := make(chan struct{}, 4)
	srv := newTestServer(t, Config{
		Procs: 1,
		RunFn: func(run sweep.Run) (sweep.RunResult, error) {
			<-gate
			return fakeResult(run), nil
		},
	})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := sweep.Spec{Apps: []string{"ATAX", "GUPS"}, Scale: 0.05} // 2 runs
	gate <- struct{}{}                                              // let run 1 complete
	c, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Attach while the campaign is mid-flight: the stream must replay
	// what is already journaled, then deliver the rest live.
	deadline := time.Now().Add(30 * time.Second)
	for c.Counts().Completed < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first run never completed")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/campaigns/" + c.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}

	lines := make(chan string)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	readLine := func() (string, bool) {
		select {
		case l, ok := <-lines:
			return l, ok
		case <-time.After(30 * time.Second):
			t.Fatal("event stream stalled")
			return "", false
		}
	}

	first, ok := readLine()
	if !ok {
		t.Fatal("stream closed before replay")
	}
	gate <- struct{}{} // release run 2 only after the replay arrived
	second, ok := readLine()
	if !ok {
		t.Fatal("stream closed before the live event")
	}
	if _, open := readLine(); open {
		t.Fatal("stream did not close at campaign completion")
	}
	waitDone(t, c)

	// Each line is a journal record; together they mirror the journal.
	for i, line := range []string{first, second} {
		var rec sweep.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("event %d is not a record: %v", i, err)
		}
	}
	journalData, err := os.ReadFile(filepath.Join(c.Dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if want := first + "\n" + second + "\n"; string(journalData) != want {
		t.Errorf("event stream bytes differ from the journal:\nstream:  %q\njournal: %q", want, journalData)
	}

	// SSE framing on request.
	req, _ := http.NewRequest("GET", ts.URL+"/campaigns/"+c.ID+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(sresp.Body)
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE Content-Type = %q", ct)
	}
	if got := strings.Count(buf.String(), "data: "); got != 2 {
		t.Fatalf("SSE events = %d, want 2:\n%s", got, buf.String())
	}
}

// TestServeHTTPSurface covers the API's edge responses: bad specs,
// unknown campaigns, not-ready artifacts, health and catalog.
func TestServeHTTPSurface(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	srv := newTestServer(t, Config{
		RetryAfter: 3 * time.Second,
		RunFn: func(run sweep.Run) (sweep.RunResult, error) {
			started <- struct{}{}
			<-release
			return fakeResult(run), nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Unknown field in the spec: 400, not a silent drop.
	resp, err := http.Post(ts.URL+"/campaigns", "application/json",
		strings.NewReader(`{"bogus_axis":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field spec = %d, want 400", resp.StatusCode)
	}

	// Invalid spec values: 400 with the validation message. A negative
	// scale is rejected, not normalized to 1.0; an L2 TLB size the
	// set-associative array cannot be built with is rejected here
	// instead of panicking the server mid-campaign.
	for _, c := range []struct{ body, want string }{
		{`{"apps":["NOSUCHAPP"]}`, "NOSUCHAPP"},
		{`{"apps":["ATAX"],"scale":-1}`, "negative scale"},
		{`{"apps":["ATAX"],"l2tlb":[24]}`, "positive multiple of 16"},
		{`{"apps":["GUPS","GUPS","SRAD"]}`, "GUPS named more than once"},
		{`{"apps":["ATAX"],"pagesizes":["4K","4K"]}`, "page size 4K named more than once"},
	} {
		resp, err = http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var msg map[string]string
		json.NewDecoder(resp.Body).Decode(&msg)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg["error"], c.want) {
			t.Fatalf("invalid spec %s = %d %v, want 400 naming %q", c.body, resp.StatusCode, msg, c.want)
		}
	}

	// Unknown campaign: 404 everywhere.
	for _, path := range []string{"/campaigns/nope", "/campaigns/nope/events", "/campaigns/nope/aggregate"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}

	// Aggregate of a still-running campaign: 409 with Retry-After.
	c, err := srv.Submit(sweep.Spec{Apps: []string{"ATAX"}, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	resp, err = http.Get(ts.URL + "/campaigns/" + c.ID + "/aggregate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mid-flight aggregate = %d, want 409", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("mid-flight Retry-After = %q, want \"3\"", got)
	}

	// Healthy while serving.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health HealthResponse
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !health.OK {
		t.Fatalf("healthz = %d %+v, want 200 ok", resp.StatusCode, health)
	}

	// Catalog lists the spec vocabulary.
	resp, err = http.Get(ts.URL + "/catalog")
	if err != nil {
		t.Fatal(err)
	}
	var catalog struct {
		Workloads []struct{ Name string } `json:"workloads"`
		Schemes   []struct{ Name string } `json:"schemes"`
		PageSizes []string                `json:"pagesizes"`
	}
	json.NewDecoder(resp.Body).Decode(&catalog)
	resp.Body.Close()
	if len(catalog.Workloads) == 0 || len(catalog.Schemes) == 0 || len(catalog.PageSizes) == 0 {
		t.Fatalf("catalog is missing axes: %+v", catalog)
	}

	// Metrics include the queue gauges.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var gauges map[string]float64
	json.NewDecoder(resp.Body).Decode(&gauges)
	resp.Body.Close()
	if gauges["queue_bound"] != 8 || gauges["queue_depth"] != 1 {
		t.Fatalf("metrics = %v, want queue_bound=8 queue_depth=1", gauges)
	}

	close(release)
	waitDone(t, c)

	// Robustness of a chaos-free campaign: 404 with an explanation.
	resp, err = http.Get(ts.URL + "/campaigns/" + c.ID + "/robustness")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("chaos-free robustness = %d, want 404", resp.StatusCode)
	}

	// Draining flips healthz to 503.
	srv.Drain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}

	// GET /campaigns lists every campaign in submission order.
	resp, err = http.Get(ts.URL + "/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var list []StatusResponse
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != c.ID || list[0].State != StateDone {
		t.Fatalf("campaign list = %+v, want the one done campaign", list)
	}
}

// TestServeRobustnessArtifact: a spec with chaos cells produces the
// robustness scorecard artifact, byte-identical to the CLI sweep's.
func TestServeRobustnessArtifact(t *testing.T) {
	runFn := func(run sweep.Run) (sweep.RunResult, error) {
		res := fakeResult(run)
		if run.ChaosRate > 0 {
			res.Results.Cycles += sim.Time(100 * run.ChaosSeed)
			res.Chaos = &sweep.ChaosOutcome{ScheduleDigest: fmt.Sprintf("d%x", run.ChaosSeed)}
		}
		return res, nil
	}
	srv := newTestServer(t, Config{RunFn: runFn})
	defer srv.Drain()

	spec := sweep.Spec{
		Apps: []string{"ATAX"}, Schemes: []string{"lds"}, Scale: 0.05,
		ChaosRates: []float64{1e-4}, Trials: 2,
	}
	c, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c)
	if c.State() != StateDone {
		t.Fatalf("state = %s (err %q)", c.State(), c.Err())
	}
	got, _, ok := c.Robustness()
	if !ok {
		t.Fatal("no robustness artifact for a chaos campaign")
	}

	cli, err := sweep.Execute(spec, sweep.Options{RunFn: runFn})
	if err != nil {
		t.Fatal(err)
	}
	want, err := cli.Robustness().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("robustness differs from CLI sweep:\nserve: %s\ncli:   %s", got, want)
	}
}
