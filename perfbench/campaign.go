package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gpureach/internal/serve"
	"gpureach/internal/sweep"
	"gpureach/internal/workloads"
)

const (
	// warmSubmissions is the number of single-app sub-campaigns each
	// warm pass submits: with 240 samples, 12 fall beyond p95.
	warmSubmissions = 240
	// warmClients is the number of closed-loop HTTP clients, each on
	// its own connection.
	warmClients = 2
)

// campaignWorkload runs, per iteration, a cold sampled sweep of every
// app × {baseline, lds, ic-aware+flush, ic+lds} into a fresh directory,
// then a warm pass: a serve instance over that directory answering
// closed-loop submissions that are all cache hits.
type campaignWorkload struct {
	procs int
	spec  sweep.Spec
	// order is the seeded order of warm-pass submissions (app names).
	order []string
	dirs  int
	// ref maps each run digest to the Results JSON of the first
	// iteration; records are the first iteration's, replayed by finish.
	ref     map[string][]byte
	records []sweep.Record
	// counts are the first iteration's checked counts (checkCounts).
	counts map[string]float64
}

func newCampaign(b *bench, procs int) *campaignWorkload {
	all := workloads.All()
	w := &campaignWorkload{procs: procs, ref: map[string][]byte{}}
	for _, i := range b.rng.Perm(len(all)) {
		w.spec.Apps = append(w.spec.Apps, all[i].Name)
	}
	schemes := []string{"lds", "ic-aware+flush", "ic+lds"}
	for _, i := range b.rng.Perm(len(schemes)) {
		w.spec.Schemes = append(w.spec.Schemes, schemes[i])
	}
	w.spec.Scale = b.opts.Scale
	w.spec.SampleWindows = 8
	w.spec.SampleDetailFrac = 0.05
	w.spec.SampleSeed = b.opts.Seed
	for len(w.order) < warmSubmissions {
		for _, i := range b.rng.Perm(len(w.spec.Apps)) {
			w.order = append(w.order, w.spec.Apps[i])
		}
	}
	w.order = w.order[:warmSubmissions]
	return w
}

// subSpec is the single-app sub-campaign the warm pass submits.
func (w *campaignWorkload) subSpec(app string) sweep.Spec {
	s := w.spec
	s.Apps = []string{app}
	return s
}

func (w *campaignWorkload) iterate(b *bench) (iteration, error) {
	it := iteration{}
	alloc0 := allocBytes()
	iter := b.tr.start("iteration", "", 0)
	defer b.tr.end(iter)

	dir, mkdir, err := w.freshDir(b)
	defer os.RemoveAll(dir)
	if err != nil {
		return it, err
	}
	cold, err := w.cold(b, dir, iter)
	if err != nil {
		return it, err
	}
	warm, err := w.warm(b, dir, cold, iter)
	if err != nil {
		return it, err
	}
	it.Setup = mkdir + warm.setup
	it.Run = cold.wall + warm.wall
	it.AllocBytes = allocBytes() - alloc0
	it.Values = cold.values
	for k, v := range warm.values {
		it.Values[k] = v
	}
	w.checkCounts(b, it.Values)
	return it, nil
}

// repeatedCounts are the campaign's deterministic counts.
var repeatedCounts = []string{
	"sweep.executed", "sweep.retries", "sweep.failed", "sample.windows_measured", "serve.runs_executed",
}

// checkCounts checks the iteration's deterministic counts against the
// first iteration's. Cache hits and coalesced runs are checked as a
// sum: two clients submitting the same app at once may see a run
// coalesced instead of read from the cache.
func (w *campaignWorkload) checkCounts(b *bench, v map[string]float64) {
	counts := map[string]float64{"served": v["serve.runs_cache_hits"] + v["serve.runs_coalesced"]}
	for _, k := range repeatedCounts {
		counts[k] = v[k]
	}
	if w.counts == nil {
		w.counts = counts
		return
	}
	b.check(maps.Equal(w.counts, counts), "campaign counts differ from the first iteration's: %s", countDiff(w.counts, counts))
}

// setup is the workload's set-up alone: a fresh directory and a server
// started over it.
func (w *campaignWorkload) setup(b *bench) (time.Duration, error) {
	dir, mkdir, err := w.freshDir(b)
	defer os.RemoveAll(dir)
	if err != nil {
		return 0, err
	}
	srv, err := startServer(dir, w.procs)
	if err != nil {
		return 0, err
	}
	srv.stop()
	return mkdir + srv.startup, nil
}

// freshDir creates a new, empty campaign directory and times it.
func (w *campaignWorkload) freshDir(b *bench) (string, time.Duration, error) {
	w.dirs++
	dir := filepath.Join(b.opts.Dir, "campaigns", fmt.Sprintf("%d-%d", os.Getpid(), w.dirs))
	t0 := time.Now()
	err := os.MkdirAll(dir, 0o755)
	return dir, time.Since(t0), err
}

type coldOut struct {
	wall    time.Duration
	aggJSON []byte
	records []sweep.Record
	values  map[string]float64
}

// cold executes the campaign through sweep.Execute with the RunFn seam
// wrapped around sweep.ExecuteRun, then aggregates it and writes the
// aggregate files, as the sweep command does.
func (w *campaignWorkload) cold(b *bench, dir string, parent int) (coldOut, error) {
	var out coldOut
	type call struct{ start, dur time.Duration }
	var mu sync.Mutex
	var calls []call

	start := time.Now()
	exec := b.tr.start("execute", "", parent)
	runFn := func(r sweep.Run) (sweep.RunResult, error) {
		t := time.Now()
		sp := b.tr.start("runfn", r.DigestHex(), exec)
		rr, err := sweep.ExecuteRun(r)
		b.tr.end(sp)
		mu.Lock()
		calls = append(calls, call{t.Sub(start), time.Since(t)})
		mu.Unlock()
		return rr, err
	}
	c, err := sweep.Execute(w.spec, sweep.Options{Procs: w.procs, OutDir: dir, RunFn: runFn})
	execWall := time.Since(start)
	b.tr.end(exec)
	if err != nil {
		return out, fmt.Errorf("cold pass: %w", err)
	}

	sp := b.tr.start("aggregate", "", parent)
	t := time.Now()
	agg := c.Aggregate()
	aggJSON, err := agg.JSON()
	if err != nil {
		return out, err
	}
	aggCSV, err := agg.CSV()
	if err != nil {
		return out, err
	}
	if err := os.WriteFile(filepath.Join(dir, "aggregate.json"), aggJSON, 0o644); err != nil {
		return out, err
	}
	if err := os.WriteFile(filepath.Join(dir, "aggregate.csv"), aggCSV, 0o644); err != nil {
		return out, err
	}
	aggDur := time.Since(t)
	b.tr.end(sp)
	out.wall = time.Since(start)
	out.aggJSON = aggJSON
	out.records = c.Records

	b.check(c.Stats.Executed == c.Stats.Total && c.Stats.Failed == 0 && c.Stats.Retries == 0,
		"cold pass: %d of %d runs executed, %d failed, %d retries", c.Stats.Executed, c.Stats.Total, c.Stats.Failed, c.Stats.Retries)
	var windows, ciRel float64
	for _, rec := range c.Records {
		if !b.check(!rec.Failed(), "cold run %s failed: %s", rec.Run, rec.Err) {
			continue
		}
		est := rec.Sampled
		if !b.check(est != nil && finite(est.Cycles.CI95) && finite(est.Cycles.Mean) && est.Cycles.Mean > 0,
			"cold run %s: no estimate with a finite CI", rec.Run) {
			continue
		}
		windows += float64(est.Cycles.N)
		ciRel += est.Cycles.CI95 / est.Cycles.Mean
		data, err := json.Marshal(rec.Results)
		if err != nil {
			return out, err
		}
		if ref, ok := w.ref[rec.Digest]; !ok {
			w.ref[rec.Digest] = data
		} else {
			b.check(bytes.Equal(ref, data), "cold run %s: Results differ from the first iteration's", rec.Run)
		}
	}
	if w.records == nil {
		w.records = c.Records
	}

	durs, starts := make([]float64, len(calls)), make([]float64, len(calls))
	var busy time.Duration
	for i, cl := range calls {
		durs[i], starts[i] = ms(cl.dur), ms(cl.start)
		busy += cl.dur
	}
	geomean := 0.0
	if len(agg.Points) > 0 {
		geomean = agg.Points[0].GeomeanSpeedup["ic+lds"]
	}
	out.values = map[string]float64{
		"sweep.runfn_ms_p50":      median(durs),
		"sweep.runfn_ms_max":      quantile(durs, 1),
		"sweep.queue_wait_ms_p50": median(starts),
		"sweep.pool_busy_frac":    ratio(busy.Seconds(), float64(w.procs)*execWall.Seconds()),
		"sweep.aggregate_ms":      ms(aggDur),
		"sweep.executed":          float64(c.Stats.Executed),
		"sweep.retries":           float64(c.Stats.Retries),
		"sweep.failed":            float64(c.Stats.Failed),
		"campaign_runs_per_s":     float64(c.Stats.Total) / out.wall.Seconds(),
		"sample.windows_measured": windows,
		"sample.cycles_ci95_rel":  ratio(ciRel, float64(len(c.Records))),
		"sim.ic_lds_geomean":      geomean,
	}
	return out, nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

type warmOut struct {
	// setup is the server's start-up; wall is the rest of the pass.
	setup, wall time.Duration
	values      map[string]float64
}

// reqTiming splits one warm-pass request: POST /campaigns answered,
// event stream ended (campaign complete), aggregate body read.
type reqTiming struct{ submit, complete, fetch time.Duration }

func (t reqTiming) total() time.Duration { return t.submit + t.complete + t.fetch }

// warm serves the cold pass's directory over loopback HTTP. It first
// re-submits the full cold matrix, whose served aggregate must be
// byte-identical to the cold pass's aggregate.json, then lets
// warmClients closed-loop clients submit the seeded list of single-app
// sub-campaigns, each checked against an aggregate of the cold records.
func (w *campaignWorkload) warm(b *bench, dir string, cold coldOut, parent int) (warmOut, error) {
	var out warmOut
	srv, err := startServer(dir, w.procs)
	if err != nil {
		return out, err
	}
	defer srv.stop()
	out.setup = srv.startup
	start := time.Now()

	_, body, err := w.request(b, srv, w.spec, parent)
	b.check(err == nil && bytes.Equal(body, cold.aggJSON),
		"warm full-matrix aggregate is not byte-identical to the cold aggregate.json (err %v)", err)

	expected, err := w.expectedAggregates(cold.records)
	if err != nil {
		return out, err
	}
	var next atomic.Int64
	timings := make([][]reqTiming, warmClients)
	var wg sync.WaitGroup
	for c := 0; c < warmClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(w.order) {
					return
				}
				app := w.order[i]
				t, body, err := w.request(b, srv, w.subSpec(app), parent)
				if !b.check(err == nil, "warm submission %s: %v", app, err) {
					continue
				}
				b.check(bytes.Equal(body, expected[app]), "warm submission %s: served aggregate differs from the cold records' aggregate", app)
				timings[c] = append(timings[c], t)
			}
		}(c)
	}
	wg.Wait()

	data, err := get(srv.client, srv.base+"/metrics")
	if err != nil {
		return out, err
	}
	var m map[string]float64
	if err := json.Unmarshal(data, &m); err != nil {
		return out, fmt.Errorf("/metrics: %w", err)
	}
	b.check(m["runs_executed"] == 0, "warm pass executed %v runs; all must be cache hits", m["runs_executed"])
	out.wall = time.Since(start)

	var submit, complete, fetch, total []float64
	for _, ts := range timings {
		for _, t := range ts {
			submit = append(submit, ms(t.submit))
			complete = append(complete, ms(t.complete))
			fetch = append(fetch, ms(t.fetch))
			total = append(total, ms(t.total()))
		}
	}
	out.values = map[string]float64{
		"serve.submit_ms_p50":   median(submit),
		"serve.complete_ms_p50": median(complete),
		"serve.fetch_ms_p50":    median(fetch),
		"serve_p50_ms":          median(total),
		"serve_p95_ms":          quantile(total, 0.95),
		"serve.runs_cache_hits": m["runs_cache_hits"],
		"serve.runs_executed":   m["runs_executed"],
		"serve.runs_coalesced":  m["runs_coalesced"],
	}
	return out, nil
}

// expectedAggregates builds, for every app, the aggregate bytes its
// sub-campaign must be served with, from the cold pass's records.
func (w *campaignWorkload) expectedAggregates(records []sweep.Record) (map[string][]byte, error) {
	byDigest := map[string]sweep.Record{}
	for _, r := range records {
		byDigest[r.Digest] = r
	}
	out := map[string][]byte{}
	for _, app := range w.spec.Apps {
		spec := w.subSpec(app).Normalize()
		var recs []sweep.Record
		for _, r := range spec.Expand() {
			recs = append(recs, byDigest[r.DigestHex()])
		}
		data, err := (&sweep.Campaign{Spec: spec, Records: recs}).Aggregate().JSON()
		if err != nil {
			return nil, err
		}
		out[app] = data
	}
	return out, nil
}

// liveServer is a serve.Server answering HTTP on a loopback port, with
// a client limited to warmClients connections.
type liveServer struct {
	srv       *serve.Server
	hs        *http.Server
	served    chan error
	transport *http.Transport
	client    *http.Client
	base      string
	// startup is the time from serve.New to the first /healthz answer.
	startup time.Duration
}

func startServer(dir string, procs int) (*liveServer, error) {
	t0 := time.Now()
	srv, err := serve.New(serve.Config{DataDir: dir, Procs: procs})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	transport := &http.Transport{MaxConnsPerHost: warmClients, MaxIdleConnsPerHost: warmClients}
	s := &liveServer{
		srv: srv, hs: hs, served: served, transport: transport,
		client: &http.Client{Transport: transport, Timeout: time.Minute},
		base:   "http://" + ln.Addr().String(),
	}
	if _, err := get(s.client, s.base+"/healthz"); err != nil {
		s.stop()
		return nil, err
	}
	s.startup = time.Since(t0)
	return s, nil
}

// stop closes the client's connections, shuts the HTTP server down,
// waits for its serving goroutine, and drains the campaign service.
func (s *liveServer) stop() {
	s.transport.CloseIdleConnections()
	s.hs.Shutdown(context.Background())
	<-s.served
	s.srv.Drain()
}

// request submits one campaign and waits for its aggregate: POST, then
// the event stream until the server closes it (the campaign is done),
// then GET of the aggregate.
func (w *campaignWorkload) request(b *bench, srv *liveServer, spec sweep.Spec, parent int) (reqTiming, []byte, error) {
	client, base := srv.client, srv.base
	var t reqTiming
	body, err := json.Marshal(spec)
	if err != nil {
		return t, nil, err
	}
	req := b.tr.start("request", fmt.Sprint(spec.Apps), parent)
	defer b.tr.end(req)

	t0 := time.Now()
	sp := b.tr.start("submit", "", req)
	resp, err := client.Post(base+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return t, nil, err
	}
	var sub serve.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return t, nil, fmt.Errorf("POST /campaigns: status %d, %v", resp.StatusCode, err)
	}
	b.tr.end(sp)
	t1 := time.Now()

	sp = b.tr.start("complete", sub.ID, req)
	if _, err := get(client, base+sub.Links["events"]); err != nil {
		return t, nil, err
	}
	b.tr.end(sp)
	t2 := time.Now()

	sp = b.tr.start("fetch", sub.ID, req)
	agg, err := get(client, base+sub.Links["aggregate"])
	if err != nil {
		return t, nil, err
	}
	b.tr.end(sp)
	t3 := time.Now()
	t = reqTiming{submit: t1.Sub(t0), complete: t2.Sub(t1), fetch: t3.Sub(t2)}
	return t, agg, nil
}

// get reads a whole 200 response body.
func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// finish replays the first iteration's forty sampled runs through the
// same public calls simulate uses, outside the CPU profile, to read
// what sweep.ExecuteRun does not return: events, allocations and every
// structure's counters. Each replay must reproduce the campaign's
// Results exactly.
func (w *campaignWorkload) finish(b *bench) (map[string]float64, error) {
	replay := b.tr.start("replay", "", 0)
	defer b.tr.end(replay)
	var tot simTotals
	for _, rec := range w.records {
		out, err := simulate(b, rec.Run, replay)
		if !b.check(err == nil, "replay %s: %v", rec.Run, err) {
			continue
		}
		data, err := json.Marshal(out.Results)
		if err != nil {
			return nil, err
		}
		b.check(bytes.Equal(data, w.ref[rec.Digest]), "replay %s: Results differ from the campaign's", rec.Run)
		tot.add(out)
	}
	v := tot.values()
	v["sample.events_per_run"] = ratio(tot.raw["sim.events"], float64(len(w.records)))
	return v, nil
}
