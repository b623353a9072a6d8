// Package serve turns the sweep engine into a long-running campaign
// service: an HTTP/JSON API that accepts matrix specs (the same
// schema as sweep.Spec), dispatches their run descriptors onto one
// shared bounded worker pool, streams per-run progress, and hands back the
// exact aggregate bytes the CLI sweep would have produced for the
// same spec.
//
// The service leans entirely on the determinism substrate built under
// it: every run is content-addressed, so the shared cache
// (DataDir/cache) serves results across campaigns, duplicate
// in-flight digests coalesce MSHR-style inside sweep.Engine, and
// per-campaign JSONL journals make an interrupted campaign resumable
// with `gpureach sweep -resume`. The existing byte-identity tests are
// the service's correctness SLA.
//
// The package is deliberately outside the detclock analyzer's scope
// (see internal/analysis.DefaultSuite): wall-clock reads here feed
// status timestamps and Retry-After hints only — every deterministic
// artifact is produced by internal/sweep, which strips them.
package serve

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"gpureach/internal/metrics"
	"gpureach/internal/sweep"
)

// Config sizes the server.
type Config struct {
	// DataDir is the service root: DataDir/cache is the shared
	// content-addressed result store, DataDir/campaigns/<id> holds
	// each campaign's journal and aggregate artifacts.
	DataDir string
	// Procs bounds the shared worker pool (default GOMAXPROCS).
	Procs int
	// MaxCampaigns bounds the submission queue: campaigns queued or
	// running at once (default 8). Submissions beyond it get 429 with
	// a Retry-After hint — backpressure, never a half-accepted
	// campaign.
	MaxCampaigns int
	// MaxAttempts and Backoff configure per-run retries exactly as
	// sweep.Options do.
	MaxAttempts int
	Backoff     time.Duration
	// RetryAfter is the hint returned with 429/503 responses
	// (default 2s).
	RetryAfter time.Duration
	// Sleep and RunFn are test seams, forwarded to the engine; every
	// run otherwise executes in the engine's goroutine pool.
	Sleep func(time.Duration)
	RunFn func(sweep.Run) (sweep.RunResult, error)
}

// Server is the campaign service: one shared sweep.Engine, a bounded
// registry of campaigns, and live server-level metrics.
type Server struct {
	cfg   Config
	eng   *sweep.Engine
	cache *sweep.Cache

	// metrics is written by worker-goroutine callbacks while /metrics
	// snapshots it — the concurrency the Registry lock exists for.
	metrics *metrics.Registry

	mu        sync.Mutex
	campaigns map[string]*Campaign
	order     []string // submission order, for deterministic listings
	active    int      // campaigns queued or running (the bounded queue)
	seq       int
	draining  bool

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup // one per campaign runner
}

// New opens the shared cache and starts the worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("serve: DataDir is required")
	}
	if cfg.MaxCampaigns <= 0 {
		cfg.MaxCampaigns = 8
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 2 * time.Second
	}
	cache, err := sweep.OpenCache(cacheDir(cfg.DataDir))
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		cache:     cache,
		metrics:   metrics.NewRegistry(),
		campaigns: map[string]*Campaign{},
		stop:      make(chan struct{}),
	}
	s.eng = sweep.NewEngine(sweep.EngineOptions{
		Procs: cfg.Procs, Cache: cache,
		MaxAttempts: cfg.MaxAttempts, Backoff: cfg.Backoff,
		Sleep: cfg.Sleep, RunFn: cfg.RunFn,
	})
	return s, nil
}

// Submit admits one campaign: it validates the spec, applies the
// bounded-queue admission check, registers the campaign and starts
// its runner. The error return is an *HTTPError carrying the status
// the API should answer with (400/429/503).
func (s *Server) Submit(spec sweep.Spec) (*Campaign, error) {
	norm := spec.Normalize()
	if err := norm.Validate(); err != nil {
		return nil, &HTTPError{Status: 400, Msg: err.Error()}
	}
	runs := norm.Expand()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, &HTTPError{Status: 503, Msg: "server is draining", RetryAfter: s.cfg.RetryAfter}
	}
	if s.active >= s.cfg.MaxCampaigns {
		s.mu.Unlock()
		return nil, &HTTPError{
			Status: 429,
			Msg: fmt.Sprintf("campaign queue is full (%d queued or running)",
				s.cfg.MaxCampaigns),
			RetryAfter: s.cfg.RetryAfter,
		}
	}
	s.seq++
	id := fmt.Sprintf("c%04d-%08x", s.seq, specDigest(norm))
	c := newCampaign(id, norm, runs, campaignDir(s.cfg.DataDir, id))
	s.campaigns[id] = c
	s.order = append(s.order, id)
	s.active++
	s.wg.Add(1)
	s.mu.Unlock()

	s.metrics.Add("campaigns_submitted", 1)
	go s.runCampaign(c)
	return c, nil
}

// Campaign returns a registered campaign by ID.
func (s *Server) Campaign(id string) (*Campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
}

// Campaigns returns every registered campaign in submission order.
func (s *Server) Campaigns() []*Campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Campaign, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.campaigns[id])
	}
	return out
}

// Drain gracefully stops the service: new submissions are refused
// with 503, campaign runners stop submitting further runs, in-flight
// runs finish and are journaled, and unfinished campaigns end in
// StateInterrupted with a journal `gpureach sweep -resume` completes.
// Drain blocks until every runner has retired and the engine is
// closed; it is idempotent.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
	s.eng.Close()
}

// stopping reports whether Drain has been requested.
func (s *Server) stopping() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// runCampaign is one campaign's runner goroutine: it submits the run
// descriptors to the shared engine one at a time (Submit blocks
// while all workers are busy, so a drain request is observed between
// runs), journals every completion, and finalizes the artifacts.
func (s *Server) runCampaign(c *Campaign) {
	defer func() {
		s.mu.Lock()
		s.active--
		s.mu.Unlock()
		s.metrics.Add("campaigns_"+string(c.State()), 1)
		s.wg.Done()
	}()

	journal, err := c.start()
	if err != nil {
		c.finalize(false, err)
		return
	}

	interrupted := false
	var runWG sync.WaitGroup
	for i := range c.runs {
		if s.stopping() {
			interrupted = true
			break
		}
		idx := i
		runWG.Add(1)
		s.eng.Submit(c.runs[i], func(out sweep.Outcome) {
			defer runWG.Done()
			infraErr := out.InfraErr
			if jerr := journal.Append(out.Record); jerr != nil && infraErr == nil {
				infraErr = jerr
			}
			c.complete(idx, out, infraErr)
			s.observeRun(out)
		})
	}
	runWG.Wait()
	err = journal.Close()
	c.finalize(interrupted, err)
}

// observeRun feeds one run completion into the server-level metrics.
func (s *Server) observeRun(out sweep.Outcome) {
	s.metrics.Add("runs_completed", 1)
	switch {
	case out.Coalesced:
		s.metrics.Add("runs_coalesced", 1)
	case out.CacheHit:
		s.metrics.Add("runs_cache_hits", 1)
	default:
		s.metrics.Add("runs_executed", 1)
		s.metrics.Add("runs_retried", float64(len(out.Record.RetryErrors)))
		if out.Record.Failed() {
			s.metrics.Add("runs_failed", 1)
		}
	}
}

// Metrics snapshots the server gauges: live queue/in-flight state
// from the engine overlaid on the lifetime counters the run and
// campaign callbacks maintain.
func (s *Server) Metrics() *metrics.Registry {
	ctr := s.eng.Counters()
	s.mu.Lock()
	active, draining := s.active, s.draining
	total := len(s.campaigns)
	s.mu.Unlock()

	s.metrics.Set("queue_depth", float64(active))
	s.metrics.Set("queue_bound", float64(s.cfg.MaxCampaigns))
	s.metrics.Set("campaigns_registered", float64(total))
	s.metrics.Set("inflight_runs", float64(ctr.InFlight))
	s.metrics.Set("engine_submitted", float64(ctr.Submitted))
	s.metrics.Set("draining", boolGauge(draining))
	return s.metrics
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// specDigest is the FNV-1a digest of the normalized spec's expansion
// — a stable fingerprint woven into campaign IDs so overlapping
// submissions are recognizable at a glance.
func specDigest(spec sweep.Spec) uint32 {
	h := fnv.New32a()
	for _, r := range spec.Expand() {
		fmt.Fprintf(h, "%s\n", r.Canonical())
	}
	return h.Sum32()
}
