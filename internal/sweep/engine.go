package sweep

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"gpureach/internal/chaos"
	"gpureach/internal/check"
	"gpureach/internal/core"
	"gpureach/internal/metrics"
	"gpureach/internal/sample"
	"gpureach/internal/sim"
	"gpureach/internal/workloads"
)

// Options configure a campaign execution.
type Options struct {
	// Procs bounds the worker pool (default GOMAXPROCS). Every
	// simulation is single-threaded and independent, so procs=N gives
	// near-linear wall-clock scaling while producing byte-identical
	// aggregates to procs=1.
	Procs int
	// OutDir is the campaign directory: OutDir/cache holds the
	// content-addressed results, OutDir/journal.jsonl the run log.
	// Empty means fully in-memory (no cache, no journal) — used by
	// tests and ad-hoc embedding.
	OutDir string
	// Resume keeps the existing journal and skips every run it already
	// records as completed; without it the journal restarts (the cache
	// still serves previously computed points).
	Resume bool
	// MaxAttempts bounds executions per run including retries
	// (default 3). Only structured *sim.SimError failures are retried;
	// anything else fails the run immediately.
	MaxAttempts int
	// Backoff is the base delay before a retry, doubling per attempt
	// (default 100ms; tests set it near zero).
	Backoff time.Duration
	// Sleep replaces time.Sleep for retry backoff so tests can assert
	// the exact backoff schedule without waiting it out. Default:
	// time.Sleep.
	Sleep func(time.Duration)
	// Progress, when set, observes every completed run (executed,
	// cached, journal-skipped or failed) with running totals. It is
	// called from worker goroutines concurrently and outside the
	// campaign lock — a callback that blocks cannot stall other
	// workers' bookkeeping, but consumers that aggregate must
	// synchronize themselves.
	Progress func(Progress)
	// RunFn overrides the simulation entry point (tests inject
	// failures and counters here). Default: ExecuteRun.
	RunFn func(Run) (RunResult, error)
}

// RunResult is everything one simulation hands back to the engine: the
// shared-system measurements, per-tenant outcomes for multi-app runs,
// the chaos-campaign summary when faults were injected, and the
// sampling estimate for sampled runs. A failing run still returns its
// Chaos outcome alongside the error — scored terminal-failure rows
// keep their injector evidence.
type RunResult struct {
	Results core.Results
	PerApp  []core.MultiAppResult
	Chaos   *ChaosOutcome
	Sampled *sample.Estimate
}

// ChaosOutcome summarizes the injected-fault side of one run: the
// schedule digest (a pure function of config, seed and rate — the
// determinism witness), the injector's counters and how many times the
// live invariant checker ran its probes.
type ChaosOutcome struct {
	ScheduleDigest string      `json:"schedule_digest"`
	Stats          chaos.Stats `json:"stats"`
	ProbeRuns      uint64      `json:"probe_runs"`
}

// Progress is one campaign progress observation.
type Progress struct {
	Completed   int // runs finished so far, including skips and failures
	Total       int
	Executed    int // actually simulated in this campaign
	CacheHits   int
	JournalHits int
	Retries     int
	Failed      int
	Record      Record // the run that just completed
}

// Stats summarize a finished campaign.
type Stats struct {
	Total       int     `json:"total"`
	Executed    int     `json:"executed"`
	CacheHits   int     `json:"cache_hits"`
	JournalHits int     `json:"journal_hits"`
	Retries     int     `json:"retries"`
	Failed      int     `json:"failed"`
	WallMS      float64 `json:"wall_ms"`
}

// Campaign is a fully executed sweep: every record in spec-expansion
// order (independent of completion order, which is what makes the
// downstream aggregation deterministic under parallelism), plus
// execution statistics.
type Campaign struct {
	Spec    Spec
	Records []Record
	Stats   Stats
}

// Execute expands the spec and runs the campaign to completion on a
// private Engine. Individual run failures do not abort the campaign —
// they are journaled, counted in Stats.Failed, and excluded from
// aggregation; infrastructure failures (unwritable cache/journal) do
// abort.
func Execute(spec Spec, opts Options) (*Campaign, error) {
	start := time.Now()
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}

	runs := spec.Expand()
	c := &Campaign{Spec: spec, Records: make([]Record, len(runs))}
	c.Stats.Total = len(runs)

	var cache *Cache
	var journal *Journal
	var prior map[string]Record
	if opts.OutDir != "" {
		var err error
		if cache, err = OpenCache(filepath.Join(opts.OutDir, "cache")); err != nil {
			return nil, err
		}
		journalPath := filepath.Join(opts.OutDir, "journal.jsonl")
		if opts.Resume {
			recs, err := ReadJournal(journalPath)
			if err != nil {
				return nil, err
			}
			prior = completedByDigest(recs)
		}
		if journal, err = OpenJournal(journalPath, opts.Resume); err != nil {
			return nil, err
		}
		defer journal.Close()
	}

	var (
		mu       sync.Mutex
		firstErr error
		done     int
	)
	finish := func(i int, rec Record, infraErr error) {
		mu.Lock()
		c.Records[i] = rec
		done++
		c.Stats.Retries += len(rec.RetryErrors)
		if rec.Failed() {
			c.Stats.Failed++
		}
		if infraErr != nil && firstErr == nil {
			firstErr = infraErr
		}
		// Snapshot under the lock, deliver outside it: a Progress
		// callback that blocks (or re-enters campaign state) must never
		// wedge the other workers' bookkeeping — the lockorder analyzer
		// rejects dynamic calls made with the lock held.
		prog := Progress{
			Completed: done, Total: c.Stats.Total,
			Executed: c.Stats.Executed, CacheHits: c.Stats.CacheHits,
			JournalHits: c.Stats.JournalHits, Retries: c.Stats.Retries,
			Failed: c.Stats.Failed, Record: rec,
		}
		mu.Unlock()
		if opts.Progress != nil {
			opts.Progress(prog)
		}
	}

	eng := NewEngine(EngineOptions{
		Procs: opts.Procs, Cache: cache,
		MaxAttempts: opts.MaxAttempts, Backoff: opts.Backoff,
		Sleep: opts.Sleep, RunFn: opts.RunFn,
	})
	var wg sync.WaitGroup
	for i := range runs {
		if rec, ok := prior[runs[i].DigestHex()]; ok {
			mu.Lock()
			c.Stats.JournalHits++
			mu.Unlock()
			finish(i, rec, nil)
			continue
		}
		i := i
		wg.Add(1)
		eng.Submit(runs[i], func(out Outcome) {
			defer wg.Done()
			infraErr := out.InfraErr
			if journal != nil {
				if jerr := journal.Append(out.Record); jerr != nil && infraErr == nil {
					infraErr = jerr
				}
			}
			mu.Lock()
			if out.CacheHit || out.Coalesced {
				c.Stats.CacheHits++
			} else {
				c.Stats.Executed++
			}
			mu.Unlock()
			finish(i, out.Record, infraErr)
		})
	}
	wg.Wait()
	eng.Close()

	c.Stats.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
	if firstErr != nil {
		return c, firstErr
	}
	return c, nil
}

// executeWithRetry runs one descriptor with bounded retries. Only
// structured simulation failures (*sim.SimError — page fault, deadlock,
// watchdog, invariant violation) are retried, with exponential backoff;
// every attempt's error is recorded so the journal shows the full
// history (seed included, via the Run descriptor). A run that exhausts
// its attempts becomes a terminal-failure record — journaled, never
// cached, scored by the robustness scorecard — not a campaign abort.
func executeWithRetry(run Run, digest string, opts EngineOptions) Record {
	rec := Record{Digest: digest, Run: run}
	for attempt := 1; ; attempt++ {
		rec.Attempts = attempt
		start := time.Now()
		rr, err := opts.RunFn(run)
		rec.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
		rec.PerApp = rr.PerApp
		rec.Chaos = rr.Chaos
		rec.Sampled = rr.Sampled
		if err == nil {
			rec.Results = rr.Results
			rec.Metrics = resultRegistry(rr.Results)
			if rr.Sampled != nil {
				// The journal carries the confidence interval alongside
				// every sampled point estimate.
				rec.Metrics.Set("cycles_ci95", rr.Sampled.Cycles.CI95)
				rec.Metrics.Set("walk_pki_ci95", rr.Sampled.WalkPKI.CI95)
				rec.Metrics.Set("sample_windows_measured", float64(rr.Sampled.Cycles.N))
			}
			rec.Err, rec.ErrKind = "", ""
			return rec
		}
		var simErr *sim.SimError
		retryable := errors.As(err, &simErr)
		rec.Err = err.Error()
		rec.ErrKind = ""
		if retryable {
			rec.ErrKind = string(simErr.Kind)
			if simErr.Kind == sim.ErrWatchdog {
				rec.WatchdogTrips++
			}
		}
		if !retryable || attempt >= opts.MaxAttempts {
			return rec
		}
		rec.RetryErrors = append(rec.RetryErrors, err.Error())
		opts.Sleep(opts.Backoff << (attempt - 1))
	}
}

// ExecuteRun performs one simulation from scratch: fresh system, fresh
// address space(s), optional seeded chaos injection with live invariant
// checks. It never shares state with concurrent runs, which is what
// makes campaign-level parallelism sound.
func ExecuteRun(run Run) (RunResult, error) {
	cfg, err := run.Config()
	if err != nil {
		return RunResult{}, err
	}
	if run.Tenants != "" {
		return executeTenancy(run, cfg)
	}
	w, ok := workloads.ByName(run.App)
	if !ok {
		return RunResult{}, fmt.Errorf("sweep: unknown workload %q", run.App)
	}
	sys := core.NewSystem(cfg)
	inj := armChaos(sys, run)
	kernels := w.Build(sys.Space, run.Scale)
	var ctrl *sample.Controller
	if sc := run.SampleConfig().Normalize(); sc.Enabled() {
		ctrl = sys.ArmSampling(sc, kernels)
	}
	res, err := sys.Run(w.Name, kernels)
	rr := RunResult{Results: res, Chaos: chaosOutcome(inj, sys.Checker)}
	if ctrl != nil && err == nil {
		rr.Sampled = ctrl.Estimate()
		core.ApplyEstimate(&rr.Results, rr.Sampled)
	}
	return rr, err
}

// executeTenancy is the multi-tenant leg of ExecuteRun: the §7.2
// co-run, prepared first so the chaos injector can be armed against
// the fully wired system — its schedule then covers every tenant's
// address space, not just a primary one.
func executeTenancy(run Run, cfg core.Config) (RunResult, error) {
	apps, err := SplitTenants(run.Tenants)
	if err != nil {
		return RunResult{}, fmt.Errorf("sweep: %w", err)
	}
	m, err := core.PrepareMultiApp(cfg, apps, run.Scale)
	if err != nil {
		return RunResult{}, err
	}
	inj := armChaos(m.Sys, run)
	per, res, err := m.Run()
	return RunResult{Results: res, PerApp: per, Chaos: chaosOutcome(inj, m.Sys.Checker)}, err
}

// armChaos attaches a live invariant checker and a seeded injector for
// chaos cells (rate > 0), capped at ChaosMax injections when set;
// fault-free cells run bare, exactly as they did before the chaos
// dimensions existed.
func armChaos(sys *core.System, run Run) *chaos.Injector {
	if run.ChaosRate <= 0 {
		return nil
	}
	sys.Checker = check.NewChecker()
	inj := chaos.New(sys, chaos.Config{Seed: run.ChaosSeed, Rate: run.ChaosRate, MaxInjections: run.ChaosMax})
	inj.Arm()
	return inj
}

func chaosOutcome(inj *chaos.Injector, checker *check.Checker) *ChaosOutcome {
	if inj == nil {
		return nil
	}
	return &ChaosOutcome{
		ScheduleDigest: fmt.Sprintf("%016x", inj.Digest()),
		Stats:          inj.Stats(),
		ProbeRuns:      checker.Runs(),
	}
}

// resultRegistry snapshots a run's headline counters into a metrics
// registry for the journal.
func resultRegistry(r core.Results) *metrics.Registry {
	reg := metrics.NewRegistry()
	reg.Set("cycles", float64(r.Cycles))
	reg.Set("wave_instrs", float64(r.WaveInstrs))
	reg.Set("thread_instrs", float64(r.ThreadInstrs))
	reg.Set("kernels_run", float64(r.KernelsRun))
	reg.Set("page_walks", float64(r.PageWalks))
	reg.Set("l2tlb_misses", float64(r.L2TLBMisses))
	reg.Set("ptw_pki", r.PTWPKI)
	reg.Set("l1tlb_hit_rate", r.L1TLBHitRate)
	reg.Set("l2tlb_hit_rate", r.L2TLBHitRate)
	reg.Set("lds_tx_hits", float64(r.LDSTxHits))
	reg.Set("ic_tx_hits", float64(r.ICTxHits))
	reg.Set("victim_lookups", float64(r.VictimLookups))
	reg.Set("midflight_invalidated", float64(r.MidflightInvalidated))
	reg.Set("ducati_hits", float64(r.DucatiHits))
	reg.Set("dram_reads", float64(r.DRAMReads))
	reg.Set("dram_writes", float64(r.DRAMWrites))
	reg.Set("dram_energy_pj", r.DRAMEnergyPJ)
	reg.Set("peak_tx_resident", float64(r.PeakTxResident))
	reg.Set("shared_tx_fraction", r.SharedTxFraction)
	return reg
}
