package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// iteration is one pass over a workload's operations.
type iteration struct {
	Setup time.Duration
	Run   time.Duration
	// Probe is the mean duration of the host probes run just before and
	// just after the iteration.
	Probe time.Duration
	// AllocBytes is the heap allocated during the whole iteration.
	AllocBytes uint64
	// Values are the iteration's per-layer measurements, keyed by
	// metric name.
	Values map[string]float64
}

// workload is one named traffic mix. iterate runs one iteration and
// checks its outputs through b; setup performs the iteration's set-up
// alone and times it; finish runs once after the traced iterations and
// may add per-layer values that need extra work.
type workload interface {
	iterate(b *bench) (iteration, error)
	setup(b *bench) (time.Duration, error)
	finish(b *bench) (map[string]float64, error)
}

// warmups is the number of unmeasured iterations a run starts with; the
// first one also records the reference outputs. On the campaign
// workload the iteration right after the first still ran up to 40%
// slower (heap growth, write-back of the warm-up's files).
const warmups = 2

// setupProbes is the number of set-ups a run times, apart from its
// iterations, for setup_s: set-up takes milliseconds or less, so it
// needs many samples for a steady median. Each probe starts after
// debug.FreeOSMemory, a full GC that also returns freed memory to the
// OS: without it, the runtime's background release of the warm-up
// iterations' garbage tripled the campaign's set-up in some runs.
const setupProbes = 32

// bench is one run's shared state: options, the seeded generator that
// orders operations, the tracer (nil outside traced iterations) and
// the ledger of checked operations.
type bench struct {
	opts Options
	rng  *rand.Rand
	tr   *tracer

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
}

// check counts one operation and records it as failed unless ok. A
// failed check is never skipped silently: it lands in Result.Failed,
// on standard error and in the run record.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if !ok {
		b.failed++
		msg := fmt.Sprintf(format, args...)
		fmt.Fprintln(os.Stderr, "check failed:", msg)
		if len(b.failures) < 100 {
			b.failures = append(b.failures, msg)
		}
	}
	return ok
}

// Run executes one benchmark run: warm-up iterations, the first of
// which records the reference outputs every later iteration is checked
// against, then iterations until opts.Seconds have elapsed. A traced
// run spends the first half untraced and the second half with spans
// and a CPU profile, so it can report the tracing overhead and check
// that tracing leaves every deterministic count unchanged.
func Run(opts Options) (*Record, error) {
	rec := &Record{
		Workload: opts.Workload, Seed: opts.Seed, Seconds: opts.Seconds,
		Trace:   opts.Trace,
		Started: time.Now().UTC().Format(time.RFC3339), Host: fingerprint("."),
	}
	b := &bench{opts: opts, rng: rand.New(rand.NewSource(int64(opts.Seed)))}
	mk, ok := workloadTable[opts.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (valid: %v)", opts.Workload, workloadNames())
	}
	w := mk(b)
	for i := 0; i < warmups; i++ {
		if _, err := w.iterate(b); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		debug.FreeOSMemory()
		d, err := w.setup(b)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	rec.SetupProbes = setups

	probe := newHostProbe()
	measure := func(d time.Duration) ([]iteration, error) {
		var its []iteration
		deadline := time.Now().Add(d)
		for len(its) == 0 || time.Now().Before(deadline) {
			before := probe.run()
			it, err := w.iterate(b)
			if err != nil {
				return nil, err
			}
			it.Probe = (before + probe.run()) / 2
			its = append(its, it)
			rec.Iterations = append(rec.Iterations, it.flat(b.tr != nil))
		}
		return its, nil
	}
	total := time.Duration(opts.Seconds * float64(time.Second))
	metrics := map[string]Metric{}
	if !opts.Trace {
		its, err := measure(total)
		if err != nil {
			return nil, err
		}
		metrics["setup_s"] = Metric{median(setups), "s"}
		// run_s is each iteration's run time at the calibration host's
		// speed, as the host probe around it measured the current one,
		// with the probe's slowdown raised to the workload's elasticity.
		// Contention from other tenants of a shared host only ever slows
		// an iteration down, so the lower quartile tracks the code's own
		// cost with less run-to-run spread than the median.
		k := probeElasticity[opts.Workload]
		metrics["run_s"] = Metric{quantile(floats(its, func(it iteration) float64 {
			return it.Run.Seconds() * math.Pow(probeNominal/it.Probe.Seconds(), k)
		}), 0.25), "s"}
		metrics["alloc_mb"] = Metric{median(floats(its, func(it iteration) float64 { return float64(it.AllocBytes) / 1e6 })), "MB"}
	} else {
		plain, err := measure(total / 2)
		if err != nil {
			return nil, err
		}
		b.tr = newTracer()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		traced, err := measure(total / 2)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		profPath := filepath.Join(opts.Dir, "profiles", fmt.Sprintf("%s-seed%d-%s.pprof",
			opts.Workload, opts.Seed, time.Now().UTC().Format("20060102T150405.000000000")))
		if err := os.MkdirAll(filepath.Dir(profPath), 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(profPath, prof.Bytes(), 0o644); err != nil {
			return nil, err
		}
		rec.Profile = profPath
		shares, err := leafShares(profPath)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		extra, err := w.finish(b)
		if err != nil {
			return nil, err
		}
		rec.Spans = b.tr.spans
		values := medianValues(traced)
		for k, v := range extra {
			values[k] = v
		}
		for k, v := range shares {
			values[k] = v
		}
		runS := func(it iteration) time.Duration { return it.Run }
		values["host.trace_overhead"] = median(durations(traced, runS)) / median(durations(plain, runS))
		values["error_rate"] = float64(b.failed) / float64(b.attempted)
		for _, pl := range perLayer {
			v, ok := values[pl.Name]
			if !ok && !pl.CampaignOnly {
				return nil, fmt.Errorf("workload %s produced no value for %s", opts.Workload, pl.Name)
			}
			// A campaign-only module does no work on the single-run
			// workloads, so it reads 0 there.
			metrics[pl.Name] = Metric{v, pl.Unit}
		}
	}
	rec.Result = Result{
		Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics,
	}
	rec.Failures = b.failures
	return rec, nil
}

// flat is the iteration as a record row.
func (it iteration) flat(traced bool) map[string]float64 {
	m := map[string]float64{
		"setup_s": it.Setup.Seconds(), "run_s": it.Run.Seconds(), "probe_s": it.Probe.Seconds(),
		"alloc_mb": float64(it.AllocBytes) / 1e6, "traced": float64(boolInt(traced)),
	}
	for k, v := range it.Values {
		m[k] = v
	}
	return m
}

// medianValues takes each per-layer value's median across iterations.
func medianValues(its []iteration) map[string]float64 {
	out := map[string]float64{}
	if len(its) == 0 {
		return out
	}
	for _, k := range sortedKeys(its[0].Values) {
		out[k] = median(floats(its, func(it iteration) float64 { return it.Values[k] }))
	}
	return out
}

// sortedKeys returns m's keys in order, so loops over a map's contents
// run in a fixed order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func durations(its []iteration, f func(iteration) time.Duration) []float64 {
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = f(it).Seconds()
	}
	return out
}

func floats(its []iteration, f func(iteration) float64) []float64 {
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = f(it)
	}
	return out
}

// median of a non-empty sample (the mean of the middle two for even
// sizes).
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile is the linearly interpolated q-quantile of vs.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// allocBytes reads the cumulative heap allocation.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
