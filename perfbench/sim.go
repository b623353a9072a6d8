package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"runtime"
	"strings"
	"time"

	"gpureach/internal/core"
	"gpureach/internal/gpu"
	"gpureach/internal/sample"
	"gpureach/internal/sweep"
	"gpureach/internal/workloads"
)

// fullRun is the full-detail run of app under scheme at scale, with
// every other coordinate at the default a sweep gives it, so each
// simulation the benchmark makes is configured as sweep.ExecuteRun
// configures it.
func fullRun(app, scheme string, scale float64) sweep.Run {
	spec := sweep.Spec{Apps: []string{app}, Schemes: []string{scheme}, Scale: scale}
	for _, r := range spec.Normalize().Expand() {
		if r.Scheme == scheme {
			return r
		}
	}
	panic(fmt.Sprintf("sweep expands no %s/%s run", app, scheme))
}

// simOut is one simulation's outputs and costs. Counts are
// deterministic for a given case; the durations and allocation count
// are host measurements.
type simOut struct {
	Results   core.Results
	Counts    map[string]float64
	NewSystem time.Duration
	Build     time.Duration
	Run       time.Duration
	RunAllocs uint64
}

// prepared is a system built for one case, ready to run.
type prepared struct {
	sys       *core.System
	w         workloads.Workload
	kernels   []*gpu.Kernel
	ctrl      *sample.Controller
	newSystem time.Duration
	build     time.Duration
}

// prepare sets one run up as sweep.ExecuteRun does — its config from
// Run.Config, then core.NewSystem, Workload.Build and, for sampled
// runs, System.ArmSampling — timing each.
func prepare(b *bench, r sweep.Run, parent int) (prepared, error) {
	var p prepared
	cfg, err := r.Config()
	if err != nil {
		return p, err
	}
	var ok bool
	if p.w, ok = workloads.ByName(r.App); !ok {
		return p, fmt.Errorf("unknown workload %q", r.App)
	}
	key := r.String()

	setup := b.tr.start("setup", key, parent)
	defer b.tr.end(setup)
	sp := b.tr.start("new_system", key, setup)
	t0 := time.Now()
	p.sys = core.NewSystem(cfg)
	p.newSystem = time.Since(t0)
	b.tr.end(sp)
	sp = b.tr.start("build", key, setup)
	t0 = time.Now()
	p.kernels = p.w.Build(p.sys.Space, r.Scale)
	if sc := r.SampleConfig().Normalize(); sc.Enabled() {
		p.ctrl = p.sys.ArmSampling(sc, p.kernels)
	}
	p.build = time.Since(t0)
	b.tr.end(sp)
	return p, nil
}

// simulate runs one run through the public entry points a user calls
// — core.NewSystem, Workload.Build, System.ArmSampling, System.Run —
// timing each, then reads every structure's exported Stats().
func simulate(b *bench, r sweep.Run, parent int) (simOut, error) {
	var out simOut
	p, err := prepare(b, r, parent)
	if err != nil {
		return out, err
	}
	sys, kernels, ctrl := p.sys, p.kernels, p.ctrl
	out.NewSystem, out.Build = p.newSystem, p.build

	sp := b.tr.start("run", r.String(), parent)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	res, err := sys.Run(p.w.Name, kernels)
	out.Run = time.Since(t0)
	runtime.ReadMemStats(&after)
	b.tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("%s: %w", r, err)
	}
	out.RunAllocs = after.Mallocs - before.Mallocs

	sp = b.tr.start("collect", r.String(), parent)
	if ctrl != nil {
		core.ApplyEstimate(&res, ctrl.Estimate())
	}
	out.Results = res
	out.Counts = structureCounts(sys, kernels, res)
	b.tr.end(sp)
	return out, nil
}

// structureCounts reads the raw counters of every modelled structure
// after a run. Rates are derived later from sums of these, so a
// workload of several runs reports pooled rates.
func structureCounts(s *core.System, kernels []*gpu.Kernel, res core.Results) map[string]float64 {
	m := map[string]float64{}
	add := func(k string, v float64) { m[k] += v }
	cycles := float64(res.Cycles)
	if s.GPU.Sampler != nil {
		// Sampled runs report an extrapolated cycle count; utilizations
		// are over the cycles actually simulated.
		cycles = float64(s.Eng.Now())
	}

	add("sim.events", float64(s.Eng.EventsRun()))
	add("sim.cycles", float64(res.Cycles))
	add("workloads.kernels", float64(len(kernels)))
	add("workloads.wave_instrs", float64(gpu.TotalWaveInstrs(kernels)))

	g := s.GPU.TotalStats()
	add("gpu.wave_instrs", float64(g.WaveInstrs))
	add("gpu.mem_instrs", float64(g.MemInstrs))
	add("gpu.fetches", float64(g.Fetches))
	add("gpu.fetches_merged", float64(g.FetchesMerged))
	add("gpu.wgs_run", float64(g.WGsRun))

	for i := range s.CUs {
		t := s.Xlats[i].L1().Stats()
		add("raw.l1tlb_hits", float64(t.Hits))
		add("raw.l1tlb_misses", float64(t.Misses))
		p := s.Paths[i].Stats()
		add("victim.lookups", float64(p.Lookups))
		add("victim.lds_hits", float64(p.LDSHits))
		add("victim.ic_hits", float64(p.ICHits))
		add("victim.l2_reached", float64(p.L2Reached))
		add("victim.fills_lds", float64(p.FilledLDS))
		add("victim.fills_ic", float64(p.FilledIC))
		add("victim.forwarded_l2", float64(p.ForwardedToL2))
		d := s.CUs[i].L1D.Stats()
		add("cache.l1d_accesses", float64(d.Accesses))
		add("raw.l1d_hits", float64(d.Hits))
	}
	l2t := s.L2TLB.TLB.Stats()
	add("raw.l2tlb_hits", float64(l2t.Hits))
	add("raw.l2tlb_misses", float64(l2t.Misses))
	add("victim.l2tlb_port_grants", float64(s.L2TLB.PortGrants()))

	for _, l := range s.LDSs {
		st := l.Stats()
		add("lds.tx_lookups", float64(st.TxLookups))
		add("raw.lds_tx_hits", float64(st.TxHits))
		add("lds.tx_inserts", float64(st.TxInserts))
		add("lds.tx_evictions", float64(st.TxEvictions))
		add("lds.compression_rejects", float64(st.CompressionRejects))
		add("raw.lds_port_busy", float64(l.Port().Grants())*float64(l.Port().Interval))
		add("raw.lds_port_cycles", cycles)
	}
	for _, ic := range s.ICaches {
		st := ic.Stats()
		add("icache.tx_lookups", float64(st.TxLookups))
		add("raw.ic_tx_hits", float64(st.TxHits))
		add("icache.tx_inserts", float64(st.TxInserts))
		add("icache.fetches", float64(st.Fetches))
		add("raw.ic_instr_hits", float64(st.InstrHits))
		add("raw.ic_port_busy", float64(ic.Port().Grants())*float64(ic.Port().Interval))
		add("raw.ic_port_cycles", cycles)
	}

	ws := s.IOMMU.Stats()
	add("walker.requests", float64(ws.Requests))
	add("walker.walks", float64(ws.Walks))
	add("walker.walk_steps", float64(ws.WalkSteps))
	add("raw.pwc_hits", float64(ws.PWCHitPGD+ws.PWCHitPUD+ws.PWCHitPMD))
	add("raw.pwc_misses", float64(ws.PWCMiss))
	add("raw.dev_tlb_hits", float64(ws.DevTLBHits))
	add("walker.merged_walks", float64(ws.MergedWalks))
	add("walker.max_queue", float64(ws.MaxQueue))

	l2 := s.L2C.Stats()
	add("cache.l2_accesses", float64(l2.Accesses))
	add("raw.l2_hits", float64(l2.Hits))
	add("cache.l2_merged_miss", float64(l2.MergedMiss))
	add("raw.l2_port_busy", float64(s.L2C.Port().Grants())*float64(s.L2C.Port().Interval))
	add("raw.l2_port_cycles", cycles)

	ds := s.DRAM.Stats()
	add("dram.reads", float64(ds.Reads))
	add("dram.writes", float64(ds.Writes))
	add("raw.dram_row_hits", float64(ds.RowHits))
	add("raw.dram_row_misses", float64(ds.RowMisses))
	for _, u := range s.DRAM.BusUtilization(s.Eng.Now()) {
		add("raw.dram_bus_busy", u*float64(s.Eng.Now()))
		add("raw.dram_bus_cycles", float64(s.Eng.Now()))
	}
	return m
}

// sumCounts adds src into dst. walker.max_queue is a maximum, not a
// sum.
func sumCounts(dst, src map[string]float64) {
	for _, k := range sortedKeys(src) {
		v := src[k]
		if k == "walker.max_queue" {
			dst[k] = math.Max(dst[k], v)
			continue
		}
		dst[k] += v
	}
}

// deriveLayers turns pooled raw counters into the published per-layer
// metrics: counts pass through, rates and yields are ratios of sums.
func deriveLayers(raw map[string]float64) map[string]float64 {
	m := map[string]float64{}
	for k, v := range raw {
		if !strings.HasPrefix(k, "raw.") {
			m[k] = v
		}
	}
	l1 := raw["raw.l1tlb_hits"] + raw["raw.l1tlb_misses"]
	m["tlb.l1_lookups"] = l1
	m["tlb.l1_hit_rate"] = ratio(raw["raw.l1tlb_hits"], l1)
	m["victim.hit_yield"] = ratio(raw["victim.lds_hits"]+raw["victim.ic_hits"],
		raw["victim.fills_lds"]+raw["victim.fills_ic"])
	m["victim.l2tlb_hit_rate"] = ratio(raw["raw.l2tlb_hits"], raw["raw.l2tlb_hits"]+raw["raw.l2tlb_misses"])
	m["lds.insert_yield"] = ratio(raw["raw.lds_tx_hits"], raw["lds.tx_inserts"])
	m["lds.port_util"] = ratio(raw["raw.lds_port_busy"], raw["raw.lds_port_cycles"])
	m["icache.insert_yield"] = ratio(raw["raw.ic_tx_hits"], raw["icache.tx_inserts"])
	m["icache.instr_hit_rate"] = ratio(raw["raw.ic_instr_hits"], raw["icache.fetches"])
	m["icache.port_util"] = ratio(raw["raw.ic_port_busy"], raw["raw.ic_port_cycles"])
	m["walker.pwc_hit_rate"] = ratio(raw["raw.pwc_hits"], raw["raw.pwc_hits"]+raw["raw.pwc_misses"])
	m["walker.dev_tlb_hit_rate"] = ratio(raw["raw.dev_tlb_hits"], raw["walker.requests"])
	m["cache.l1d_hit_rate"] = ratio(raw["raw.l1d_hits"], raw["cache.l1d_accesses"])
	m["cache.l2_hit_rate"] = ratio(raw["raw.l2_hits"], raw["cache.l2_accesses"])
	m["cache.l2_port_util"] = ratio(raw["raw.l2_port_busy"], raw["raw.l2_port_cycles"])
	m["dram.row_hit_rate"] = ratio(raw["raw.dram_row_hits"], raw["raw.dram_row_hits"]+raw["raw.dram_row_misses"])
	m["dram.bus_util"] = ratio(raw["raw.dram_bus_busy"], raw["raw.dram_bus_cycles"])
	return m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// simWorkload is a closed loop of one client running a fixed list of
// simulations back to back, in a seeded order per iteration.
type simWorkload struct {
	runs []sweep.Run
	// ref holds each run's first Results (as JSON) and counts; every
	// later iteration must reproduce them exactly.
	ref map[sweep.Run]simRef
}

type simRef struct {
	results []byte
	counts  map[string]float64
}

func (w *simWorkload) iterate(b *bench) (iteration, error) {
	alloc0 := allocBytes()
	iter := b.tr.start("iteration", "", 0)
	var tot simTotals
	for _, i := range b.rng.Perm(len(w.runs)) {
		r := w.runs[i]
		out, err := simulate(b, r, iter)
		if !b.check(err == nil, "simulate %s: %v", r, err) {
			continue
		}
		data, err := json.Marshal(out.Results)
		if err != nil {
			return iteration{}, err
		}
		if ref, ok := w.ref[r]; !ok {
			w.ref[r] = simRef{results: data, counts: out.Counts}
		} else {
			b.check(bytes.Equal(ref.results, data), "%s: Results differ from the first iteration's", r)
			b.check(maps.Equal(ref.counts, out.Counts), "%s: structure counts differ from the first iteration's: %s",
				r, countDiff(ref.counts, out.Counts))
		}
		tot.add(out)
	}
	b.tr.end(iter)
	return iteration{
		Setup:      tot.build + tot.newSystem,
		Run:        tot.run,
		AllocBytes: allocBytes() - alloc0,
		Values:     tot.values(),
	}, nil
}

// simTotals pools the outputs of several simulations.
type simTotals struct {
	raw                   map[string]float64
	build, newSystem, run time.Duration
	runAllocs             uint64
}

func (t *simTotals) add(out simOut) {
	if t.raw == nil {
		t.raw = map[string]float64{}
	}
	sumCounts(t.raw, out.Counts)
	t.build += out.Build
	t.newSystem += out.NewSystem
	t.run += out.Run
	t.runAllocs += out.RunAllocs
}

// values is the pooled per-layer metrics, host timings included.
func (t *simTotals) values() map[string]float64 {
	v := deriveLayers(t.raw)
	v["workloads.build_ms"] = ms(t.build)
	v["core.new_system_ms"] = ms(t.newSystem)
	v["sim.ns_per_event"] = ratio(float64(t.run.Nanoseconds()), t.raw["sim.events"])
	v["sim.allocs_per_event"] = ratio(float64(t.runAllocs), t.raw["sim.events"])
	return v
}

func (w *simWorkload) finish(*bench) (map[string]float64, error) { return nil, nil }

// setup is the workload's set-up alone: every run built, none run.
func (w *simWorkload) setup(b *bench) (time.Duration, error) {
	var d time.Duration
	for _, r := range w.runs {
		p, err := prepare(b, r, 0)
		if err != nil {
			return 0, err
		}
		d += p.newSystem + p.build
	}
	return d, nil
}

// countDiff names the first few counters that differ, for the failure
// message.
func countDiff(a, b map[string]float64) string {
	var out []string
	for _, k := range sortedKeys(a) {
		if b[k] != a[k] && len(out) < 4 {
			out = append(out, fmt.Sprintf("%s %v→%v", k, a[k], b[k]))
		}
	}
	return fmt.Sprint(out)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
