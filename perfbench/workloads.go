package main

import (
	"runtime"
	"sort"

	"gpureach/internal/sweep"
)

// The workloads. README.md records why each was chosen.
var workloadTable = map[string]func(b *bench) workload{
	// Translation-heavy: full-detail runs with about a fifth of leaf
	// CPU time on the L1 TLB → LDS/I-cache victim stores → L2 TLB →
	// IOMMU walk path, 2.5× xlat-light's share.
	"xlat-heavy": func(b *bench) workload {
		s := b.opts.Scale
		return &simWorkload{runs: []sweep.Run{
			fullRun("GUPS", "ic+lds", 0.05*s),
			fullRun("ATAX", "baseline", 0.25*s),
		}, ref: map[sweep.Run]simRef{}}
	},
	// Translation-light: at most 16,384 post-L1 lookups per run against
	// millions of instructions; the work is in the event loop, gpu,
	// cache and the Go runtime, so a translation-path change must not
	// move it.
	"xlat-light": func(b *bench) workload {
		var runs []sweep.Run
		for _, app := range []string{"SRAD", "PRK", "NW", "SSSP"} {
			runs = append(runs, fullRun(app, "ic+lds", b.opts.Scale))
		}
		return &simWorkload{runs: runs, ref: map[sweep.Run]simRef{}}
	},
	// The only workload where sample, sweep and serve do work.
	"campaign": func(b *bench) workload { return newCampaign(b, runtime.NumCPU()) },
}

func workloadNames() []string {
	var names []string
	for n := range workloadTable {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// layerMetric is one per-layer metric the traced run reports.
type layerMetric struct {
	Name string
	Unit string
	// CampaignOnly marks metrics of modules (sample, sweep, serve) that
	// only the campaign workload exercises; they read 0 elsewhere.
	CampaignOnly bool
}

// perLayer lists every per-layer metric in BENCHMARK.json order.
var perLayer = func() []layerMetric {
	var out []layerMetric
	add := func(unit string, campaignOnly bool, names ...string) {
		for _, n := range names {
			out = append(out, layerMetric{n, unit, campaignOnly})
		}
	}
	add("ms", false, "workloads.build_ms", "core.new_system_ms")
	add("count", false, "workloads.kernels", "workloads.wave_instrs",
		"sim.events", "sim.cycles")
	add("ns/event", false, "sim.ns_per_event")
	add("allocs/event", false, "sim.allocs_per_event")
	add("count", false,
		"gpu.wave_instrs", "gpu.mem_instrs", "gpu.fetches", "gpu.fetches_merged", "gpu.wgs_run",
		"tlb.l1_lookups")
	add("ratio", false, "tlb.l1_hit_rate")
	add("count", false, "victim.lookups", "victim.lds_hits", "victim.ic_hits", "victim.l2_reached")
	add("ratio", false, "victim.hit_yield")
	add("count", false, "victim.fills_lds", "victim.fills_ic", "victim.forwarded_l2")
	add("ratio", false, "victim.l2tlb_hit_rate")
	add("count", false, "victim.l2tlb_port_grants",
		"lds.tx_lookups", "lds.tx_inserts")
	add("ratio", false, "lds.insert_yield")
	add("count", false, "lds.tx_evictions", "lds.compression_rejects")
	add("ratio", false, "lds.port_util")
	add("count", false, "icache.tx_lookups", "icache.tx_inserts")
	add("ratio", false, "icache.insert_yield")
	add("count", false, "icache.fetches")
	add("ratio", false, "icache.instr_hit_rate", "icache.port_util")
	add("count", false, "walker.requests", "walker.walks", "walker.walk_steps")
	add("ratio", false, "walker.pwc_hit_rate", "walker.dev_tlb_hit_rate")
	add("count", false, "walker.merged_walks", "walker.max_queue", "cache.l1d_accesses")
	add("ratio", false, "cache.l1d_hit_rate")
	add("count", false, "cache.l2_accesses")
	add("ratio", false, "cache.l2_hit_rate")
	add("count", false, "cache.l2_merged_miss")
	add("ratio", false, "cache.l2_port_util")
	add("count", false, "dram.reads", "dram.writes")
	add("ratio", false, "dram.row_hit_rate", "dram.bus_util")
	add("count", true, "sample.events_per_run", "sample.windows_measured")
	add("ratio", true, "sample.cycles_ci95_rel", "sim.ic_lds_geomean")
	add("ms", true, "sweep.runfn_ms_p50", "sweep.runfn_ms_max", "sweep.queue_wait_ms_p50")
	add("ratio", true, "sweep.pool_busy_frac")
	add("ms", true, "sweep.aggregate_ms")
	add("count", true, "sweep.executed", "sweep.retries", "sweep.failed")
	add("1/s", true, "campaign_runs_per_s")
	add("ms", true, "serve.submit_ms_p50", "serve.complete_ms_p50", "serve.fetch_ms_p50",
		"serve_p50_ms", "serve_p95_ms")
	add("count", true, "serve.runs_cache_hits", "serve.runs_executed", "serve.runs_coalesced")
	for _, m := range hostModules {
		add("share", false, "host."+m+"_share")
	}
	add("ratio", false, "host.trace_overhead", "error_rate")
	return out
}()
