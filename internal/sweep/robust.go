package sweep

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"strconv"

	"gpureach/internal/metrics"
	"gpureach/internal/stats"
)

// Robustness is the campaign's adversarial scorecard: for every
// app-axis row × scheme × non-zero chaos rate (at every L2-TLB × page
// size point), how the design degraded across the seed trials —
// completion rate, invariant-violation rate, mid-flight invalidation
// rate, watchdog trips, and slowdown against the fault-free anchor —
// each as a mean with a 95% Student-t confidence interval across
// seeds. Like the Aggregate, identical campaigns produce byte-identical
// JSON and CSV at any worker count.
type Robustness struct {
	Rows []RobustRow `json:"rows"`
}

// RobustRow is one (point, app-axis row, scheme, chaos rate) cell of
// the scorecard.
type RobustRow struct {
	L2TLB     int     `json:"l2tlb"`
	PageSize  string  `json:"pagesize"`
	Scale     float64 `json:"scale"`
	App       string  `json:"app"`
	Tenants   string  `json:"tenants,omitempty"`
	Scheme    string  `json:"scheme"`
	ChaosRate float64 `json:"chaos_rate"`
	// Trials is the number of seed trials scored at this rate.
	Trials int `json:"trials"`

	// Completion is the fraction of trials that finished (retries
	// allowed): a terminal failure of any kind scores 0.
	Completion Stat `json:"completion"`
	// Invariants is the fraction of trials where a live probe caught a
	// violated invariant (from the injector's counters, which survive
	// terminal failures).
	Invariants Stat `json:"invariants"`
	// Midflight is the §7.1 dead-on-arrival rate of completed trials:
	// victim-path probes invalidated between issue and array read, per
	// post-L1 lookup.
	Midflight Stat `json:"midflight"`
	// Watchdog is the per-trial count of RunGuarded watchdog trips,
	// counting retried attempts — a run that livelocked twice before
	// completing still scores 2.
	Watchdog Stat `json:"watchdog"`
	// Slowdown is cycles at this rate over fault-free cycles of the
	// same row, for completed trials with a fault-free anchor.
	Slowdown Stat `json:"slowdown"`
	// Terminal lists the failed trials in seed order with their
	// structured error kinds, so the scorecard shows *how* a scheme
	// degraded, not just that it did.
	Terminal []string `json:"terminal,omitempty"`
}

// Stat is a sample mean with its 95% Student-t confidence half-width;
// the machinery lives in internal/stats so the sampled-execution
// estimator shares the exact same t-table and edge-case behaviour.
// N=1 reports CI95 0 (no spread is estimable from one trial); N=0 is
// the zero Stat.
type Stat = stats.Stat

// statOf reduces samples (in deterministic trial order) to mean ±
// t-interval. The accumulation order is the caller's slice order,
// never a map range, so the float sums are reproducible.
func statOf(samples []float64) Stat { return stats.Of(samples) }

// Robustness builds the scorecard from the campaign's records. Rows
// appear in spec order (L2-TLB × page size × app-axis unit × scheme ×
// rate); campaigns without a non-zero chaos rate have no rows.
func (c *Campaign) Robustness() *Robustness {
	recs := make(map[Run]Record, len(c.Records))
	for _, r := range c.Records {
		if r.Digest != "" {
			recs[r.Run] = r
		}
	}
	rb := &Robustness{}
	for _, l2 := range c.Spec.L2TLB {
		for _, ps := range c.Spec.PageSizes {
			for _, u := range c.Spec.units() {
				for _, scheme := range c.Spec.Schemes {
					key := c.Spec.run(u, scheme, l2, ps, chaosCell{})
					anchor, anchorOK := recs[key] // rate 0, seed 0
					anchorOK = anchorOK && !anchor.Failed() && anchor.Results.Cycles > 0
					for _, rate := range c.Spec.ChaosRates {
						if rate == 0 {
							continue
						}
						row := RobustRow{
							L2TLB: l2, PageSize: ps, Scale: c.Spec.Scale,
							App: u.app, Tenants: u.tenants, Scheme: scheme,
							ChaosRate: rate,
						}
						var completion, invariants, midflight, watchdog, slowdown []float64
						for _, seed := range c.Spec.ChaosSeeds {
							key.ChaosSeed, key.ChaosRate = seed, rate
							rec, ok := recs[key]
							if !ok {
								continue
							}
							row.Trials++
							watchdog = append(watchdog, float64(rec.WatchdogTrips))
							invariants = append(invariants, indicator(violated(rec)))
							if rec.Failed() {
								completion = append(completion, 0)
								row.Terminal = append(row.Terminal,
									fmt.Sprintf("seed %d: %s", seed, kindOf(rec)))
								continue
							}
							completion = append(completion, 1)
							lookups := rec.Results.VictimLookups
							if lookups == 0 {
								lookups = 1
							}
							midflight = append(midflight,
								float64(rec.Results.MidflightInvalidated)/float64(lookups))
							if anchorOK {
								slowdown = append(slowdown,
									float64(rec.Results.Cycles)/float64(anchor.Results.Cycles))
							}
						}
						row.Completion = statOf(completion)
						row.Invariants = statOf(invariants)
						row.Midflight = statOf(midflight)
						row.Watchdog = statOf(watchdog)
						row.Slowdown = statOf(slowdown)
						rb.Rows = append(rb.Rows, row)
					}
				}
			}
		}
	}
	return rb
}

// violated reports whether a trial tripped a live invariant probe:
// either the injector's after-fault probes counted violations (the
// counters survive terminal failures) or the run died with a
// structured invariant-violation error.
func violated(rec Record) bool {
	if rec.Chaos != nil && rec.Chaos.Stats.Violations > 0 {
		return true
	}
	return rec.ErrKind == "invariant-violation"
}

func indicator(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// kindOf labels a terminal failure for the scorecard: the structured
// sim.ErrorKind when there is one, "error" for unstructured failures.
func kindOf(rec Record) string {
	if rec.ErrKind != "" {
		return rec.ErrKind
	}
	return "error"
}

// JSON renders the scorecard deterministically.
func (r *Robustness) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// CSV renders one row per scorecard cell in deterministic order.
func (r *Robustness) CSV() ([]byte, error) {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	header := []string{
		"scale", "l2tlb", "pagesize", "app", "tenants", "scheme", "chaos_rate", "trials",
		"completion_mean", "completion_ci95",
		"invariants_mean", "invariants_ci95",
		"midflight_mean", "midflight_ci95",
		"watchdog_mean", "watchdog_ci95",
		"slowdown_mean", "slowdown_ci95", "slowdown_n",
		"terminal",
	}
	if err := w.Write(header); err != nil {
		return nil, err
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, row := range r.Rows {
		terminal := ""
		for i, t := range row.Terminal {
			if i > 0 {
				terminal += "; "
			}
			terminal += t
		}
		if err := w.Write([]string{
			g(row.Scale), strconv.Itoa(row.L2TLB), row.PageSize,
			row.App, row.Tenants, row.Scheme, g(row.ChaosRate),
			strconv.Itoa(row.Trials),
			g(row.Completion.Mean), g(row.Completion.CI95),
			g(row.Invariants.Mean), g(row.Invariants.CI95),
			g(row.Midflight.Mean), g(row.Midflight.CI95),
			g(row.Watchdog.Mean), g(row.Watchdog.CI95),
			g(row.Slowdown.Mean), g(row.Slowdown.CI95), strconv.Itoa(row.Slowdown.N),
			terminal,
		}); err != nil {
			return nil, err
		}
	}
	w.Flush()
	return buf.Bytes(), w.Error()
}

// fmtStat renders a Stat for the text tables: mean±half-width, or "-"
// when no trial produced the metric (e.g. slowdown when every trial
// failed).
func fmtStat(s Stat) string {
	if s.N == 0 {
		return "-"
	}
	if s.N == 1 {
		return fmt.Sprintf("%.4g", s.Mean)
	}
	return fmt.Sprintf("%.4g±%.2g", s.Mean, s.CI95)
}

// Tables renders the scorecard as one text table per sensitivity point,
// printed by the CLI next to the Figure 13-shaped sweep tables.
func (r *Robustness) Tables() []*metrics.Table {
	var out []*metrics.Table
	var cur *metrics.Table
	curL2, curPS := -1, ""
	for _, row := range r.Rows {
		if cur == nil || row.L2TLB != curL2 || row.PageSize != curPS {
			curL2, curPS = row.L2TLB, row.PageSize
			cur = metrics.NewTable(
				fmt.Sprintf("Robustness scorecard — l2tlb=%d page=%s scale=%g (mean±95%% CI across seeds)",
					row.L2TLB, row.PageSize, row.Scale),
				"app", "scheme", "rate", "trials", "complete", "invariants", "midflight", "watchdog", "slowdown")
			cur.AddNote("completion/invariants are trial fractions; midflight is dead-on-arrival probes per post-L1 lookup; slowdown is vs the fault-free run")
			out = append(out, cur)
		}
		cur.AddRow(row.App, row.Scheme,
			strconv.FormatFloat(row.ChaosRate, 'g', -1, 64),
			strconv.Itoa(row.Trials),
			fmtStat(row.Completion), fmtStat(row.Invariants),
			fmtStat(row.Midflight), fmtStat(row.Watchdog), fmtStat(row.Slowdown))
		for _, t := range row.Terminal {
			cur.AddNote("%s/%s rate=%g %s", row.App, row.Scheme, row.ChaosRate, t)
		}
	}
	return out
}
