package sample

import (
	"errors"
	"fmt"
	"math"

	"gpureach/internal/metrics"
)

// Pair names one cell of the cross-validation matrix.
type Pair struct {
	App    string `json:"app"`
	Scheme string `json:"scheme"`
}

// CalibrationPairs is the stock cross-validation matrix, used by
// gpureach exp calibrate-sampling and TestSampledMatchesFullDetail: two
// cells per translation scheme, spanning the regular (GUPS, PRK), the
// graph-irregular (BFS, SSSP) and the compute-bound (NW) ends of the
// workload set. The ATAX family is deliberately absent: at calibration
// scales those apps retire too few wave instructions for interval
// sampling to place distinct windows.
var CalibrationPairs = []Pair{
	{App: "GUPS", Scheme: "ic+lds"},
	{App: "GUPS", Scheme: "lds"},
	{App: "BFS", Scheme: "ic-aware"},
	{App: "SSSP", Scheme: "ic+lds"},
	{App: "PRK", Scheme: "lds"},
	{App: "NW", Scheme: "ic-aware"},
}

// PairOutcome is the measured material for one cell, supplied by an
// injected runner so this package stays free of the core dependency:
// full-detail cycle counts and sampled estimates for both the baseline
// scheme and the cell's scheme.
type PairOutcome struct {
	FullBaseCycles   uint64    `json:"full_base_cycles"`
	FullSchemeCycles uint64    `json:"full_scheme_cycles"`
	SampledBase      *Estimate `json:"sampled_base"`
	SampledScheme    *Estimate `json:"sampled_scheme"`
}

// Row scores one cell: sampled-vs-full speedup error and whether the
// sampled confidence interval covers the full-detail truth.
type Row struct {
	Pair
	FullSpeedup    float64 `json:"full_speedup"`
	SampledSpeedup float64 `json:"sampled_speedup"`
	RelErr         float64 `json:"rel_err"`
	CILo           float64 `json:"ci_lo"`
	CIHi           float64 `json:"ci_hi"`
	Covered        bool    `json:"covered"`
	CyclesRelErr   float64 `json:"cycles_rel_err"`
	CyclesCovered  bool    `json:"cycles_covered"`
}

// Report aggregates the cross-validation matrix.
type Report struct {
	Rows       []Row   `json:"rows"`
	MeanRelErr float64 `json:"mean_rel_err"`
	MaxRelErr  float64 `json:"max_rel_err"`
	// Coverage is the fraction of rows whose speedup CI covers the
	// full-detail speedup.
	Coverage float64 `json:"coverage"`
}

// Validate runs the injected runner over every pair and scores the
// outcomes. Runner errors abort the harness: a cell that cannot run is
// a configuration bug, not a statistical result.
func Validate(pairs []Pair, run func(Pair) (PairOutcome, error)) (*Report, error) {
	if len(pairs) == 0 {
		return nil, errors.New("sample: no pairs to validate")
	}
	rep := &Report{}
	covered := 0
	sumErr := 0.0
	for _, p := range pairs {
		out, err := run(p)
		if err != nil {
			return nil, fmt.Errorf("sample: validate %s/%s: %w", p.App, p.Scheme, err)
		}
		row, err := scoreRow(p, out)
		if err != nil {
			return nil, fmt.Errorf("sample: validate %s/%s: %w", p.App, p.Scheme, err)
		}
		rep.Rows = append(rep.Rows, row)
		sumErr += row.RelErr
		if row.RelErr > rep.MaxRelErr {
			rep.MaxRelErr = row.RelErr
		}
		if row.Covered {
			covered++
		}
	}
	rep.MeanRelErr = sumErr / float64(len(rep.Rows))
	rep.Coverage = float64(covered) / float64(len(rep.Rows))
	return rep, nil
}

func scoreRow(p Pair, out PairOutcome) (Row, error) {
	if out.FullBaseCycles == 0 || out.FullSchemeCycles == 0 {
		return Row{}, fmt.Errorf("full-detail cycles are zero (base %d, scheme %d)",
			out.FullBaseCycles, out.FullSchemeCycles)
	}
	if out.SampledBase == nil || out.SampledScheme == nil {
		return Row{}, errors.New("missing sampled estimate")
	}
	sb, ss := out.SampledBase.Cycles, out.SampledScheme.Cycles
	if !(sb.Mean > 0) || !(ss.Mean > 0) {
		return Row{}, fmt.Errorf("sampled cycle estimate not positive (base %g, scheme %g)",
			sb.Mean, ss.Mean)
	}
	row := Row{Pair: p}
	row.FullSpeedup = float64(out.FullBaseCycles) / float64(out.FullSchemeCycles)
	row.SampledSpeedup = sb.Mean / ss.Mean
	row.RelErr = math.Abs(row.SampledSpeedup-row.FullSpeedup) / row.FullSpeedup
	// Conservative ratio interval: the speedup is smallest when the
	// baseline sits at its CI floor and the scheme at its ceiling, and
	// vice versa. A scheme CI floor at or below zero makes the upper
	// bound unbounded.
	bLo, bHi := sb.Interval()
	sLo, sHi := ss.Interval()
	if bLo < 0 {
		bLo = 0
	}
	row.CILo = bLo / sHi
	if sLo > 0 {
		row.CIHi = bHi / sLo
	} else {
		row.CIHi = math.Inf(1)
	}
	row.Covered = row.FullSpeedup >= row.CILo && row.FullSpeedup <= row.CIHi
	full := float64(out.FullSchemeCycles)
	row.CyclesRelErr = math.Abs(ss.Mean-full) / full
	row.CyclesCovered = ss.Covers(full)
	return row, nil
}

// Check returns an error naming every row that violates the error
// budget or escapes its confidence interval; nil when all rows pass.
func (r *Report) Check(maxRelErr float64) error {
	var bad []string
	for _, row := range r.Rows {
		if row.RelErr > maxRelErr {
			bad = append(bad, fmt.Sprintf("%s/%s: speedup error %.1f%% > %.1f%%",
				row.App, row.Scheme, 100*row.RelErr, 100*maxRelErr))
		}
		if !row.Covered {
			bad = append(bad, fmt.Sprintf("%s/%s: 95%% CI [%.3f, %.3f] misses full-detail speedup %.3f",
				row.App, row.Scheme, row.CILo, row.CIHi, row.FullSpeedup))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("sample: calibration failed:\n  %s", joinLines(bad))
}

func joinLines(xs []string) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += "\n  "
		}
		out += x
	}
	return out
}

// Table renders the error table the calibrate-sampling command prints.
func (r *Report) Table() string {
	t := metrics.NewTable("Sampled-vs-full cross-validation",
		"app", "scheme", "full speedup", "sampled", "rel err", "speedup 95% CI", "covered", "cycles err")
	for _, row := range r.Rows {
		cov := "no"
		if row.Covered {
			cov = "yes"
		}
		t.AddRow(row.App, row.Scheme,
			metrics.F(row.FullSpeedup), metrics.F(row.SampledSpeedup), metrics.Pct(row.RelErr),
			fmt.Sprintf("[%.3f, %.3f]", row.CILo, row.CIHi), cov, metrics.Pct(row.CyclesRelErr))
	}
	t.AddNote("mean rel err %s, max %s, CI coverage %s",
		metrics.Pct(r.MeanRelErr), metrics.Pct(r.MaxRelErr), metrics.Pct(r.Coverage))
	return t.String()
}
