package sweep

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strconv"

	"gpureach/internal/metrics"
	"gpureach/internal/workloads"
)

// Aggregate is the campaign's deterministic summary: for every
// sensitivity point of the matrix (scale, L2-TLB size, page size,
// chaos seed), the Figure 13-shaped speedup table and the Figure
// 14b-shaped normalized-page-walk table, with the paper's geomean /
// mean bottom rows. Identical campaigns — whatever the worker count,
// and whether results came from simulation, cache or journal — produce
// byte-identical JSON and CSV.
type Aggregate struct {
	Points []Point `json:"points"`
}

// Point is one (scale, L2-TLB, page size, chaos cell) cell of the
// sensitivity matrix with its cross-app aggregation.
type Point struct {
	Scale     float64 `json:"scale"`
	L2TLB     int     `json:"l2tlb"`
	PageSize  string  `json:"pagesize"`
	ChaosRate float64 `json:"chaos_rate"`
	ChaosSeed uint64  `json:"chaos_seed"`

	Schemes []string `json:"schemes"`
	Apps    []AppRow `json:"apps"`

	// GeomeanSpeedup is the Figure 13b bottom row: per-scheme geometric
	// mean speedup over baseline across all apps; the HighMedium
	// variant restricts to the paper's High+Medium PKI categories.
	GeomeanSpeedup           map[string]float64 `json:"geomean_speedup"`
	GeomeanSpeedupHighMedium map[string]float64 `json:"geomean_speedup_high_medium"`
	// MeanNormWalks is the Figure 14b bottom row: per-scheme mean page
	// walks normalized to baseline (apps with zero baseline walks are
	// excluded, as in the figure).
	MeanNormWalks map[string]float64 `json:"mean_norm_walks"`

	// Missing lists "app/scheme" cells without a usable record (failed
	// runs, or a failed baseline taking its whole row) so truncated
	// coverage is visible rather than silent.
	Missing []string `json:"missing,omitempty"`
}

// AppRow is one application's row at a point.
type AppRow struct {
	App            string             `json:"app"`
	Category       string             `json:"category"`
	BaselineCycles uint64             `json:"baseline_cycles"`
	BaselineWalks  uint64             `json:"baseline_walks"`
	Speedup        map[string]float64 `json:"speedup"`
	NormWalks      map[string]float64 `json:"norm_walks"`
	Digests        map[string]string  `json:"digests"`
}

// Aggregate reduces the campaign's records. Points appear in spec
// order (L2-TLB × page size × chaos cell), app-axis rows (solo
// workloads, then tenancy mixes) and schemes in spec order within each
// point.
func (c *Campaign) Aggregate() *Aggregate {
	recs := make(map[Run]Record, len(c.Records))
	for _, rec := range c.Records {
		if rec.Digest != "" && !rec.Failed() {
			recs[rec.Run] = rec
		}
	}
	agg := &Aggregate{}
	units := c.Spec.units()
	for _, l2 := range c.Spec.L2TLB {
		for _, ps := range c.Spec.PageSizes {
			for _, cell := range c.Spec.chaosCells() {
				pt := Point{
					Scale: c.Spec.Scale, L2TLB: l2, PageSize: ps,
					ChaosRate: cell.rate, ChaosSeed: cell.seed,
					Schemes: append([]string{}, c.Spec.Schemes...),
				}
				pt.reduce(units, func(u unit, scheme string) (Record, bool) {
					rec, ok := recs[c.Spec.run(u, scheme, l2, ps, cell)]
					return rec, ok
				})
				agg.Points = append(agg.Points, pt)
			}
		}
	}
	return agg
}

// reduce fills the point's app rows and bottom rows from rec, which
// returns the record of app-axis unit u under scheme at this point
// (ok=false for a missing or failed run). pt.Schemes names the
// schemes, baseline first.
func (pt *Point) reduce(units []unit, rec func(u unit, scheme string) (Record, bool)) {
	pt.GeomeanSpeedup = map[string]float64{}
	pt.GeomeanSpeedupHighMedium = map[string]float64{}
	pt.MeanNormWalks = map[string]float64{}
	baseName, schemes := pt.Schemes[0], pt.Schemes[1:]
	speedups := map[string][]float64{}
	speedupsHM := map[string][]float64{}
	walks := map[string][]float64{}
	for _, u := range units {
		base, ok := rec(u, baseName)
		if !ok {
			pt.Missing = append(pt.Missing, u.app+"/"+baseName)
			continue
		}
		w, solo := workloads.ByName(u.app)
		cat := string(w.Category)
		if u.tenants != "" {
			cat = "multi"
		}
		row := AppRow{
			App: u.app, Category: cat,
			BaselineCycles: uint64(base.Results.Cycles),
			BaselineWalks:  base.Results.PageWalks,
			Speedup:        map[string]float64{},
			NormWalks:      map[string]float64{},
			Digests:        map[string]string{baseName: base.Digest},
		}
		for _, scheme := range schemes {
			r, ok := rec(u, scheme)
			if !ok {
				pt.Missing = append(pt.Missing, u.app+"/"+scheme)
				continue
			}
			sp := r.Results.Speedup(base.Results)
			row.Speedup[scheme] = sp
			row.Digests[scheme] = r.Digest
			speedups[scheme] = append(speedups[scheme], sp)
			if solo && w.Category != workloads.Low {
				// Tenancy mixes have no Table 2 PKI category; the
				// paper's High+Medium row stays solo-only.
				speedupsHM[scheme] = append(speedupsHM[scheme], sp)
			}
			if base.Results.PageWalks > 0 {
				// Apps whose baseline never walks stay out of the mean.
				nw := r.Results.NormalizedWalks(base.Results)
				row.NormWalks[scheme] = nw
				walks[scheme] = append(walks[scheme], nw)
			}
		}
		pt.Apps = append(pt.Apps, row)
	}
	for _, scheme := range schemes {
		pt.GeomeanSpeedup[scheme] = metrics.Geomean(speedups[scheme])
		pt.GeomeanSpeedupHighMedium[scheme] = metrics.Geomean(speedupsHM[scheme])
		pt.MeanNormWalks[scheme] = metrics.Mean(walks[scheme])
	}
}

// Artifacts are a finished campaign's reductions and the bytes of the
// files WriteArtifacts wrote from them.
type Artifacts struct {
	Aggregate  *Aggregate
	Robustness *Robustness
	AggJSON    []byte
	AggCSV     []byte
	// RobJSON and RobCSV are nil when the campaign has no chaos cells.
	RobJSON []byte
	RobCSV  []byte
}

// WriteArtifacts reduces the campaign and atomically writes
// aggregate.json and aggregate.csv into dir, plus robustness.json and
// robustness.csv when the campaign has adversarial cells (a non-zero
// chaos rate).
func (c *Campaign) WriteArtifacts(dir string) (*Artifacts, error) {
	a := &Artifacts{Aggregate: c.Aggregate(), Robustness: c.Robustness()}
	var err error
	if a.AggJSON, err = a.Aggregate.JSON(); err == nil {
		a.AggCSV, err = a.Aggregate.CSV()
	}
	if err != nil {
		return nil, fmt.Errorf("aggregate: %w", err)
	}
	if len(a.Robustness.Rows) > 0 {
		if a.RobJSON, err = a.Robustness.JSON(); err == nil {
			a.RobCSV, err = a.Robustness.CSV()
		}
		if err != nil {
			return nil, fmt.Errorf("robustness: %w", err)
		}
	}
	names := []string{"aggregate.json", "aggregate.csv", "robustness.json", "robustness.csv"}
	for i, data := range [][]byte{a.AggJSON, a.AggCSV, a.RobJSON, a.RobCSV} {
		if data == nil {
			continue
		}
		if err := WriteFileAtomic(filepath.Join(dir, names[i]), data); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// JSON renders the aggregate deterministically (maps marshal with
// sorted keys; floats use Go's shortest round-trip formatting).
func (a *Aggregate) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// CSV renders one row per (point, app, scheme) cell in deterministic
// order, the flat form spreadsheet pipelines want.
func (a *Aggregate) CSV() ([]byte, error) {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write([]string{
		"scale", "l2tlb", "pagesize", "chaos_rate", "chaos_seed",
		"app", "category", "scheme", "digest", "speedup", "norm_walks",
	}); err != nil {
		return nil, err
	}
	for _, pt := range a.Points {
		for _, row := range pt.Apps {
			for _, scheme := range pt.Schemes {
				sp, ok := row.Speedup[scheme]
				if !ok {
					continue
				}
				nw := ""
				if v, ok := row.NormWalks[scheme]; ok {
					nw = strconv.FormatFloat(v, 'g', -1, 64)
				}
				if err := w.Write([]string{
					strconv.FormatFloat(pt.Scale, 'g', -1, 64),
					strconv.Itoa(pt.L2TLB), pt.PageSize,
					strconv.FormatFloat(pt.ChaosRate, 'g', -1, 64),
					strconv.FormatUint(pt.ChaosSeed, 10),
					row.App, row.Category, scheme, row.Digests[scheme],
					strconv.FormatFloat(sp, 'g', -1, 64), nw,
				}); err != nil {
					return nil, err
				}
			}
		}
	}
	w.Flush()
	return buf.Bytes(), w.Error()
}

// Tables renders the aggregate as the text tables the CLI prints: per
// point, a Figure 13-shaped speedup table and a Figure 14b-shaped
// normalized-walk table, with "-" for a missing cell.
func (a *Aggregate) Tables() []*metrics.Table {
	var out []*metrics.Table
	for i := range a.Points {
		pt := &a.Points[i]
		label := fmt.Sprintf("l2tlb=%d page=%s scale=%g", pt.L2TLB, pt.PageSize, pt.Scale)
		if pt.ChaosRate > 0 {
			label += fmt.Sprintf(" chaos=%g seed=%d", pt.ChaosRate, pt.ChaosSeed)
		}
		sp := pt.table("Sweep speedup vs baseline — "+label, speedupCol, "-")
		pt.summaryRow(sp, "geomean", pt.GeomeanSpeedup)
		pt.summaryRow(sp, "geomean-H+M", pt.GeomeanSpeedupHighMedium)
		if len(pt.Missing) > 0 {
			sp.AddNote("missing cells (failed or absent runs): %v", pt.Missing)
		}
		nw := pt.table("Sweep page walks normalized to baseline — "+label, walksCol, "-")
		pt.summaryRow(nw, "mean", pt.MeanNormWalks)
		out = append(out, sp, nw)
	}
	return out
}

func speedupCol(row AppRow) map[string]float64 { return row.Speedup }
func walksCol(row AppRow) map[string]float64   { return row.NormWalks }

// table renders one column per non-baseline scheme of the point and
// one row per app: the app's value of that scheme in col(row), or
// missing when it has none.
func (pt *Point) table(title string, col func(AppRow) map[string]float64, missing string) *metrics.Table {
	schemes := pt.Schemes[1:] // the baseline is identically 1.0
	t := metrics.NewTable(title, append([]string{"app"}, schemes...)...)
	for _, row := range pt.Apps {
		cells := []string{row.App}
		for _, s := range schemes {
			if v, ok := col(row)[s]; ok {
				cells = append(cells, metrics.F(v))
			} else {
				cells = append(cells, missing)
			}
		}
		t.AddRow(cells...)
	}
	return t
}

// summaryRow appends label and the value in m of every non-baseline
// scheme of the point.
func (pt *Point) summaryRow(t *metrics.Table, label string, m map[string]float64) {
	cells := []string{label}
	for _, s := range pt.Schemes[1:] {
		cells = append(cells, metrics.F(m[s]))
	}
	t.AddRow(cells...)
}
