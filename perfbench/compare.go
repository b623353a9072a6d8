package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// compareMain implements `perfbench compare A B`: A and B are result
// sets (directories of run records, or single record files). For every
// workload and metric it prints each set's median and quartiles and the
// change of B's median against A's. It warns when the sets were not
// measured on the same host, since only a same-host pair compares.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <results-A> <results-B>")
		return 2
	}
	a, err := loadRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	b, err := loadRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	hosts := map[string]bool{}
	for _, r := range append(append([]*Record(nil), a...), b...) {
		hosts[r.Host.host()] = true
	}
	if len(hosts) > 1 {
		fmt.Fprintf(w, "WARNING: the result sets come from %d different host fingerprints; this is not a same-host pair:\n", len(hosts))
		for _, h := range sortedKeys(hosts) {
			fmt.Fprintln(w, "  ", h)
		}
	}

	type key struct{ workload, metric string }
	av, bv := map[key][]float64{}, map[key][]float64{}
	units := map[key]string{}
	collect := func(recs []*Record, into map[key][]float64) {
		for _, r := range recs {
			for _, name := range sortedKeys(r.Result.Metrics) {
				m := r.Result.Metrics[name]
				k := key{r.Workload, name}
				into[k] = append(into[k], m.Value)
				units[k] = m.Unit
			}
		}
	}
	collect(a, av)
	collect(b, bv)
	var keys []key
	for k := range units {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-11s %-26s %-8s %5s %14s %14s %5s %14s %14s %8s\n",
		"workload", "metric", "unit", "nA", "medianA", "iqrA", "nB", "medianB", "iqrB", "change")
	for _, k := range keys {
		x, y := av[k], bv[k]
		change := "-"
		if len(x) > 0 && len(y) > 0 && median(x) != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(median(y)/median(x)-1))
		}
		fmt.Fprintf(w, "%-11s %-26s %-8s %5d %14.6g %14.6g %5d %14.6g %14.6g %8s\n",
			k.workload, k.metric, units[k], len(x), median(x), iqr(x), len(y), median(y), iqr(y), change)
	}
	return 0
}

func iqr(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return quantile(vs, 0.75) - quantile(vs, 0.25)
}

func loadRecords(path string) ([]*Record, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	var recs []*Record
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r Record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		recs = append(recs, &r)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s holds no run records", path)
	}
	return recs, nil
}
