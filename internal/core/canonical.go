package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"

	"gpureach/internal/vm"
	"gpureach/internal/workloads"
)

// Canonical returns a stable, human-readable serialization of the
// configuration: one "path=value" line per exported scalar field,
// recursing through nested structs, sorted by path. Two configs are
// equal exactly when their canonical forms are equal, which makes the
// form (and digests of it) usable as a content address for run caching
// (internal/sweep). Field *names* are part of the form, so adding a
// knob to any config struct changes the canonical form of every config
// — exactly the invalidation a result cache wants.
func (c Config) Canonical() string {
	var lines []string
	appendCanonical(reflect.ValueOf(c), "", &lines)
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func appendCanonical(v reflect.Value, prefix string, lines *[]string) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.PkgPath != "" {
			continue // unexported
		}
		fv := v.Field(i)
		name := prefix + f.Name
		if fv.Kind() == reflect.Struct {
			appendCanonical(fv, name+".", lines)
			continue
		}
		*lines = append(*lines, fmt.Sprintf("%s=%v", name, fv.Interface()))
	}
}

// Schemes returns every named translation scheme in the stable order
// used by help text and sweep expansion: the baseline first, then the
// paper's design points in Figure 13/16 order.
func Schemes() []Scheme {
	return []Scheme{
		Baseline(), LDSOnly(),
		ICOneTx(), ICNaive(), ICAware(), ICAwareFlush(),
		Combined(), DucatiOnly(), CombinedDucati(), PrefetchBuffer(),
	}
}

// SchemeByName returns the scheme with the given name (as reported by
// Scheme.Name — "baseline", "lds", "ic+lds", ...).
func SchemeByName(name string) (Scheme, bool) {
	for _, s := range Schemes() {
		if s.Name == name {
			return s, true
		}
	}
	return Scheme{}, false
}

// SchemeNames returns the names of all registered schemes, in
// Schemes() order.
func SchemeNames() []string {
	var names []string
	for _, s := range Schemes() {
		names = append(names, s.Name)
	}
	return names
}

// PageSizeNames returns the supported page granularities (§6.2) in
// ascending size order, as accepted by PageSizeByName.
func PageSizeNames() []string { return []string{"4K", "64K", "2M"} }

// PageSizeByName maps a name like "4K", "64K" or "2M" (case-insensitive)
// to the vm granularity.
func PageSizeByName(name string) (vm.PageSize, bool) {
	switch strings.ToUpper(name) {
	case "4K", "4KB":
		return vm.Page4K, true
	case "64K", "64KB":
		return vm.Page64K, true
	case "2M", "2MB":
		return vm.Page2M, true
	}
	return 0, false
}

// PageSizeName is the inverse of PageSizeByName for the supported
// granularities.
func PageSizeName(ps vm.PageSize) string {
	switch ps {
	case vm.Page4K:
		return "4K"
	case vm.Page64K:
		return "64K"
	case vm.Page2M:
		return "2M"
	}
	return fmt.Sprintf("%dB", uint64(ps))
}

// ResolveApps maps application names to workloads. Unknown names do
// not panic: they are reported in one error that lists the valid names,
// so CLIs can surface it as a clean message. The returned slice holds
// the workloads that did resolve (all ten for an empty name list).
func ResolveApps(names []string) ([]workloads.Workload, error) {
	if len(names) == 0 {
		return workloads.All(), nil
	}
	var out []workloads.Workload
	var unknown []string
	for _, name := range names {
		w, ok := workloads.ByName(name)
		if !ok {
			unknown = append(unknown, name)
			continue
		}
		out = append(out, w)
	}
	if len(unknown) > 0 {
		var valid []string
		for _, w := range workloads.All() {
			valid = append(valid, w.Name)
		}
		return out, fmt.Errorf("unknown workload(s) %s (valid: %s)",
			strings.Join(unknown, ", "), strings.Join(valid, ", "))
	}
	return out, nil
}

// ValidateScale rejects footprint scale factors no workload can be
// built at: NaN, ±Inf and negative values. Zero passes: sweep specs
// and experiment options read it as unset (1.0).
func ValidateScale(s float64) error {
	switch {
	case math.IsNaN(s):
		return fmt.Errorf("scale is NaN; it must be a finite, non-negative factor")
	case math.IsInf(s, 0):
		return fmt.Errorf("scale %g is infinite; it must be a finite, non-negative factor", s)
	case s < 0:
		return fmt.Errorf("negative scale %g; it must be a finite, non-negative factor", s)
	}
	return nil
}
