package analysis

import (
	"fmt"
	"strings"
)

// Rule scopes one analyzer to a subset of the module's packages.
type Rule struct {
	Analyzer *Analyzer
	// Match restricts the packages the analyzer reports on; nil means
	// every module-local package. Analyzers that export facts still
	// run (fact-only, diagnostics discarded) on every package in the
	// dependency closure, so cross-package facts exist before their
	// consumers need them.
	Match func(pkgPath string) bool
}

// Suite is an ordered set of scoped analyzers plus the machinery to
// run them over a dependency-closed package set with shared facts.
type Suite struct {
	Rules []Rule
	// ReportStale adds a diagnostic (under StaleAllowAnalyzer) for
	// every //gpureach:allow directive in a requested package that
	// suppressed nothing — waivers must not outlive the violations
	// they excuse. Meaningful only when the full suite runs: with a
	// subset of analyzers, unrelated directives would be flagged.
	ReportStale bool
}

// simPackages are the packages holding timing models and everything
// that feeds digested, cached or aggregated artifacts. detclock and
// simerr are scoped here; the sweep engine and CLI layers are
// deliberately outside detclock's scope because wall-clock reads are
// legitimate for progress lines and bench trajectories (and only
// there — see the WallMS handling in internal/sweep).
func simPackage(path string) bool {
	rest, ok := strings.CutPrefix(path, "gpureach/internal/")
	if !ok {
		return false
	}
	switch strings.SplitN(rest, "/", 2)[0] {
	case "analysis", "cli", "serve", "sweep":
		return false
	}
	return true
}

// simErrPackage extends the simerr scope to the sweep engine and the
// campaign server: those layers must stay panic-free too, they just
// may read the wall clock (Retry-After hints, bench trajectories).
func simErrPackage(path string) bool {
	return simPackage(path) ||
		path == "gpureach/internal/sweep" ||
		path == "gpureach/internal/serve"
}

// concurrentPackage scopes ctxguard to the concurrent substrate: the
// campaign server, the submit/observe sweep engine, and the metrics
// registry it publishes. cmd/ is deliberately outside: process entry
// points are exactly where root contexts are minted.
func concurrentPackage(path string) bool {
	switch path {
	case "gpureach/internal/serve", "gpureach/internal/sweep",
		"gpureach/internal/metrics":
		return true
	}
	return false
}

// DefaultSuite wires the nine analyzers to the repo's real invariant
// surfaces (the compile-time column of DESIGN.md §5).
func DefaultSuite() *Suite {
	return &Suite{Rules: []Rule{
		{Analyzer: DetClock, Match: simPackage},
		{Analyzer: SimErr, Match: simErrPackage},
		{Analyzer: MapOrder},   // everywhere: output order matters wherever output is written
		{Analyzer: FloatOrder}, // everywhere: aggregation lives outside the sim packages
		{Analyzer: SchedGuard}, // everywhere a sim.Engine is driven
		{Analyzer: LockOrder},  // everywhere: mutexes guard state in serve, sweep, metrics and sim
		{Analyzer: GoroLeak},   // everywhere: every spawned goroutine needs a join or cancel path
		{Analyzer: CtxGuard, Match: concurrentPackage},
		{Analyzer: DigestPure}, // everywhere a Canonical/Digest root or cache write lives
	}}
}

// Analyzers returns the suite's analyzers in rule order.
func (s *Suite) Analyzers() []*Analyzer {
	var out []*Analyzer
	for _, r := range s.Rules {
		out = append(out, r.Analyzer)
	}
	return out
}

// Run loads the named packages, analyzes them (and, for fact
// computation, their module-local dependency closure in
// dependency-first order) and returns the surviving diagnostics for
// the named packages, allow-filtered and position-sorted.
func (s *Suite) Run(l *Loader, paths []string) ([]Diagnostic, error) {
	requested := map[string]bool{}
	var roots []*Package
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		requested[pkg.Path] = true
		roots = append(roots, pkg)
	}

	order := topoLocal(roots)
	for _, pkg := range order {
		if len(pkg.LoadErrs) > 0 {
			return nil, fmt.Errorf("analysis: %s does not type-check: %v (and %d more)",
				pkg.Path, pkg.LoadErrs[0], len(pkg.LoadErrs)-1)
		}
	}

	facts := newFactStore()
	var diags []Diagnostic
	for _, pkg := range order {
		var pkgDiags []Diagnostic
		for _, rule := range s.Rules {
			pass := &Pass{
				Analyzer: rule.Analyzer,
				Fset:     l.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
				facts:    facts,
				diags:    &pkgDiags,
			}
			inScope := rule.Match == nil || rule.Match(pkg.Path)
			if !inScope || !requested[pkg.Path] {
				// Fact-only run: facts accumulate, diagnostics drop.
				var discard []Diagnostic
				pass.diags = &discard
			}
			rule.Analyzer.Run(pass)
		}
		kept, directives := filterAllowed(l.Fset, pkg.Files, pkgDiags)
		diags = append(diags, kept...)
		if s.ReportStale && requested[pkg.Path] {
			diags = append(diags, staleDiagnostics(directives, s.knownAnalyzers())...)
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

// knownAnalyzers is the set of analyzer names stale detection treats
// as spellable in a directive.
func (s *Suite) knownAnalyzers() map[string]bool {
	known := map[string]bool{}
	for _, r := range s.Rules {
		known[r.Analyzer.Name] = true
	}
	return known
}

// RunDir analyzes a single package directory (fixture packages in
// testdata live outside the ./... pattern) with every analyzer of the
// suite unscoped. The dependency closure still runs fact-only first.
func (s *Suite) RunDir(l *Loader, dir string) ([]Diagnostic, error) {
	pkg, err := l.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	if len(pkg.LoadErrs) > 0 {
		return nil, fmt.Errorf("analysis: %s does not type-check: %v", pkg.Path, pkg.LoadErrs[0])
	}

	facts := newFactStore()
	var diags []Diagnostic
	for _, dep := range topoLocal([]*Package{pkg}) {
		for _, rule := range s.Rules {
			var sink []Diagnostic
			pass := &Pass{
				Analyzer: rule.Analyzer,
				Fset:     l.Fset,
				Files:    dep.Files,
				Pkg:      dep.Pkg,
				Info:     dep.Info,
				facts:    facts,
				diags:    &sink,
			}
			rule.Analyzer.Run(pass)
			if dep == pkg {
				diags = append(diags, sink...)
			}
		}
	}
	kept, directives := filterAllowed(l.Fset, pkg.Files, diags)
	if s.ReportStale {
		kept = append(kept, staleDiagnostics(directives, s.knownAnalyzers())...)
	}
	sortDiagnostics(kept)
	return kept, nil
}

// topoLocal returns the module-local packages reachable from roots in
// dependency-first order (every package appears after all its local
// imports).
func topoLocal(roots []*Package) []*Package {
	var order []*Package
	seen := map[*Package]bool{}
	var visit func(*Package)
	visit = func(p *Package) {
		if seen[p] || !p.Local {
			return
		}
		seen[p] = true
		for _, dep := range p.Imports {
			visit(dep)
		}
		order = append(order, p)
	}
	for _, r := range roots {
		visit(r)
	}
	return order
}
