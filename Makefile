# Verification tiers (see ROADMAP.md).
#
#   make tier1        build + full unit tests — the gate every change must pass
#   make tier2        tier1 plus static analysis and a race-detector sweep
#   make lint         go vet + gofmt + the repo's own analyzers (cmd/gpureachvet,
#                     with -stale-allows so waivers that suppress nothing fail too)
#   make bench        microbenchmarks: the internal/sim event engine, guarded
#                     loop and waiter table, internal/tlb Insert,
#                     internal/cache AccessEvent and the internal/gpu lane
#                     coalescer (repeated-trial perf measurements with
#                     host fingerprints: bash perfbench/run.sh)
#   make bench-smoke  one-iteration pass over every benchmark (CI keeps them
#                     compiling and running; no stable numbers expected)
#   make allocs       the core allocation budgets (-v, so each prints its
#                     measurement), then the heap-profile top allocation sites
#                     of GUPS/ic+lds@0.05 at -memprofilerate 1
#   make perfbench-selftest
#                     the repository benchmark's own tests at tiny scale
#                     (perfbench/ is a separate module, so tier1 skips it)
#   make exp-smoke    every paper experiment at scale 0.05 on MVT,SRAD through
#                     `gpureach exp`, asserting stdout is byte-identical at
#                     GOMAXPROCS=1 vs 2 and to the committed golden
#   make sweep-smoke  fast end-to-end campaigns on the parallel sweep engine,
#                     with a byte-identity check across independent campaign dirs
#   make chaos-smoke  fast adversarial campaign: a two-tenant co-run under a
#                     two-rate chaos ladder × two seed trials, asserting the
#                     robustness scorecard is byte-identical at procs=1 vs 4
#   make sample-smoke fast sampled campaign: a two-app × two-scheme matrix under
#                     sampled execution, asserting estimates (CIs included) are
#                     byte-identical at procs=1 vs 4 and survive a cache pass
#   make serve-smoke  end-to-end drive of `gpureach serve`: duplicate concurrent
#                     campaigns over HTTP, event streams, aggregate byte-identity
#                     vs the CLI sweep, coalesce/cache dedup, SIGTERM drain
#   make coverage     statement-coverage gate: internal/sample and
#                     internal/stats must each cover >= 85%
#   make loc          net production LOC: lines of non-test .go files
#                     outside perfbench/ and testdata/

GO ?= go

.DEFAULT_GOAL := tier1

.PHONY: tier1 tier2 lint bench bench-smoke allocs perfbench-selftest exp-smoke sweep-smoke chaos-smoke sample-smoke serve-smoke coverage loc

tier1:
	$(GO) build ./...
	$(GO) test ./...

tier2: tier1
	$(GO) vet ./...
	$(GO) test -race ./...

lint:
	$(GO) vet ./...
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi
	$(GO) run ./cmd/gpureachvet -stale-allows ./...

bench:
	$(GO) test -bench=. -benchmem -run NONE ./internal/sim/ ./internal/tlb/ ./internal/cache/ ./internal/gpu/

bench-smoke:
	$(GO) test -bench=. -benchtime 1x -benchmem -run NONE ./internal/sim/ ./internal/tlb/ ./internal/cache/ ./internal/gpu/

allocs:
	$(GO) test -count=1 -v -run 'TestFullDetailRunAllocBudget|TestNewSystemByteBudget' ./internal/core/
	mkdir -p .allocs
	$(GO) test -count=1 -run 'TestFullDetailRunAllocBudget/GUPS' -memprofilerate 1 \
		-memprofile $(CURDIR)/.allocs/mem.out -o $(CURDIR)/.allocs/core.test ./internal/core/
	$(GO) tool pprof -sample_index=alloc_space -top .allocs/core.test .allocs/mem.out

perfbench-selftest:
	cd perfbench && $(GO) test ./...

exp-smoke:
	rm -rf .exp-smoke
	mkdir -p .exp-smoke
	$(GO) build -o .exp-smoke/gpureach ./cmd/gpureach
	GOMAXPROCS=1 ./.exp-smoke/gpureach exp -exp all -scale 0.05 -apps MVT,SRAD > .exp-smoke/p1.txt
	GOMAXPROCS=2 ./.exp-smoke/gpureach exp -exp all -scale 0.05 -apps MVT,SRAD > .exp-smoke/p2.txt
	cmp .exp-smoke/p1.txt .exp-smoke/p2.txt
	cmp .exp-smoke/p1.txt internal/core/testdata/exp_all.golden
	@echo "exp-smoke: experiment tables byte-identical at GOMAXPROCS 1 vs 2 and to the golden"

sweep-smoke:
	rm -rf .sweep-smoke
	$(GO) run ./cmd/gpureach sweep -apps ATAX,GUPS -schemes ic+lds \
		-scale 0.05 -procs 2 -out .sweep-smoke/a
	$(GO) run ./cmd/gpureach sweep -apps ATAX,GUPS -schemes ic+lds \
		-scale 0.05 -procs 2 -out .sweep-smoke/a -quiet
	$(GO) run ./cmd/gpureach sweep -apps ATAX,GUPS -schemes ic+lds \
		-scale 0.05 -procs 1 -out .sweep-smoke/b -quiet -no-tables
	cmp .sweep-smoke/a/aggregate.json .sweep-smoke/b/aggregate.json
	cmp .sweep-smoke/a/aggregate.csv .sweep-smoke/b/aggregate.csv
	@echo "sweep-smoke: aggregates byte-identical across independent campaigns (procs 2 vs 1)"

chaos-smoke:
	rm -rf .chaos-smoke
	$(GO) run ./cmd/gpureach sweep -tenancy MVT+SRAD -schemes ic+lds \
		-chaos-rates 0.002,0.01 -chaos-seeds 1,2 -scale 0.05 \
		-procs 1 -out .chaos-smoke/p1 -quiet -no-tables
	$(GO) run ./cmd/gpureach sweep -tenancy MVT+SRAD -schemes ic+lds \
		-chaos-rates 0.002,0.01 -chaos-seeds 1,2 -scale 0.05 \
		-procs 4 -out .chaos-smoke/p4 -quiet -no-tables
	cmp .chaos-smoke/p1/robustness.json .chaos-smoke/p4/robustness.json
	cmp .chaos-smoke/p1/robustness.csv .chaos-smoke/p4/robustness.csv
	cmp .chaos-smoke/p1/aggregate.json .chaos-smoke/p4/aggregate.json
	@echo "chaos-smoke: robustness scorecard byte-identical across independent campaigns (procs 1 vs 4)"

sample-smoke:
	rm -rf .sample-smoke
	$(GO) run ./cmd/gpureach sweep -apps GUPS,SRAD -schemes lds,ic+lds \
		-sample windows=6,frac=0.25,seed=1 -scale 0.05 \
		-procs 1 -out .sample-smoke/p1 -quiet -no-tables
	$(GO) run ./cmd/gpureach sweep -apps GUPS,SRAD -schemes lds,ic+lds \
		-sample windows=6,frac=0.25,seed=1 -scale 0.05 \
		-procs 4 -out .sample-smoke/p4 -quiet -no-tables
	cmp .sample-smoke/p1/aggregate.json .sample-smoke/p4/aggregate.json
	cmp .sample-smoke/p1/aggregate.csv .sample-smoke/p4/aggregate.csv
	$(GO) run ./cmd/gpureach sweep -apps GUPS,SRAD -schemes lds,ic+lds \
		-sample windows=6,frac=0.25,seed=1 -scale 0.05 \
		-procs 4 -out .sample-smoke/p4 -quiet -no-tables
	cmp .sample-smoke/p1/aggregate.json .sample-smoke/p4/aggregate.json
	grep -q '"sampled"' .sample-smoke/p1/journal.jsonl
	@echo "sample-smoke: sampled estimates byte-identical across procs 1 vs 4 and across a cache pass"

serve-smoke:
	GO="$(GO)" sh scripts/serve_smoke.sh

coverage:
	$(GO) test -coverprofile=.coverage.out ./internal/sample/ ./internal/stats/
	@for pkg in gpureach/internal/sample gpureach/internal/stats; do \
		pct=$$($(GO) test -cover "./$${pkg#gpureach/}" | awk '{for(i=1;i<=NF;i++) if ($$i=="coverage:") print $$(i+1)}' | tr -d '%'); \
		echo "$$pkg coverage: $$pct%"; \
		ok=$$(awk -v p="$$pct" 'BEGIN{print (p+0 >= 85) ? 1 : 0}'); \
		if [ "$$ok" != "1" ]; then echo "$$pkg coverage $$pct% < 85%"; rm -f .coverage.out; exit 1; fi; \
	done
	@rm -f .coverage.out

loc:
	@find . -path './.*' -prune -o -path ./perfbench -prune -o -path '*/testdata' -prune -o \
		-name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l | \
		awk '{print "production LOC:", $$1}'
