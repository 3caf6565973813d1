# Tier-1 verification for this repo.  `make ci` is what a reviewer (or a
# CI job) runs: vet, lint, build, the full test suite under the race
# detector — the parallel detect stage makes -race load-bearing, not
# optional — the pipeline determinism regression explicitly by name so a
# renamed or skipped test fails loudly, the compiler escape-analysis
# gate, and the allocs/op budget inside bench-smoke.

GO ?= go
LINT := bin/sentinel-lint
BENCHJSON := bin/benchjson

.PHONY: ci vet lint build test race determinism obs-determinism trace-overhead escape-gate bench bench-smoke bench-diff scale-smoke

ci: vet lint build race determinism obs-determinism trace-overhead escape-gate bench-smoke scale-smoke

vet:
	$(GO) vet ./...

# The repo's own analyzer suite (walltime, stampcmp, mapiter, sitemap,
# stagefx, obsfx, hotalloc — see DESIGN.md "Enforced invariants"),
# driven through the go vet unit-checker protocol so test variants are
# covered too and per-package facts flow bottom-up for the
# interprocedural checks.
lint:
	$(GO) build -o $(LINT) ./cmd/sentinel-lint
	$(GO) vet -vettool=$(LINT) ./...

# Compiler-proven heap escapes in the hot packages, diffed against the
# committed escape.manifest.  A new or increased escape fails; shrink
# the manifest with `go run ./cmd/escapegate -update` after reviewing.
escape-gate:
	$(GO) run ./cmd/escapegate

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The Workers=0 vs Workers>1 byte-identical occurrence stream regression
# (internal/ddetect/determinism_test.go), under the race detector.
determinism:
	$(GO) test -race -run 'TestPipelineDeterminism|TestPoolingDeterminism|TestTracerComposesWithPooling' -v ./internal/ddetect

# The PR-5 tentpole regression: the full observability stack (tracer into
# span log + flight recorder, metrics registry) must be a pure observer —
# byte-identical occurrence logs with it attached or detached, and a span
# stream identical across worker counts.  Under -race like the rest.
obs-determinism:
	$(GO) test -race -run 'TestObsDeterminism' -v ./internal/ddetect

# A real-sink tracer at 1% head sampling must cost <3% on the *pooled*
# pipeline workload (minima of interleaved runs); the test self-skips
# without the env gate.  Both arms run pooled — the PR-10 generation-keyed
# span identity removed the tracer-disables-pooling interlock.
trace-overhead:
	SENTINEL_TRACE_OVERHEAD=1 $(GO) test -run 'TestTraceOverheadSmoke' -v .

# Full benchmark run (root harness + eventlog + transport + obs layers),
# archived machine-readably at the repo root.  BENCH_pr9.json, when
# present, is embedded so the report carries its own before/after
# comparison of the PR-10 traced-while-pooled hot path (plus the new
# BenchmarkSustainedThroughputTraced arm, which has no PR-9 row).
BENCH_PKGS := . ./internal/eventlog ./internal/network ./internal/wire ./internal/obs

bench:
	$(GO) build -o $(BENCHJSON) ./cmd/benchjson
	$(GO) test -bench . -benchmem -benchtime=200ms -count=3 -run '^$$' $(BENCH_PKGS) \
		| tee /tmp/bench_pr10.txt
	$(BENCHJSON) -out BENCH_pr10.json \
		$$(test -f BENCH_pr9.json && echo -baseline BENCH_pr9.json) \
		< /tmp/bench_pr10.txt

# Smoke pass doubling as the perf budget: every benchmark must run to
# completion, no benchmark's allocs/op may grow more than 5% over the
# archived BENCH_pr10.json baseline, the sustained-throughput gate must
# clear 1M events/sec — including the new traced arm, so the floor holds
# with a 1%-sampled tracer attached — the multi-tenant dispatch gate must
# clear 10k dispatches/sec on every BenchmarkManyDefinitions cell (the
# 10k-def cells would fail this before interned dispatch), and every
# benchmark reporting a pool-hit-rate must stay ≥0.95: the pool keeps
# absorbing the hot path with a tracer attached (sync.Pool misses are
# GC-timing-dependent, hence the headroom below the typical 1.0).
# 100 iterations, not 1, so one-time warmup allocations (pool fills,
# lazy maps, buffer growth) amortize out of the per-op average instead
# of reading as phantom regressions — at 20x the residue still inflated
# small benchmarks by a whole alloc/op.  BenchmarkHorizon is the
# exception: one iteration is a 73k-event ladder, so it runs once, and
# its growth-x (64k-event ÷ 1k-event ns/event, a ratio within one run
# that no machine speed moves) must stay ≤ 1.5 — per-event cost may not
# grow with history.
bench-smoke:
	$(GO) build -o $(BENCHJSON) ./cmd/benchjson
	$(GO) test -bench . -skip '^BenchmarkHorizon$$' -benchmem -benchtime=100x -run '^$$' $(BENCH_PKGS) > /tmp/bench_smoke.txt
	$(GO) test -bench '^BenchmarkHorizon$$' -benchmem -benchtime=1x -run '^$$' . >> /tmp/bench_smoke.txt
	$(BENCHJSON) -out /tmp/bench_smoke.json < /tmp/bench_smoke.txt
	$(BENCHJSON) -compare -max-alloc-regress 5 -min-metric events/sec=1000000 \
		-min-metric dispatch/sec=10000 -min-metric pool-hit-rate=0.95 -max-metric growth-x=1.5 \
		BENCH_pr10.json /tmp/bench_smoke.json > /dev/null

# Delta table between the archived PR-9 and PR-10 benchmark runs.
bench-diff:
	$(GO) build -o $(BENCHJSON) ./cmd/benchjson
	$(BENCHJSON) -compare BENCH_pr9.json BENCH_pr10.json

# The PR-6 scale deliverable as a CI gate: a 512-site end-to-end run must
# complete (and stay fast — the timeout is the assertion; before the dense
# roster refactor this configuration did not finish in minutes).
scale-smoke:
	$(GO) build -o bin/distsim ./cmd/distsim
	timeout 60 bin/distsim -sites 512 -events 2000 > /dev/null
