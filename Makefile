GO ?= go

.PHONY: all build test vet fmt-check race bench joinbench bench-sim bench-serve bench-serve-smoke bench-check serve-smoke perfbench-smoke obs-guard obs-export-smoke fuzz-smoke profile trace-e1 verify

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Every tracked Go file must be gofmt-clean.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi

# livenet is goroutine-per-node and the window/eval index structures are
# shared per node runtime; the serve layer multiplexes concurrent
# sessions and wire clients over one cluster; prove them race-free on
# every verify.
race:
	$(GO) test -race ./internal/livenet/... ./internal/core/... ./internal/serve/...

bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# Regenerate the headline indexed-vs-naive join metrics.
joinbench:
	$(GO) run ./cmd/snbench -joinjson BENCH_join.json

# Regenerate the simulator fast-path metrics (spatial index, typed event
# queue, batched links): substrate micro-benchmarks plus BENCH_sim.json.
bench-sim:
	$(GO) test -run '^$$' -bench 'Finalize|Events' -benchmem ./internal/nsim/
	$(GO) test -run '^$$' -bench 'E13' -benchmem .
	$(GO) run ./cmd/snbench -simjson BENCH_sim.json

# Regenerate the query-serving metrics (E16): qps through a
# serve.Session cold / from the result cache / under injection churn,
# plus the serve.query_latency quantiles.
bench-serve:
	$(GO) run ./cmd/snbench -servejson BENCH_serve.json

# Gate the regenerated simulator and serving metrics against the
# committed baselines: events/queries must match exactly, allocs/event
# within ±10%, throughput and qps within their timing-noise floors,
# serve p99 within the bucket-jump headroom. After an intentional perf
# change, refresh the baselines:
#   cp BENCH_sim.json BENCH_baseline.json
#   cp BENCH_serve.json BENCH_serve_baseline.json
bench-check: bench-sim bench-serve
	$(GO) run ./cmd/benchcheck -baseline BENCH_baseline.json -candidate BENCH_sim.json \
		-serve-baseline BENCH_serve_baseline.json -serve-candidate BENCH_serve.json

# Seconds-sized E16 variant: every serving-bench phase — cold, hot,
# concurrent readers, churn, churn-batched — at CI scale, asserting the
# structural properties (zero fallbacks, real coalescing, stale serves)
# rather than wall-clock rates. The cache-miss benchmark runs once per
# binding pattern so it keeps compiling and running.
bench-serve-smoke:
	$(GO) test -run 'TestServeBenchSmoke' -count=1 -v ./internal/experiments/servebench/
	$(GO) test -run '^$$' -bench 'BenchmarkSessionMiss' -benchtime=1x -benchmem ./internal/serve/

# End-to-end smoke of the serving stack: snlogd's exact wire surface —
# open, query, cache hit, inject, delete, explain, subscribe, stats —
# over a real TCP connection.
serve-smoke:
	$(GO) test -run 'TestServeSmoke' -count=1 -v ./internal/serve/

# perfbench is its own Go module (it imports internal/nsim and
# internal/core), so the root `go test ./...` never builds it; vet it
# and run its smoke tests here.
perfbench-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The disabled-observability overhead guards: the E1 m=18 hot loop must
# stay at the PR 2 allocation baseline when Observe was never called,
# when metrics are on but provenance is off, and with the telemetry
# export layer linked in but no admin endpoint configured.
obs-guard:
	$(GO) test -run 'TestObsDisabledOverheadE1|TestProvDisabledOverheadE1|TestAdminDisabledOverheadE1' -v ./internal/experiments/

# End-to-end smoke of the live-telemetry surface: a serving session with
# the admin server on an ephemeral port, scraped over real HTTP —
# /healthz answers and /metrics parses as Prometheus text carrying the
# serve counter families and latency buckets.
obs-export-smoke:
	$(GO) test -run 'TestObsExportSmoke' -count=1 -v ./internal/obs/export/

# Short coverage-guided fuzz passes: the Datalog front-end (Parse must
# never panic, accepted programs round-trip) and the serve wire codec
# (newline-delimited JSON requests/responses, error codes and facts
# round-trip; no input wedges the decoder). The 5s budgets are smoke
# tests; run with a longer -fuzztime to actually hunt.
fuzz-smoke:
	$(GO) test ./internal/datalog/parser -run '^$$' -fuzz FuzzParse -fuzztime 5s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzWire -fuzztime 5s

# CPU + heap profiles of the two headline hot loops (the E1 join
# pipeline and the E13 batched-link simulator). Inspect with
# `go tool pprof profiles/<name>.cpu.pprof`.
profile:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench 'BenchmarkE1JoinApproaches' -benchtime 3x \
		-cpuprofile profiles/e1.cpu.pprof -memprofile profiles/e1.mem.pprof -o profiles/e1.test .
	$(GO) test -run '^$$' -bench 'BenchmarkE13Batching' -benchtime 3x \
		-cpuprofile profiles/e13.cpu.pprof -memprofile profiles/e13.mem.pprof -o profiles/e13.test .
	@echo "profiles written to profiles/ (go tool pprof profiles/e1.cpu.pprof)"

# Export an observed-E1 event trace as JSONL plus the counter snapshot,
# cross-checking trace aggregates against the registry.
trace-e1:
	$(GO) run ./cmd/snbench -trace trace_e1.jsonl

verify: build test vet fmt-check race bench-serve-smoke serve-smoke perfbench-smoke obs-guard obs-export-smoke fuzz-smoke bench-check
