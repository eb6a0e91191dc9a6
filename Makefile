GO ?= go

# Benchmark-regression gate configuration (see cmd/benchjson). The committed
# BENCH_N.json with the highest N is the performance baseline; bench-json
# fails when any benchmark's ns/op regresses more than MAX_REGRESS against
# it. When a deliberate perf change lands, commit a new BENCH_N.json and
# bump BENCH_BASELINE here and in .github/workflows/ci.yml.
BENCH_BASELINE ?= BENCH_3.json
MAX_REGRESS ?= 0.25

# Fuzzing knobs: CI fans these out as a matrix over every fuzz target and
# caches the corpus between runs (see the fuzz job in ci.yml).
FUZZPKG ?= ./internal/hdc
FUZZ ?= FuzzVectorRoundTrip
FUZZTIME ?= 30s

.PHONY: build test race bench bench-json bench-smoke lint fuzz fmt fmt-check vet vet-smore demo serve e2e ablate-smoke drift-smoke loadgen-smoke clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# bench-smoke vets and tests the nested bench/ module (see bench/README.md),
# which the root `go test ./...` skips: its smoke test runs every workload
# with one-second phases (about 30 s). Build output stays under the
# gitignored .bench_build/.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-json reruns the benchmark suite, snapshots it to BENCH_new.json in
# the BENCH_N.json schema, and enforces the regression gate against
# $(BENCH_BASELINE): >MAX_REGRESS ns/op growth or any allocation on a
# zero-alloc baseline benchmark fails. Each benchmark runs BENCH_COUNT
# times and benchjson keeps the fastest, damping scheduler noise on shared
# CI runners. The raw go-test output is preserved in bench_raw.txt (CI
# uploads it as an artifact for triage). Run `go run ./cmd/benchjson -h`
# for the tool's flags.
BENCH_COUNT ?= 3
# bash + pipefail so a go-test failure cannot be masked by benchjson's exit
# status (sh's pipeline status is the last command's only).
bench-json: SHELL := /bin/bash
bench-json:
	set -o pipefail; \
	$(GO) test -bench . -benchmem -run '^$$' -count $(BENCH_COUNT) ./... \
		| tee bench_raw.txt \
		| $(GO) run ./cmd/benchjson -out BENCH_new.json -baseline $(BENCH_BASELINE) -max-regress $(MAX_REGRESS)

# lint mirrors the CI lint job. The analyzer versions are pinned once, by
# the `tool` directives in tools/go.mod; `go install tool` builds exactly
# those versions into ./bin. The tidy fills in tools/go.sum on first run
# (the sum file is not committed; see tools/go.mod).
lint:
	cd tools && $(GO) mod tidy
	cd tools && GOBIN=$(CURDIR)/bin $(GO) install tool
	./bin/staticcheck ./...
	./bin/govulncheck ./...

# vet-smore runs the repo's own analyzer suite (internal/lint):
# lockdiscipline, hotpath, errenvelope, and atomicsnap mechanically enforce
# the concurrency, hot-path, and error-envelope invariants the package docs
# promise. TestRepoSatisfiesInvariants scans every package of ./... with one
# subtest per analyzer (narrow a run with
# `go test -run 'TestRepoSatisfiesInvariants/hotpath' ./internal/lint`); the
# rest are the analyzers' fixture tests. See internal/lint/lintutil for the
# //smorevet:allow suppression syntax.
vet-smore:
	$(GO) test -count=1 ./internal/lint/...

fuzz:
	$(GO) test $(FUZZPKG) -run '^$$' -fuzz '$(FUZZ)$$' -fuzztime $(FUZZTIME)

fmt:
	gofmt -l -w .

# fmt-check fails (listing the offenders) instead of rewriting; CI's lint
# job runs this so unformatted files cannot land.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

demo:
	$(GO) run ./cmd/smore train

# serve trains+saves a small model and boots the HTTP serving surface on it.
# Endpoints: POST /v1/predict, POST /v1/adapt, GET /v1/model, /healthz,
# /metrics (see cmd/smore-serve). Override ADDR/MODEL as needed.
ADDR ?= 127.0.0.1:8080
MODEL ?= /tmp/smore-model.smore
serve:
	$(GO) run ./cmd/smore train -save $(MODEL) > /dev/null
	$(GO) run ./cmd/smore-serve -load $(MODEL) -addr $(ADDR)

# e2e boots smore-serve on a freshly trained bundle and round-trips every
# endpoint with curl, including a byte-identical /v1/model export check.
e2e:
	./scripts/e2e_serve.sh

# ablate-smoke runs a fast adaptation-strategy sweep (2 strategies × 2 seeds
# on a small config) as a CI sanity check of the ablation runner, writing
# ablate.json + ablate.md. In GitHub Actions the markdown table lands on the
# job's step summary. Full grids: `go run ./cmd/smore ablate -h`.
ABLATE_STRATEGIES ?= margin+constant+bundle,entropy-cal+constant+bundle
ABLATE_SEEDS ?= 42,43
ablate-smoke:
	$(GO) run ./cmd/smore ablate -dim 1024 -levels 16 -ngram 3 -sensors 3 \
		-classes 4 -window 48 -per-class 24 -retrain 2 \
		-strategies '$(ABLATE_STRATEGIES)' -seeds '$(ABLATE_SEEDS)' \
		-out-json ablate.json -out-md ablate.md
	@if [ -n "$$GITHUB_STEP_SUMMARY" ]; then cat ablate.md >> "$$GITHUB_STEP_SUMMARY"; fi

# drift-smoke replays the two-shift continual-adaptation scenario through
# the real CLI: phase A adapts to the standard target, phase B streams a
# second shifted domain, and -require-drift makes the run exit non-zero
# unless the spawn policy opened a second target AND final phase-B accuracy
# beat the frozen single-target baseline. The 0.04 threshold pairs with the
# pipeline's DefaultDriftShift (see internal/pipeline/drift_eval.go).
drift-smoke:
	$(GO) run ./cmd/smore stream -dim 1024 -sensors 3 -classes 4 -window 48 \
		-per-class 24 -levels 16 -seed 7 -batch 8 -adapt-epochs 10 \
		-drift-policy spawn:0.04 -require-drift

# loadgen-smoke is the crash-safe-serving proof point: smore-loadgen drives a
# mixed predict/stream/drift workload against a checkpointing server (zero
# 5xx, bounded p99, exact queue reconciliation), then against an overloaded
# server with injected fold failures (429/503 all carry Retry-After, the
# circuit breaker trips). Reports: loadgen_clean.json / loadgen_overload.json.
loadgen-smoke:
	./scripts/loadgen_smoke.sh

clean:
	$(GO) clean -testcache
	rm -f BENCH_new.json bench_raw.txt ablate.json ablate.md loadgen_clean.json loadgen_overload.json
