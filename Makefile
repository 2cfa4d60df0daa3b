# beesim build/verify loop. Pure stdlib Go — no external tools needed.

GO ?= go

.PHONY: all build test vet lint lint-fix race bench verify bench-baseline bench-diff smoke chaos soak perfbench

all: verify

build:
	$(GO) build ./...
	$(GO) build -o /dev/null ./cmd/hivereport

vet:
	$(GO) vet ./...

# beelint: the in-tree go/types linter for determinism and unit safety
# (wall-clock reads, unseeded randomness, map-iteration-order leaks,
# mixed-unit float casts, goroutines in DES handlers, naive Joule
# accumulation, captured-state races in parallel task closures,
# non-exhaustive enum switches, dropped write-path errors) — including
# the module-wide interprocedural pass. The gate ratchets against the
# checked-in baseline: findings beyond .beelint-baseline.json fail,
# paid-off entries warn. The second run smoke-tests the SARIF emitter
# CI annotations consume. See docs/LINTING.md.
lint:
	$(GO) run ./cmd/beelint -baseline .beelint-baseline.json ./...
	$(GO) run ./cmd/beelint -format sarif ./... > /dev/null

# Apply the mechanical rewrites (sorted map iteration, compensated
# summation, seeded-rng substitution) to any fixable findings.
lint-fix:
	$(GO) run ./cmd/beelint -fix ./...

test:
	$(GO) test ./...

# Every goroutine-spawning package plus its direct drivers runs under
# the race detector on every verify: the protocol server (hivenet), the
# DES engine, the mutex-guarded ledger/obs/store layers, the worker
# pool itself (parallel), and the fan-out call sites in
# swarm/experiments/deployment/optimizer/dsp/routine/queendetect — the
# same closures the sharedcapture analyzer checks statically.
race:
	$(GO) test -race ./internal/hivenet/... ./internal/des/... \
		./internal/ledger/... ./internal/deployment/... \
		./internal/obs/... ./internal/store/... \
		./internal/swarm/... ./internal/experiments/... \
		./internal/parallel/... ./internal/optimizer/... \
		./internal/dsp/... ./internal/faults/... ./internal/slo/... \
		./internal/routine/... ./internal/queendetect/... \
		./internal/loadgen/...

# End-to-end smoke of the -workers plumbing: a multi-worker scenario
# run must complete and pass its own conservation audit.
smoke:
	$(GO) run ./cmd/apiarysim scenario -workers 4 -ledger $$(mktemp -t beesim-smoke-XXXXXX.jsonl)

# Chaos gate: the fault-injection soak (loss rates 0-100%, no panics,
# no stuck DES, monotone delivered-count) plus a fuzz smoke over the
# plan parser and retry policy. go test runs one fuzz target per
# invocation, so each gets its own 10 s budget.
chaos:
	$(GO) test -run 'Chaos' ./internal/faults/ .
	$(GO) test -run xxx -fuzz 'FuzzFaultPlanJSON' -fuzztime 10s ./internal/faults/
	$(GO) test -run xxx -fuzz 'FuzzRetryPolicy' -fuzztime 10s ./internal/faults/
	$(GO) test -run xxx -fuzz 'FuzzSLOSpecJSON' -fuzztime 10s ./internal/slo/
	$(GO) test -run xxx -fuzz 'FuzzTraceparent' -fuzztime 10s ./internal/hivenet/
	$(GO) test -run xxx -fuzz 'FuzzLintDirective' -fuzztime 10s ./internal/lint/
	$(GO) test -run xxx -fuzz 'FuzzRFFT' -fuzztime 10s ./internal/dsp/
	$(GO) test -run xxx -fuzz 'FuzzLoadSpecJSON' -fuzztime 10s ./internal/loadgen/
	$(GO) test -run xxx -fuzz 'FuzzAdmissionFrame' -fuzztime 10s ./internal/hivenet/

# The full fleet soak: the checked-in fleet_small campaign replayed
# twice against live server shards with leak accounting, behind a build
# tag so the tier-1 gate stays fast (verify runs the short-mode stress
# in `race` instead).
soak:
	$(GO) test -tags soak -race -run 'TestSoak' -v ./internal/loadgen/

# The end-to-end benchmark harness is its own module (perfbench/go.mod
# replaces beesim with this checkout), so ./... above never reaches it.
# Vetting and testing it here makes removing an API the harness calls
# fail locally instead of in the benchmark run.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The tier-1 gate: what CI and pre-commit runs.
verify: build vet lint test perfbench race chaos smoke bench-diff

# Benchmarks double as the reproduction report (paper figures as custom
# metrics) and as the observability-overhead check (BenchmarkDESLoop*).
bench:
	$(GO) test -bench=. -benchmem .

obs-bench:
	$(GO) test -run xxx -bench 'BenchmarkDESLoop' -benchtime 3000x -count 5 .

# Machine-readable baseline of the observability-overhead benchmarks
# (DES loop with obs/ledger on and off, ledger append/audit/export).
# Compare a branch against a committed BENCH_obs.json to spot probe
# regressions.
bench-baseline:
	$(GO) test -json -run xxx -bench 'BenchmarkDESLoop' -benchtime 3000x -count 3 . \
		> BENCH_obs.json
	$(GO) test -json -run xxx -bench 'BenchmarkLedger' -benchmem ./internal/ledger/ \
		>> BENCH_obs.json
	$(GO) test -json -run xxx -benchmem -count 3 \
		-bench 'BenchmarkSpanStart|BenchmarkHistogramObserveExemplar' \
		./internal/obs/ >> BENCH_obs.json
	$(GO) test -json -run xxx -benchmem -count 3 \
		-bench 'BenchmarkSweep(Serial|Parallel)$$|BenchmarkMelSpectrogram(Cold|Cached|Plan)$$|BenchmarkRFFT$$|BenchmarkOptimizeParallel|BenchmarkCampaignParallel' \
		-benchtime 10x . > BENCH_parallel.json
	$(GO) test -json -run xxx -bench 'BenchmarkLintModule' -benchtime 1x -count 3 \
		./internal/lint/ > BENCH_lint.json
	$(GO) test -json -run xxx -benchmem -count 3 \
		-bench 'BenchmarkLoadgenSchedule|BenchmarkSimulateProbe' \
		./internal/loadgen/ > BENCH_load.json
	$(GO) test -json -run xxx -benchmem -count 3 \
		-bench 'BenchmarkServerHandleUpload' -benchtime 200x \
		./internal/hivenet/ >> BENCH_load.json

# Perf regression gate: re-run the baseline benchmark sets in smoke
# mode (short -benchtime keeps verify fast, -count 3 lets benchdiff
# take the min and shed scheduler noise) and diff against the
# committed baselines with cmd/benchdiff. The smoke ns/op threshold is
# generous (-ns-frac 0.75) because smoke runs are noisy; a real
# regression is usually 2x+. allocs/op stays tight — it is
# deterministic. See docs/PERFORMANCE.md for the methodology.
bench-diff:
	@tmp=$$(mktemp -t beesim-bench-XXXXXX.json); \
	status=1; \
	{ $(GO) test -json -run xxx -bench 'BenchmarkDESLoop' -benchtime 300x -count 3 . > $$tmp && \
	  $(GO) test -json -run xxx -bench 'BenchmarkLedger' -benchmem -count 3 ./internal/ledger/ >> $$tmp && \
	  $(GO) test -json -run xxx -benchmem -count 3 \
		-bench 'BenchmarkSpanStart|BenchmarkHistogramObserveExemplar' \
		./internal/obs/ >> $$tmp && \
	  $(GO) test -json -run xxx -benchmem -count 3 \
		-bench 'BenchmarkSweep(Serial|Parallel)$$|BenchmarkMelSpectrogram(Cold|Cached|Plan)$$|BenchmarkRFFT$$|BenchmarkOptimizeParallel|BenchmarkCampaignParallel' \
		-benchtime 10x . >> $$tmp && \
	  $(GO) test -json -run xxx -bench 'BenchmarkLintModule' -benchtime 1x -count 3 \
		./internal/lint/ >> $$tmp && \
	  $(GO) test -json -run xxx -benchmem -count 3 \
		-bench 'BenchmarkLoadgenSchedule|BenchmarkSimulateProbe' \
		-benchtime 100x ./internal/loadgen/ >> $$tmp && \
	  $(GO) test -json -run xxx -benchmem -count 3 \
		-bench 'BenchmarkServerHandleUpload' -benchtime 50x \
		./internal/hivenet/ >> $$tmp && \
	  $(GO) run ./cmd/benchdiff -ns-frac 0.75 \
		-baseline BENCH_obs.json -baseline BENCH_parallel.json -baseline BENCH_lint.json \
		-baseline BENCH_load.json $$tmp; } && status=0; \
	rm -f $$tmp; exit $$status
