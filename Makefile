# Verification targets for the repo. `make check` is what CI should run.

GO ?= go
GOFMT ?= gofmt

.PHONY: check fmt vet build test race bench bench-smoke test-spill test-trace test-serve test-vector test-net test-prob test-plan fuzz-short

check: fmt vet build test race bench-smoke

# gofmt -l prints nonconforming files; any output fails the target.
fmt:
	@out="$$($(GOFMT) -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# -shuffle=on randomizes test (and subtest) execution order, flushing out
# inter-test state dependence; failures print the seed to reproduce.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./internal/engine/... ./internal/repair/...

# The benchmark is a Go module of its own (benchmark/go.mod), so the root
# ./... does not descend into it; this builds it against the current
# internal/ APIs and runs its unit tests and one-workload smoke run.
bench-smoke:
	cd benchmark && $(GO) test ./...

# Out-of-core subsystem: the spill package plus every test exercising the
# budgeted (spill-to-disk) regime of the engine, core e2e and the CLI flag.
test-spill:
	$(GO) test ./internal/spill/...
	$(GO) test -run 'External|Spill|OutOfCore|Codec|MemBudget|ParseByteSize' \
		./internal/engine/ ./internal/core/ ./internal/model/ ./cmd/bigdansing/
	$(GO) test -race -run 'External|Spill' ./internal/engine/
	$(GO) test -race ./internal/spill/...

# Observability subsystem: the trace package (span tree, Chrome exporter,
# validator, explain renderer), the engine Observer seam, and the traced
# end-to-end CLI runs (-explain golden + -trace JSON validated in-process).
test-trace:
	$(GO) test ./internal/trace/...
	$(GO) test -run 'Observer|Snapshot' ./internal/engine/
	$(GO) test -run 'Report|WithObserver' ./internal/cleanse/
	$(GO) test -run 'Explain|Trace' ./cmd/bigdansing/
	$(GO) test -race ./internal/trace/...
	$(GO) test -race -run 'Observer' ./internal/engine/

# Vectorized execution subsystem: the column-batch model, the engine batch
# operators and row accounting, the vectorized Scope/Detect executor with
# its tuple-path equivalence suite, the storage batch reader, and the
# -batch-size CLI flag — all under the race detector, since batch kernels
# share immutable column vectors across tasks.
test-vector:
	$(GO) test -race -run 'Vec|Batch|Rechunk|RowsOf' \
		./internal/model/ ./internal/engine/ ./internal/core/ \
		./internal/rules/ ./internal/storage/ ./internal/cleanse/ ./cmd/bigdansing/

# Streaming service subsystem: the session lifecycle in cleanse, the HTTP
# session host, and the race check over the queue/worker/drain paths.
test-serve:
	$(GO) test -run 'Session|Open' ./internal/cleanse/
	$(GO) test ./internal/serve/
	$(GO) test -race ./internal/serve/
	$(GO) test -race -run 'Session' ./internal/cleanse/

# Networked multi-process backend: wire codec units, the consistent-hash
# ring, cross-backend equivalence (dataflow ops + FD/DC end-to-end cleanse,
# plain and under the race detector), recovery/panic hygiene, the chaos
# suite (50 seeded fault schedules), and the net paths of serve and the CLI.
test-net:
	$(GO) test ./internal/netexec/...
	$(GO) test -race ./internal/netexec/...
	$(GO) test -run 'Net' ./internal/serve/ ./cmd/bigdansing/

# Probabilistic repair subsystem: factor-graph compilation, seeded Gibbs
# inference and its determinism/degradation contracts (plain and under the
# race detector — per-component seeding must survive worker scheduling),
# plus the prob paths of the cleanse loop, the service and the CLI.
test-prob:
	$(GO) test ./internal/probrepair/
	$(GO) test -race ./internal/probrepair/
	$(GO) test -run 'Prob' ./internal/cleanse/ ./internal/serve/ ./cmd/bigdansing/

# Cost-based planner subsystem: the Planner API with its cost model, stats
# sampling and observer-feedback loop, the static-identity property test in
# rules, the broadcast execution variant, and the planner paths of the CLI
# and the service — plain and under the race detector, since broadcast
# grouping and the feedback recorder run inside parallel stages.
test-plan:
	$(GO) test -run 'Plan|Cost|Feedback|Broadcast|Optimize|Sample|OpsMarkers|Explain|Stats' \
		./internal/core/ ./internal/rules/ ./internal/engine/ ./cmd/bigdansing/ ./internal/serve/
	$(GO) test -race -run 'Plan|Cost|Feedback|Broadcast' ./internal/core/ ./internal/serve/

# 30 seconds of coverage-guided fuzzing per wire-codec fuzzer, seeded from
# testdata/fuzz corpora. A finding is checked in as a new corpus file.
fuzz-short:
	$(GO) test -run xxx -fuzz FuzzReadFrame -fuzztime 30s ./internal/netexec/
	$(GO) test -run xxx -fuzz FuzzFrameRoundTrip -fuzztime 30s ./internal/netexec/
	$(GO) test -run xxx -fuzz FuzzSplitRecords -fuzztime 30s ./internal/netexec/

bench:
	$(GO) test -run xxx -bench 'Table2Datasets|Fig9' -benchtime 1x -benchmem .
	$(GO) test -run xxx -bench . -benchtime 5x -benchmem ./internal/engine/
