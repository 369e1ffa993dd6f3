# Verification targets for the repo. `make check` is what CI should run.

GO ?= go
GOFMT ?= gofmt

.PHONY: check fmt vet build test race unused bench bench-smoke fuzz-short loc

check: fmt vet build test race unused bench-smoke

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
	$(GO) test -race ./...

# Lists every exported identifier under internal/ that no non-test file
# mentions (internal/experiments and cmd/bench do not count as callers) and
# fails unless DESIGN.md justifies it; `make test` runs the same check.
unused:
	$(GO) test -count=1 -v ./internal/unused/

# The benchmark is a Go module of its own (benchmark/go.mod), so the root
# ./... does not descend into it; this builds it against the current
# internal/ APIs and runs its unit tests and one-workload smoke run, then
# builds and runs one iteration of the CSV-reader, out-of-core engine
# (GroupByKeySpill, ReduceByKeySpill), FD-detection (local, disk
# exchange and spill: DetectFD, DetectFDDisk, DetectFDSpill; TCP exchange with
# two spawned workers: DetectFDNet), DC-detection through OCJoin (DetectDC)
# and through the same-key block kernel (DetectDCSameKey), session-stream,
# FD-clean, hypergraph-repair and equivalence-class-repair benchmarks. The
# detection, session-stream and clean benchmarks run with -benchmem, so the
# log shows B/op and allocs/op beside what they report.
bench-smoke:
	cd benchmark && $(GO) test ./...
	$(GO) test -run xxx -bench ReadCSV -benchtime 1x ./internal/model/
	$(GO) test -run xxx -bench 'GroupByKeySpill|ReduceByKeySpill' -benchtime 1x ./internal/engine/
	$(GO) test -run xxx -bench 'DetectFD|DetectFDDisk|DetectFDSpill|DetectDC' -benchtime 1x -benchmem ./internal/core/
	$(GO) test -run xxx -bench DetectFDNet -benchtime 1x -benchmem ./internal/netexec/
	$(GO) test -run xxx -bench SessionStream -benchtime 1x -benchmem ./internal/cleanse/
	$(GO) test -run xxx -bench CleanFD -benchtime 1x -benchmem ./internal/cleanse/
	$(GO) test -run xxx -bench HypergraphRepair -benchtime 1x ./internal/repair/
	$(GO) test -run xxx -bench EquivalenceRepair -benchtime 1x ./internal/repair/

# 30 seconds of coverage-guided fuzzing per fuzzer (the wire codec and its
# read-into-run path, the run walker the exchanges share, the record
# decoders, the schema and CSV parsers, the service's create and ingest
# bodies, the DC, FD and CFD parsers, the rule-spec list compiler, the FD
# block kernel and the spill run reader), seeded from testdata/fuzz corpora.
# A finding is checked in as a new corpus file.
fuzz-short:
	$(GO) test -run xxx -fuzz FuzzReadFrame -fuzztime 30s ./internal/netexec/
	$(GO) test -run xxx -fuzz FuzzFrameRoundTrip -fuzztime 30s ./internal/netexec/
	$(GO) test -run xxx -fuzz FuzzReadRun -fuzztime 30s ./internal/engine/
	$(GO) test -run xxx -fuzz FuzzDecode -fuzztime 30s ./internal/model/
	$(GO) test -run xxx -fuzz FuzzReadCSV -fuzztime 30s ./internal/model/
	$(GO) test -run xxx -fuzz FuzzCreateSession -fuzztime 30s ./internal/serve/
	$(GO) test -run xxx -fuzz FuzzIngestBody -fuzztime 30s ./internal/serve/
	$(GO) test -run xxx -fuzz FuzzParseDC -fuzztime 30s ./internal/rules/
	$(GO) test -run xxx -fuzz FuzzParseFD -fuzztime 30s ./internal/rules/
	$(GO) test -run xxx -fuzz FuzzParseCFD -fuzztime 30s ./internal/rules/
	$(GO) test -run xxx -fuzz FuzzCompileSpecs -fuzztime 30s ./internal/rules/
	$(GO) test -run xxx -fuzz FuzzFDBlockKernel -fuzztime 30s ./internal/rules/
	$(GO) test -run xxx -fuzz FuzzSpillRead -fuzztime 30s ./internal/spill/

bench:
	$(GO) test -run xxx -bench 'Table2Datasets|Fig9' -benchtime 1x -benchmem .
	$(GO) test -run xxx -bench ReadCSV -benchtime 5x -benchmem ./internal/model/
	$(GO) test -run xxx -bench . -benchtime 5x -benchmem ./internal/engine/
	$(GO) test -run xxx -bench 'DetectScan|ViolationDedup|DetectFD|DetectFDDisk|DetectFDSpill|DetectDC' -benchtime 5x -benchmem ./internal/core/
	$(GO) test -run xxx -bench DetectFDNet -benchtime 5x -benchmem ./internal/netexec/
	$(GO) test -run xxx -bench SessionStream -benchtime 256x -benchmem ./internal/cleanse/
	$(GO) test -run xxx -bench CleanFD -benchtime 5x -benchmem ./internal/cleanse/
	$(GO) test -run xxx -bench HypergraphRepair -benchtime 5x -benchmem ./internal/repair/
	$(GO) test -run xxx -bench EquivalenceRepair -benchtime 5x -benchmem ./internal/repair/

# The non-test Go line count under internal/ and cmd/, the size ROADMAP.md
# and CHANGES.md track.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l
