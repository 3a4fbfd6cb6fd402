GO ?= go
FUZZTIME ?= 10s
BENCHTIME ?= 1x

.PHONY: build fmt vet vet-concurrency test race lzwtcvet dict-oracle poison fuzz telemetry-overhead trace-overhead batch-bench kernel-bench text-bench bench-json bench-gate bench-module cover lzwtcd-smoke loadgen-smoke api-count verify

build:
	$(GO) build ./...

# Formatting gate: fail, listing the files, when any Go file in the
# tree is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The race path covers the library packages, the client included (its
# retry loop keeps concurrent state); cmd/ and examples/ are thin
# front ends over them.
race:
	$(GO) test -race ./internal/... ./client/...

# Repo-specific static analysis (bitwidth / droppederror / panicpolicy /
# configbeforeuse / allocbound / goctx / lockhygiene / metricname /
# deadexport / staleignore). Non-zero exit on any finding.
lzwtcvet:
	$(GO) run ./cmd/lzwtcvet ./...

# Focused pass over the two stock analyzers the lzwtcvet concurrency
# checks complement: copylocks (mutexes passed by value anywhere, not
# just in LockPaths) and lostcancel (path-sensitive cancel-func leaks
# that goctx's any-mention heuristic deliberately leaves to vet).
vet-concurrency:
	$(GO) vet -copylocks -lostcancel ./...

# Differential dictionary oracle: under this build tag every dict keeps
# the historical map-based matcher as a shadow and cross-checks every
# findChild, so the whole core test suite doubles as an equivalence
# proof for the flat child index.
dict-oracle:
	$(GO) test -tags=lzwtc_dictoracle ./internal/core ./internal/parallel

# Recycled-memory poison: under this build tag Release fills the plane
# words it hands back with value bits on don't-cares and zeroes the
# headers, and the slab pool poisons every slab it hands out, so a use
# after release, or a reader that takes fresh memory to be zero, fails
# the service, planes, async-job, differential and conformance suites.
poison:
	$(GO) test -tags=lzwtc_poison . ./internal/server ./internal/wire ./internal/bitvec ./internal/parallel ./internal/jobs ./internal/slab

# Bounded fuzz smoke: each target gets FUZZTIME of coverage-guided
# input on top of its checked-in seed corpus.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzBitio -fuzztime=$(FUZZTIME) ./internal/bitio
	$(GO) test -run='^$$' -fuzz=FuzzCubeText -fuzztime=$(FUZZTIME) ./internal/bitvec
	$(GO) test -run='^$$' -fuzz=FuzzRoundTrip -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzUnpackCodes -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzFindChildEquivalence -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzWireDecode -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzWireRoundTrip -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzPlanesDecode -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzPlanesRoundTrip -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzContainerDecode -fuzztime=$(FUZZTIME) .
	$(GO) test -run='^$$' -fuzz=FuzzDictBlobDecode -fuzztime=$(FUZZTIME) ./internal/dictstore
	$(GO) test -run='^$$' -fuzz=FuzzDictStoreRoundTrip -fuzztime=$(FUZZTIME) ./internal/dictstore

# Overhead smoke: the disabled-telemetry and metrics-enabled compression
# benchmarks must run clean. Raise BENCHTIME (e.g. 5s) for real numbers
# when comparing against a baseline.
telemetry-overhead:
	$(GO) test -run='^$$' -bench='BenchmarkCompressTelemetry' -benchtime=$(BENCHTIME) ./internal/core

# Trace-overhead gate: the disabled-tracing ctx path must stay within
# 3% of plain Compress and allocate identically (median of paired
# in-process timings; the TOLERANCE_PCT env var overrides the bar).
trace-overhead:
	sh scripts/check_trace_overhead.sh

# Batch pool smoke: the parallel engine's throughput benchmarks must run
# clean at every worker count. Raise BENCHTIME for real scaling numbers
# on a multicore machine (patterns/s at 1, 4 and NumCPU workers).
batch-bench:
	$(GO) test -run='^$$' -bench='BenchmarkBatchCompress' -benchtime=$(BENCHTIME) ./internal/parallel

# Kernel smoke: the bit-sliced findChildMasked microbenchmarks
# (Gosper-favored, chain-favored, all-X, TieWidest shapes), the exact
# probe-table lookup they are measured against, the decoder on both
# string-fetch paths (one-word packed column, >64-bit and unbounded
# parent walk), and the twelve Table-3 profiles through Compress
# (BenchmarkCompressPaperMix, without and with a registry recorder)
# must run clean. Regression gating rides the grid gate below — the
# chain-heavy and paper-default grid cases cover the same shapes.
kernel-bench:
	$(GO) test -run='^$$' -bench='BenchmarkFindChild(Masked|Exact)|BenchmarkDecompress$$' -benchtime=$(BENCHTIME) ./internal/core
	$(GO) test -run='^$$' -bench='BenchmarkCompressPaperMix' -benchtime=$(BENCHTIME) .

# Stream-codec smoke: the word-parallel cube-text parse and render, the
# aligned serialize/deserialize copier, and the wire code packers must
# run clean. Raise BENCHTIME for real ns/op and MB/s figures.
text-bench:
	$(GO) test -run='^$$' -bench='BenchmarkCubeText|BenchmarkAligned' -benchtime=$(BENCHTIME) ./internal/bitvec
	$(GO) test -run='^$$' -bench='BenchmarkPackCodes|BenchmarkUnpackCodes' -benchtime=$(BENCHTIME) ./internal/wire

# Coverage gate: total statement coverage must stay at or above the
# floor in scripts/check_coverage.sh (raise it as coverage grows).
cover:
	sh scripts/check_coverage.sh

# Service smoke: start lzwtcd on an ephemeral port, round-trip a
# conformance case through `lzwtc remote`, and require a clean graceful
# drain on SIGTERM.
lzwtcd-smoke:
	sh scripts/smoke_lzwtcd.sh

# Load smoke: 200 concurrent async clients against an undersized
# per-tenant quota. Every operation must succeed byte-identically (the
# 429s are absorbed by Retry-After backoff) and at least one throttle
# must have fired, then the server must drain cleanly.
loadgen-smoke:
	sh scripts/smoke_loadgen.sh

# Benchmark trajectory: run the single-stream perf grid (compress and
# decompress ns/char, MB/s, allocs/op across C_C x X-density) and write
# the committed trajectory point.
bench-json:
	$(GO) run ./cmd/benchgen -bench -benchtime=1s -out BENCH_14.json

# Regression gate: re-run the grid and fail if any case's compress or
# decompress ns/char regresses more than 10% against the committed
# baseline.
bench-gate:
	$(GO) run ./cmd/benchgen -bench -benchtime=1s -check BENCH_14.json -tolerance=0.10

# The end-to-end benchmark (cmd/lzwtcbench) is its own Go module, so
# the root build and test never compile it: vet and test it here, so a
# root API change that breaks the benchmark fails the gate.
bench-module:
	cd cmd/lzwtcbench && $(GO) vet ./... && $(GO) test ./...

# Size report (never fails on the figures): the exported-API count and
# the non-test Go line count, defined in scripts/api_count.go. Changes
# report both before and after.
api-count:
	sh scripts/api_count.sh

verify: build fmt vet vet-concurrency test race lzwtcvet dict-oracle poison fuzz telemetry-overhead trace-overhead batch-bench kernel-bench text-bench bench-module cover lzwtcd-smoke loadgen-smoke api-count
