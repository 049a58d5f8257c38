GO ?= go

.PHONY: all build vet-benchmark test-benchmark fmt fmt-fix vet lint lint-audit test test-cpu test-v3 fuzz-smoke race bench bench-pair loc clones dist-parity smoke-resume smoke-spillover smoke-cliqued smoke-dist examples check ci

all: build

build:
	$(GO) build ./...

# The benchmark harness is a module of its own that compiles against
# internal/, so `go build ./...` never sees it and a refactor can break
# it silently.  vet, not build: `go build -C benchmark ./...` would
# overwrite the committed benchmark/benchmark binary.
vet-benchmark:
	$(GO) vet -C benchmark ./...

# The harness is also a second, frozen client of internal/core and
# internal/parallel: its traced runs drive the seeders, core.Step and
# Pool.RunLevel themselves and keep a charge/release ledger of their own.
# Its tests run all six workloads, traced and untraced, on tiny inputs
# (about 6 s), so an engine change that still compiles but breaks the
# harness's use of it fails here and not in the next benchmark run.
test-benchmark:
	$(GO) test -C benchmark ./...

# Fails if any file needs reformatting (CI gate); use fmt-fix to apply.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

fmt-fix:
	gofmt -w .

vet:
	$(GO) vet ./...

# The repo's own invariant suite (internal/analysis via cmd/repolint),
# seven analyzers: budgetpair (memory-budget pairing), cleanuperr
# (cleanup-error propagation), ctxloop (cancellation observation),
# frozengraph (row lifecycle), goroleak (goroutine joins), hotalloc
# (hot-path allocation), sendctx (no bare channel op in a ctxloop).
# Tests are analyzed too; exits nonzero on any finding.  One driver: the
# standalone loader TestRepoIsClean (inside `go test ./...`) and every
# analyzer's testkit corpus also run on (DESIGN.md §10).
lint:
	$(GO) run ./cmd/repolint ./...

# Inventory of every //nolint suppression with its justification; fails
# when any suppression lacks a reason or names an unknown analyzer
# (a silent hole in the suite — stale or a typo).
lint-audit:
	$(GO) run ./cmd/repolint -audit ./...

test:
	$(GO) test ./...

# The on-disk join hands blocks between goroutines (decode-ahead and the
# join), and both pools hand each level to goroutines started for
# that level; a hand-off that only works when they run in parallel
# deadlocks with one P.  The packages that run them, at one, two and four.
test-cpu:
	$(GO) test -cpu 1,2,4 ./internal/parallel ./internal/ooc ./internal/hybrid ./internal/dist

# The kernel's packages and the binaries built for x86-64-v3 (AVX2, BMI2,
# FMA, MOVBE), the microarchitecture level the join's word operations
# would be tuned for (ROADMAP item 9): the code must build and pass there
# as it does at the default level.  The benchmark builds at the default.
# internal/expt runs too: its Figure 5-7 goldens hold the simulated
# seconds, which must be the same bytes at v3 (Go 1.24 compiles x*y+z to
# MULSD+ADDSD there, not an FMA; a compiler that fused it would show here).
test-v3:
	GOAMD64=v3 $(GO) build ./cmd/cliquer ./cmd/cliqued ./cmd/graphgen
	GOAMD64=v3 $(GO) test ./internal/core ./internal/ooc ./internal/graph ./internal/bitset ./internal/expt

# Ten seconds of coverage-guided fuzzing each of the eight fuzz targets:
# the shard reader — the one parser that reads bytes a crash, a full disk
# or another process may have left behind: an error or a valid level,
# the same whole, dribbled or a frame at a time, any single bit flipped
# an error, and the join's N(p0) check on what reads — the checkpoint
# manifest loader, whose shard list a resume joins (distinct .ooc base
# names, and a write and reload changes nothing); the in-memory level
# block, the same words the shard frames hold; the graph reader, which
# cliqued feeds straight from a request body; the expression-matrix
# reader, finite values only; the dist frame decoder, which reads what a
# worker or the coordinator sent; the fused bitset kernels against
# their bit-at-a-time references; and cliqued's enumerate-query parser,
# whose cache key must depend on lo, hi, small and format alone.
fuzz-smoke:
	$(GO) test -fuzz=FuzzShardDecode -fuzztime=10s ./internal/ooc
	$(GO) test -fuzz=FuzzLoadManifest -fuzztime=10s ./internal/ooc
	$(GO) test -fuzz=FuzzLevelBlock -fuzztime=10s ./internal/core
	$(GO) test -fuzz=FuzzReadGraph -fuzztime=10s .
	$(GO) test -fuzz=FuzzReadExpressionTSV -fuzztime=10s .
	$(GO) test -fuzz=FuzzReadMsg -fuzztime=10s ./internal/dist
	$(GO) test -fuzz=FuzzFusedKernels -fuzztime=10s ./internal/bitset
	$(GO) test -fuzz=FuzzCliqueQuery -fuzztime=10s ./internal/service

# The race detector over every package, not a hand-picked list: about
# 90 s on a 2-vCPU box.  The packages that make it worth running are the
# worker pool and its sequencer, the on-disk pool and the lease
# scheduler, the service's admission queue, and the root parity suites
# (pooled scratch bitsets inside the CSR/WAH row readers are shared
# across worker goroutines).
race:
	$(GO) test -race ./...

# Short benchmark sweep: the streaming-vs-barrier comparison, the
# k-clique seeder (sequential and four shard workers), the representation
# trade-off, the spilled level loop at the hybrid-c75 shape, and the
# paper-table regenerators, kept brief for CI.
bench:
	$(GO) test -run xxx -bench 'EnumerateStreaming|EnumerateBarrier|SeedFromK|Representations|SpilledC75' -benchtime 5x .

# Paired parent/change runs of one benchmark workload, as a performance
# claim needs them (scripts/bench_pair.sh: alternating order, a fresh
# seed per pair, medians, quartiles, win count, verdict):
#   make bench-pair WORKLOAD=hybrid-c75 PAIRS=10 BASE=HEAD~1
PAIRS ?= 10
BASE ?= HEAD~1
bench-pair:
	sh scripts/bench_pair.sh $(WORKLOAD) $(PAIRS) $(BASE)

# Resume-after-kill smoke test: checkpoint, kill by timeout, resume,
# reconcile clique counts against an uninterrupted run.
smoke-resume:
	sh scripts/smoke_resume.sh

# Adaptive-spillover smoke test: a budget sized to trip the governor
# mid-run must spill, continue out-of-core, and print the
# byte-identical clique stream of the unconstrained in-core run.
smoke-spillover:
	sh scripts/smoke_spillover.sh

# Distributed stream-parity acceptance matrix: coordinator + N exec/pipe
# workers for N in {1,2,4} must emit the
# sequential backend's stream byte-for-byte — plus the kill-recovery
# test (a test transport kills a worker as the run's second lease goes out,
# mid-level; the shard is re-leased) and the cross-engine Cost check
# (every engine counts the sequential engine's Cost, level for level).
dist-parity:
	$(GO) test -run 'TestDistStreamParityMatrix|TestDistKillWorkerRecovery|TestLevelCostAgreesAcrossEngines' -count=1 -v ./internal/dist

# Distributed-enumeration smoke test: coordinator with 3 exec workers on
# the Table-1 graph, SIGKILL one worker mid-level from outside, require
# the stream byte-identical to the sequential reference and the run
# report to show the re-leased shard.
smoke-dist:
	sh scripts/smoke_dist.sh

# Query-service smoke test: boot cliqued, load a graph over HTTP, pin
# stream/cliquer byte parity and the cached repeat, kill a client
# mid-stream, and require the governor back at baseline.
smoke-cliqued:
	sh scripts/smoke_cliqued.sh

# Keep the migrated examples and the documented API snippets honest:
# vet the example programs and run every doctest.
examples:
	$(GO) vet ./examples/...
	$(GO) test -run Example ./...

# Code size per package group (non-test, non-blank, non-comment Go
# lines, benchmark/ excluded): run at two commits to state what a
# simplification removed.
loc:
	@sh scripts/loc.sh

# Is there a twin left?  Verbatim 6-line windows shared by two sites,
# clustered per pair of files (scripts/clones.sh); informational.  The
# two mains' signal/timeout preamble is the one cluster that stays.
clones:
	@sh scripts/clones.sh

check: fmt vet lint test

# The same gates in the same order as .github/workflows/ci.yml.
ci: fmt vet lint lint-audit build vet-benchmark test test-cpu test-v3 test-benchmark fuzz-smoke race examples smoke-resume smoke-spillover smoke-cliqued dist-parity smoke-dist bench loc clones
