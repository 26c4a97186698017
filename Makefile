# Build/test entry points for mcmdist. Plain go commands — no generated
# code, no external tools.

GO ?= go
GOFMT ?= gofmt

.PHONY: build test examples race bench bench-smoke bench-record bench-test vet test-faults soak trace-smoke transport-smoke fuzz-smoke chaos-smoke enginesweep loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Build and run every example; each exits non-zero on a wrong answer.
examples:
	@for d in examples/*/; do echo "$$d"; $(GO) run ./$$d >/dev/null || exit 1; done

# Non-test Go lines outside benchmark/ (and outside .bench_build/, the
# benchmark's build copy): the code size every ROADMAP progress entry quotes.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' -print0 | xargs -0 cat | wc -l

# Vet the module, the faultsoak-tagged soak tests (which plain builds never
# compile) and the benchmark's separate module (./... stops at
# benchmark/go.mod), then fail if any file is not gofmt-clean (CI's lint
# job runs this).
vet:
	$(GO) vet ./...
	$(GO) vet -tags faultsoak ./internal/mpi/ ./internal/mpi/tcpnet/
	cd benchmark && $(GO) vet .
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi

# The simulated MPI runtime is goroutine-per-rank; the race detector
# exercises the rendezvous and the buffer-lending collectives directly.
race:
	$(GO) test -race ./...

# Fault plane, watchdog, and checkpoint/restart tests under the race
# detector: injected crashes/stragglers/RMA failures, deadlock detection,
# goroutine-leak regressions, the recovery fault matrix, the supervised
# multi-process half of the recovery loop (Supervise/WorkLoop over loopback),
# tcpnet's RMA calls unwinding after an abort or a peer's BYE, pooled
# one-shot contexts across a crashed world, and the engine conformance
# suite's fault, recovery and cross-engine/semiring resume cases (every
# engine lives in internal/core).
test-faults:
	$(GO) test -race -count=1 -run 'Fault|Watchdog|Crash|Straggler|RMA|Panic|Leak|Checkpoint|Resume|Recoverable|Guard|Boundary|Supervise|WorkLoop' ./internal/mpi/ ./internal/mpi/tcpnet/ ./internal/core/ ./internal/distjob/ .

# Nightly-style chaos soak: hundreds of worlds cycling injected faults,
# watchdog aborts, and genuine wedges, with a goroutine-leak check at the
# end — on the in-process backend and on loopback TCP worlds cycling
# network fault plans. Behind the faultsoak build tag so regular test runs
# stay fast.
soak:
	$(GO) test -race -tags faultsoak -count=1 -run Soak -timeout 20m ./internal/mpi/ ./internal/mpi/tcpnet/

# Short fuzz pass over everything a peer can put on the wire or on disk:
# the MCMNET1 frame reader and per-frame body decoders (now including
# PING/PONG/OBS), the POST delivery shape, the delta-varint codec, the
# observation-shipping / flight-dump codecs whose decoders face network and
# crash-recovered bytes, the checkpoint decoder, the job-spec decoder a
# worker runs on the rendezvous blob, and the Matrix Market parser behind
# FromMatrixMarketFile. The binary decoders all read through internal/wire's
# Reader, so its count guard is fuzzed from every side. Go allows one -fuzz
# pattern per invocation, so each target gets its own run; FUZZTIME scales
# the pass.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime $(FUZZTIME) ./internal/mpi/tcpnet/
	$(GO) test -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime $(FUZZTIME) ./internal/mpi/tcpnet/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePostDelivery$$' -fuzztime $(FUZZTIME) ./internal/mpi/tcpnet/
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzObsDecode$$' -fuzztime $(FUZZTIME) ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCheckpoint$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzSpecDecode$$' -fuzztime $(FUZZTIME) ./internal/distjob/
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime $(FUZZTIME) ./internal/mtx/

# Cross-process chaos smoke: a supervised 4-process TCP solve whose rank-2
# worker is SIGKILLed mid-solve; the world must restart, a replacement
# worker must take over the rank, and the recovered matching must be
# byte-identical to the in-process oracle. The killed generation must also
# leave a decodable flight-recorder bundle whose cause names the dead
# rank. See docs/FAULTS.md and docs/OBSERVABILITY.md.
chaos-smoke:
	scripts/chaos_smoke.sh

# Allocation benchmarks for the runtime-context arena: SpMV push/pull,
# the Table I primitive chain, an end-to-end solve, a 4-endpoint loopback
# TCP solve, building a DistributedGraph, and the degree initializers alone.
bench:
	$(GO) test -bench Allocs -benchmem -run '^$$' ./internal/spmv/ ./internal/dvec/ .

# One-iteration pass over the Table I benchmarks (the primitive chain and
# the end-to-end solve at t=1 vs t=4), the in-process and 4-endpoint
# loopback solves' allocation benchmarks, the recovery path's (one crash,
# a checkpoint every phase), the degree initializers', the
# sparse-frontier SpMV kernel's, and the push and pull SpMV allocation
# benchmarks, whose folds run through dvec's scatter-reduce receive — the
# CI smoke that keeps the threaded hot path and the per-rank distribution
# compiling and running without paying full bench time — plus one
# adaptive-direction compressed cmd/mcm solve whose per-iteration
# time-series CSV (direction decisions, encoded words) is validated by
# cmd/tracelint, plus one engine-sweep cell, which panics if any engine's
# matching is not maximum (the König certificate).
bench-smoke:
	$(GO) test -bench 'TableI|SolveAllocs|SolveOnAllocs|RecoverableAllocs|MaximalInit' -benchtime=1x -run '^$$' .
	$(GO) test -bench 'MulSparseFrontier|SpMVAllocs|SpMVPullAllocs' -benchtime=1x -run '^$$' ./internal/spmv/
	$(GO) run ./cmd/mcm -rmat g500 -scale 12 -procs 4 -direction auto -compress -timeseries direction-series.csv
	$(GO) run ./cmd/tracelint direction-series.csv
	$(GO) run ./cmd/bench -exp enginesweep -matrix g500 -scale 8 -procs 4

# Every engine on every Table II stand-in and RMAT class at scales 10 and 12
# and p in {4, 16}: the evidence behind docs/ENGINES.md's standings and the
# EXPERIMENTS.md engine table. Minutes of run time, so not part of CI.
enginesweep:
	scripts/enginesweep.sh

# The repo benchmark's own tests, run from its separate module: unit tests
# of its percentile rule, trace fold and failure accounting, plus a scale-10
# smoke pass over every workload that pins the metric and workload names
# BENCHMARK.json declares.
bench-test:
	cd benchmark && $(GO) test .

# Record the repo benchmark's full traced run as BENCH_$(PR).json at the
# repo root (make bench-record PR=<n>), one committed results file per
# change, so the trajectory of every metric stays in the tree. Compare two
# records with bash benchmark/run.sh -compare; a record from another host
# measures that host as much as the code.
PR ?=
bench-record:
	@test -n "$(PR)" || { echo "usage: make bench-record PR=<n>"; exit 1; }
	bash benchmark/run.sh -out BENCH_$(PR).json

# Multi-process transport smoke: one solve spanning four OS processes over
# loopback TCP (mcm coordinating, three mcmrank workers), its matching
# byte-compared against the in-process oracle — raw, with wire compression
# + adaptive direction, with the bfs-ss engine, and once fully traced:
# the coordinator collects every rank's observations and writes ONE merged
# world trace + time-series, both validated by cmd/tracelint, and the trace
# must carry rank 1's hb.rtt heartbeat instant. That traced pass is the
# smoke's only trace artifact. See
# docs/TRANSPORT.md and docs/OBSERVABILITY.md.
transport-smoke:
	scripts/transport_smoke.sh

# End-to-end observability smoke: one traced cmd/mcm solve on the RMAT
# scale-14 workload with the iteration time-series on, then the emitted
# trace_event JSON and CSV validated by cmd/tracelint (a trace that passes
# loads in Perfetto and chrome://tracing). CI uploads trace.json and
# series.csv as artifacts.
trace-smoke:
	$(GO) run ./cmd/mcm -rmat g500 -scale 14 -procs 16 -trace-out trace.json -timeseries series.csv
	$(GO) run ./cmd/tracelint trace.json series.csv
