GO ?= go

.PHONY: all build vet test race fuzz bench-guard bench-core bench-nn bench-topo bench-lab analyze lab check clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Telemetry overhead guard: the disabled tracer path must stay under
# 2 ns/op with zero allocations. TestNopTracerBudget measures it with
# testing.Benchmark; the nanosecond assertion only arms when
# TELEMETRY_BENCH_GUARD is set, because it needs this package run in
# isolation (a parallel ./... sweep measures CPU contention instead).
# The analyzer and detector feeds ride along: 0 allocs and < 500
# ns/event on the standing mix, the recorded lab mix and the detector
# fold alone, and the detector at 0 allocs across run ends.
bench-guard:
	TELEMETRY_BENCH_GUARD=1 $(GO) test ./internal/telemetry/ -run TestNopTracerBudget -count=1 -v
	ANALYZE_BENCH_GUARD=1 $(GO) test ./internal/analyze/ -run 'TestFeedBudget|TestDetectorSteadyStateAllocs' -count=1 -v

# Event-engine hot path: asserts 0 allocs/event and the 250 ns/event
# budget on each of the engine's three paths (a self-rescheduling
# callback, delay-line delivery with an RTO-style deadline re-set, and
# the pacing deadline's set-fire-set cycle), 0 allocs in a warm
# single-bottleneck run and in a warm multi-hop run, and a heap bounded
# by the network's shape (flows, links, routes), not by the packets in
# flight. The telemetry guards ride along: the flight-recorder and
# time-series feeds must stay 0 allocs and <= 50 ns/event, and a reused
# trace Buffer's Emit/ReplayTo/Reset cycle 0 allocs. These are
# pass/fail guards; timings come from the repository benchmark (bash
# benchmark/run.sh). Run in isolation for the same reason as
# bench-guard.
bench-core:
	CORE_BENCH_GUARD=1 $(GO) test ./internal/sim/ -run TestEngineBudget -count=1 -v
	$(GO) test ./internal/netem/ -run 'TestNetemSteadyStateAllocs|TestTopoSteadyStateAllocs|TestEngineHeapBound' -count=1 -v
	FLIGHT_BENCH_GUARD=1 $(GO) test ./internal/telemetry/ -run TestFlightEmitBudget -count=1 -v
	TIMESERIES_BENCH_GUARD=1 $(GO) test ./internal/telemetry/ -run TestTimeSeriesBudget -count=1 -v
	$(GO) test ./internal/telemetry/ -run TestBufferSteadyStateAllocs -count=1 -v

# Agent-inference hot path: the per-flow PPO.Act baseline (exact-tanh
# nets, actor+critic+sampling per decision — the pre-batching
# semantics) against the batched evaluation path (one actor GEMM per
# cohort plus seeded noise) at batch 1/16/256, recorded into
# BENCH_nn.json. The guard enforces the >=4x inferences/sec floor at
# batch 256 and the steady-state zero-alloc invariant on the batched
# path. Run in isolation for the same reason as bench-guard.
bench-nn:
	NN_BENCH=1 NN_BENCH_GUARD=1 $(GO) test ./internal/rl/ -run TestBenchNN -count=1 -v

# Multi-hop hot path: measures hop traversals/sec and allocs/packet over
# a 3-hop chain; the guard enforces <1 alloc/packet and a conservative
# 100K packets/sec floor.
bench-topo:
	TOPO_BENCH=1 TOPO_BENCH_GUARD=1 $(GO) test ./internal/netem/ -run TestBenchTopo -count=1 -v

# Adversarial-lab throughput: scenarios/sec over the sweep pool; with
# the guard armed the run fails if throughput drops under the
# conservative floor. Tracked timings come from the repository
# benchmark (lab-traced's lab.evals_per_s). Run in isolation for
# the same reason as bench-guard.
bench-lab:
	LAB_BENCH=1 LAB_BENCH_GUARD=1 $(GO) test ./internal/lab/ -run TestBenchLab -count=1 -v

# Short fuzz pass over the parsers that accept external input (the
# Mahimahi trace reader, the FaultPlan JSON decoder, and the TopoSpec
# JSON decoder) and the lab's plan mutation operator (bounds +
# injector safety).
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzParseMahimahi -fuzztime=10s ./internal/trace/
	$(GO) test -run=NONE -fuzz=FuzzParsePlan -fuzztime=10s ./internal/netem/faults/
	$(GO) test -run=NONE -fuzz=FuzzPlanMutate -fuzztime=10s ./internal/netem/faults/
	$(GO) test -run=NONE -fuzz=FuzzParseTopo -fuzztime=10s ./internal/exp/

# Trace→analytics smoke: record a short two-flow run with -trace-out,
# check the stream against the event schema, pipe it through
# `libra-trace analyze -json`, and assert the report parses and covers
# every flow with completed control cycles.
analyze:
	tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/libra-sim -cca c-libra,c-libra -capacity 24 -dur 5s -seed 7 -trace-out $$tmp/events.jsonl >/dev/null && \
	$(GO) run ./cmd/libra-trace -validate $$tmp/events.jsonl && \
	$(GO) run ./cmd/libra-trace analyze -json $$tmp/events.jsonl | $(GO) run ./scripts/analyzecheck -flows 2 && \
	rm -rf $$tmp

# Robustness-lab smoke: tiny-budget search against one CCA, replay the
# discovered spec (forensic dump attached), then a 2-CCA tournament —
# all deterministic at fixed seeds.
lab:
	tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/libra-lab search -cca cubic -budget 16 -dur 3s -seed 7 -o $$tmp/worst.json -flight-out $$tmp/dumps && \
	$(GO) run ./cmd/libra-lab replay -spec $$tmp/worst.json && \
	$(GO) run ./cmd/libra-lab tournament -cca cubic,bbr -budget 14 -dur 3s -seed 7 && \
	rm -rf $$tmp

# Full pre-merge gate. scripts/check.sh is its one definition (gofmt,
# vet, build, race sweep, fuzz, budget guards, CLI smokes), so make and
# make-less environments run the same gate.
check:
	sh scripts/check.sh

clean:
	$(GO) clean ./...
