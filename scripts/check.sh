#!/bin/sh
# Full pre-merge gate, the one definition `make check` runs: gofmt, vet,
# build, race-detector test sweep, fuzz passes, hot-path budget guards
# and the CLI smokes.
set -eux

cd "$(dirname "$0")/.."

# Formatting gate: gofmt must list no tracked Go file (git ls-files
# keeps the untracked .bench_build/ module cache out).
unformatted=$(gofmt -l $(git ls-files '*.go'))
test -z "$unformatted" || { echo "gofmt needed on: $unformatted" >&2; exit 1; }
go vet ./...
# The benchmark is its own module, so the root vet and build never
# compile it; vet compiles it against the current API and runs nothing.
(cd benchmark && go vet ./...)
go build ./...
go test -race ./...
# Fault-injection paths again under the race detector with full (non
# -short) sweeps.
go test -race -count=1 ./internal/netem/faults/ ./internal/integration/
# The parallel sweep paths (worker pool, per-job contexts, registry
# merge) once more under the race detector.
go test -race -count=1 ./internal/exp/ ./internal/sweep/
# A short fuzz pass over every parser of external input: the Mahimahi
# trace reader, the FaultPlan JSON decoder and its mutation operator,
# the TopoSpec JSON decoder, the event-stream decoder feeding every
# offline reader, the -slo parser and the lab spec file.
go test -run=NONE -fuzz=FuzzParseMahimahi -fuzztime=10s ./internal/trace/
go test -run=NONE -fuzz=FuzzParsePlan -fuzztime=10s ./internal/netem/faults/
go test -run=NONE -fuzz=FuzzPlanMutate -fuzztime=10s ./internal/netem/faults/
go test -run=NONE -fuzz=FuzzParseTopo -fuzztime=10s ./internal/exp/
go test -run=NONE -fuzz=FuzzReadEach -fuzztime=10s ./internal/analyze/
go test -run=NONE -fuzz=FuzzParseSLOs -fuzztime=10s ./internal/analyze/
go test -run=NONE -fuzz=FuzzSpecFile -fuzztime=10s ./internal/lab/
TELEMETRY_BENCH_GUARD=1 go test ./internal/telemetry/ -run TestNopTracerBudget -count=1 -v
# The analyzer and detector feeds: 0 allocs/event and < 500 ns/event
# (the standing mix, the recorded lab mix and the detector fold alone),
# and the detector at 0 allocs across run ends and firing detectors.
ANALYZE_BENCH_GUARD=1 go test ./internal/analyze/ -run 'TestFeedBudget|TestDetectorSteadyStateAllocs' -count=1 -v
# Event-engine hot path: 0 allocs/event + 250 ns/event budget on each
# of the engine's three paths (a self-rescheduling callback, delay-line
# delivery with an RTO-style deadline re-set, and the pacing deadline's
# set-fire-set cycle), 0 allocs in a warm single-bottleneck run and in
# a warm multi-hop run, and the heap bounded by the network's shape
# rather than by the packets in flight. Timings come from the
# repository benchmark (bash benchmark/run.sh).
CORE_BENCH_GUARD=1 go test ./internal/sim/ -run TestEngineBudget -count=1 -v
go test ./internal/netem/ -run 'TestNetemSteadyStateAllocs|TestTopoSteadyStateAllocs|TestEngineHeapBound' -count=1 -v
# Flight-recorder hot path: the always-on ring append must stay 0
# allocs and <= 50 ns/event.
FLIGHT_BENCH_GUARD=1 go test ./internal/telemetry/ -run TestFlightEmitBudget -count=1 -v
# Time-series collector hot path: the per-event downsampling feed must
# stay 0 allocs in steady state and <= 50 ns/event.
TIMESERIES_BENCH_GUARD=1 go test ./internal/telemetry/ -run TestTimeSeriesBudget -count=1 -v
# Traced sweeps: a reused trace Buffer's Emit/ReplayTo/Reset cycle
# allocates nothing once warm, because its pages come back from the
# pool.
go test ./internal/telemetry/ -run TestBufferSteadyStateAllocs -count=1 -v
# Agent-inference hot path: per-flow PPO.Act baseline vs the batched
# evaluation path (one actor GEMM per cohort + seeded noise) at batch
# 1/16/256, recorded into BENCH_nn.json with the >=4x inferences/sec
# floor at batch 256 and the zero-alloc invariant armed.
NN_BENCH=1 NN_BENCH_GUARD=1 go test ./internal/rl/ -run TestBenchNN -count=1 -v
# Multi-hop hot path: hop traversals/sec and allocs/packet over a
# 3-hop chain, with the <1 alloc/packet bound and the 100K packets/sec
# floor armed.
TOPO_BENCH=1 TOPO_BENCH_GUARD=1 go test ./internal/netem/ -run TestBenchTopo -count=1 -v
# Trace→analytics smoke: record a short two-flow run with -trace-out,
# validate the stream against the event schema, pipe it through
# `libra-trace analyze -json`, and assert the report parses and covers
# every flow, each named from its flow span, with completed control
# cycles.
tmp=$(mktemp -d)
go run ./cmd/libra-sim -cca c-libra,c-libra -capacity 24 -dur 5s -seed 7 -trace-out "$tmp/events.jsonl" >/dev/null
go run ./cmd/libra-trace -validate "$tmp/events.jsonl"
go run ./cmd/libra-trace analyze -json "$tmp/events.jsonl" | go run ./scripts/analyzecheck -flows 2
rm -rf "$tmp"
# Training smoke: a two-episode libra-train run records its learning
# curve through the operator rig's -trace-out, and the stream must pass
# the schema check.
tmp=$(mktemp -d)
go run ./cmd/libra-train -episodes 2 -eplen 1s -out "$tmp/models" -trace-out "$tmp/train.jsonl"
go run ./cmd/libra-trace -validate "$tmp/train.jsonl"
rm -rf "$tmp"
# Robustness-lab smoke (tiny budgets, 2 CCAs): adversarial search, a
# replay of the discovered spec with a forensic flight dump, and a
# deterministic tournament leaderboard. Then measure the lab's
# scenarios/sec with the throughput floor armed.
tmp=$(mktemp -d)
go run ./cmd/libra-lab search -cca cubic -budget 16 -dur 3s -seed 7 -o "$tmp/worst.json" -flight-out "$tmp/dumps"
go run ./cmd/libra-lab replay -spec "$tmp/worst.json"
go run ./cmd/libra-lab tournament -cca cubic,bbr -budget 14 -dur 3s -seed 7
rm -rf "$tmp"
LAB_BENCH=1 LAB_BENCH_GUARD=1 go test ./internal/lab/ -run TestBenchLab -count=1 -v
