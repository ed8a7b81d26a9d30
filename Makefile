# Development targets. CI (.github/workflows/ci.yml) runs the prerequisites
# of `make ci`, one workflow step per target, in this order.

GO ?= go

.PHONY: all vet build test test-shuffle race bench bench-smoke bench-smoke-shards lint lint-json selfcheck soak scenarios experiments-golden examples ci

all: ci

vet:
	$(GO) vet ./...

# Static-analysis suite (cmd/askcheck): PISA access legality, sim-clock
# determinism, lock-across-wait, and metric-name hygiene. See DESIGN.md's
# "Static verification" section.
lint:
	$(GO) run ./cmd/askcheck ./...

# Same diagnostics as `lint`, emitted as NDJSON (one JSON object per line:
# file/line/col/analyzer/message) for CI annotation tooling to stream-parse.
lint-json:
	$(GO) run ./cmd/askcheck -json ./...

# The analysis engine and driver pass their own analyzers: askcheck checks
# askcheck. Guards against the embarrassing failure mode of a lint suite
# that cannot survive its own rules.
selfcheck:
	$(GO) run ./cmd/askcheck ./internal/analysis/... ./cmd/askcheck

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Shuffled test order catches inter-test state dependencies.
test-shuffle:
	$(GO) test -shuffle=on ./...

# The timeout is per package and equals go test's default; it is written down
# so the budget is a reviewed number. The slowest package under the race
# detector is internal/experiments: 426 s inside this target on the 2-vCPU
# development host (TestFig8aShape alone 203 s; the whole target 8 min 24 s).
race:
	$(GO) test -race -timeout 10m ./...

# The paper's tables as root-package benchmarks. Performance claims are
# measured with `go run ./bench` instead (bench/README.md).
bench:
	$(GO) test -bench=. -benchmem -run '^$$'

# One iteration of the headline macro-benchmarks: catches harness rot (a
# benchmark that no longer compiles or errors out) without paying full
# measurement time. CI runs this.
bench-smoke:
	$(GO) test -run='^$$' -bench='BenchmarkFig3$$|BenchmarkTable1$$|BenchmarkMultiRack$$|BenchmarkTenancy$$' -benchtime=1x .

# Parallel-scheduler smoke (DESIGN.md "Parallel DES"): one iteration of the
# shard-sweep benchmarks. (The sharded goldens under the race detector —
# `go test -race -run TestMultiRackSharded ./ask` — are part of `make race`.)
# CI runs this.
bench-smoke-shards:
	$(GO) test -run='^$$' -bench='BenchmarkMultiRackShards|BenchmarkFatTreeShards' -benchtime=1x .

# Bounded chaos soak (README "Failure model"): 12 fixed seeds of randomized
# fault schedules — switch outages, black-holes, loss/corruption bursts,
# host stalls — each run end-to-end against the analytic ground truth with
# a continuous per-link corruption baseline, then a fat-tree smoke pass
# (spine/leaf outages over the multi-tenant fabric, EXPERIMENTS.md "Fabric
# soak") and a multi-rack pass (TOR outages under the forwarding core).
# Deterministic and fast (a few seconds); a failure prints a shrunken
# schedule and a reproducer line carrying the topology flags.
soak:
	$(GO) run ./cmd/asksim -soak -soak.seed=1 -soak.runs=12 -soak.corrupt=1e-3
	$(GO) run ./cmd/asksim -soak -topology fattree -soak.seed=1 -soak.runs=6 -soak.corrupt=1e-3
	$(GO) run ./cmd/asksim -soak -topology fattree -soak.seed=1 -soak.runs=1 -soak.corrupt=1e-3 -soak.shards=4
	$(GO) run ./cmd/asksim -soak -topology multirack -soak.seed=1 -soak.runs=6 -soak.corrupt=1e-3

# Scenario-corpus round trip (README "Workloads & traces"): every committed
# scenario regenerated from its seed (byte-identical), encoded to the v2
# timed trace format, decoded back, and replayed through the full stack on
# the sim clock against a direct run. CI runs this.
scenarios:
	$(GO) test -count=1 -run 'TestCorpusDeterminism|TestTraceRoundTripCorpus' ./internal/workload/scenario
	$(GO) test -count=1 -run 'TestScenarioCorpus' ./ask

# The experiment golden: `askbench -run all -quick -json` is a function of
# the code alone (no wall clock, no process-global state), so its bytes are
# committed and every PR diffs against them. After an intended table change,
# regenerate with `go run ./cmd/askbench -run all -quick -json >
# internal/experiments/testdata/quick.json` and review the diff. CI runs this.
experiments-golden:
	$(GO) run ./cmd/askbench -run all -quick -json | cmp - internal/experiments/testdata/quick.json

# The library surface, run: every example exits non-zero on an error, and
# the three that compute a host-side reference (groupby, streaming,
# multirack) also when their aggregate is wrong. Six programs, a few
# seconds each at most. CI runs this.
examples:
	for e in quickstart wordcount groupby training streaming multirack; do $(GO) run ./examples/$$e > /dev/null || exit 1; done

ci: vet build lint selfcheck test test-shuffle race soak scenarios experiments-golden bench-smoke bench-smoke-shards examples
