# Development targets. CI (.github/workflows/ci.yml) runs the prerequisites
# of `make ci`, one workflow step per target, in this order.
#
# Every check has one entry point and runs once. Budget, on the 2-vCPU
# development host: `make ci` ≤ 8 min, `make race` ≤ 6 min. The wall time
# measured for each target (warm build cache, nothing cached by go test)
# stands next to it and sums to 5 min 43 s (the six checks before
# `unexercised` 5 min 19 s), within both budgets; no target is a subset of
# another, and each says why. The host's speed varies from one
# measurement to the next: `race` took 4 min 9 s, 5 min 13 s and 6 min 57 s
# at three earlier ones.

GO ?= go

.PHONY: all vet lint test race soak examples ci lines unexercised pairs

all: ci

# 2 s. Type-checks and builds every package and every test (so there is no
# separate build step) and is the only run of go vet's own analyzers. It also
# fails when gofmt -l names a .go file of a package `go list ./...` returns:
# go list skips testdata, whose analyzer sources keep their `// want`
# alignment as data.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$($(GO) list -f '{{.Dir}}/*.go' ./...)); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

# 2 s (37 packages). The only run of the
# static-analysis suite (cmd/askcheck), three analyzers: sim-clock
# determinism, the metric inventory, error taxonomy — over every package,
# the analyzers' own included. PISA access legality is not among them:
# internal/pisa panics on it, and `test` trips every access. Nor is shard
# safety: `race` on the sharded goldens holds the lanes. See DESIGN.md
# "Static verification".
lint:
	$(GO) run ./cmd/askcheck ./...

# 31 s. The whole suite once, in shuffled order (which
# also catches inter-test state dependencies). The only step that runs the
# experiment registry: internal/experiments' TestQuickGolden runs every experiment
# at quick scale once (≈ 18 s) and requires `askbench -run all -quick -json` to equal
# internal/experiments/testdata/quick.json byte for byte; the shape tests
# judge the committed tables, the scenario corpus round trip (ask's
# TestScenarioCorpus*, scenario's
# TestCorpusDeterminism/TestTraceRoundTripCorpus) is part of it. After an
# intended table change regenerate the file with the command the failure
# prints and review the diff.
test:
	$(GO) test -shuffle=on ./...

# 3 min 15 s. The same suite under the race detector, in source order — what
# `test` cannot see. The registry run is skipped by build tag here (21
# single-goroutine simulations: minutes of detector time that race nothing;
# the experiment worker pool keeps its raced test), -short is not used. It is
# the only guard of the sharded scheduler's lanes, which only bench/'s
# fattree-sharded workload still builds outside tests: ask's fat-tree sharded
# goldens (shard_golden_test.go) and internal/sim's shard_test.go fail here
# when a lane touches another lane's state outside a mailbox or the control
# rendezvous (DESIGN.md "Parallel DES"). The timeout is per package and equals
# go test's default; it is written down so the budget is a reviewed number.
# The slowest packages under the detector are internal/chaos and ask: 89 s
# and 71 s inside this target on the 2-vCPU host (internal/hostd 55 s,
# internal/experiments 10 s, internal/wire 9 s).
race:
	$(GO) test -race -timeout 10m ./...

# 1 min 14 s. Bounded chaos soak (README "Failure model"): 200 fixed seeds per
# kind of randomized fault schedules, each run end-to-end against the analytic
# ground truth with a continuous per-link corruption baseline — the rack
# (switch outages, black-holes, loss/corruption bursts, host stalls; 17 s), the
# fat-tree (spine/leaf outages over the multi-tenant fabric, EXPERIMENTS.md
# "Fabric soak"; 35 s), and multi-rack (TOR outages under the forwarding core;
# 32 s). The tests pin the first seeds of
# each kind (internal/chaos/testdata/soak.golden) and the seeds that have
# found bugs; this is the wider seed range, through the asksim command line.
# A failure prints a shrunken schedule and a reproducer line carrying the
# topology flags, and stops the target.
soak:
	$(GO) run ./cmd/asksim -soak -soak.seed=1 -soak.runs=200 -soak.corrupt=1e-3
	$(GO) run ./cmd/asksim -soak -topology fattree -soak.seed=1 -soak.runs=200 -soak.corrupt=1e-3
	$(GO) run ./cmd/asksim -soak -topology multirack -soak.seed=1 -soak.runs=200 -soak.corrupt=1e-3

# 15 s. The library surface, run: vet only compiles
# the programs under examples/. Every one of them, whatever is added there, is
# run, and exits non-zero on an error — which for those that run an ask.Job
# (quickstart, streaming with one per window, groupby, multirack) includes a
# wrong aggregate: the *core.MismatchError from Run.
examples:
	for e in examples/*/; do $(GO) run ./$$e > /dev/null || exit 1; done

ci: vet lint test race soak examples unexercised

# Not a check: the north star's "less code" number (ROADMAP "Quality of
# design") — non-blank, non-comment lines of every non-test, non-testdata .go
# file outside bench/. `make lines DIR=internal/analysis` counts one directory.
DIR ?= .
lines:
	@find $(DIR) -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './bench/*' -print0 | xargs -0 cat | grep -v '^\s*$$' | grep -v '^\s*//' | wc -l

# A ratchet: lists every function that the experiment registry, the chaos
# soaks and bench/'s tests never run (0.0% statement coverage), as
# candidates for deletion — a function only its own unit tests reach is
# code no result depends on — prints their count, and fails when the count
# is above the ceiling written here, once, as a shell variable (so no make
# command line can override it). Lower the ceiling when a change lowers the
# count; never raise it. Every function it still lists is named, with its
# reader, in DESIGN.md "What `make unexercised` still lists".
# internal/analysis is skipped: the analyzers run in lint, not here. The
# coverage profile goes to a temporary directory outside the checkout and is
# removed afterwards. It reruns the tests of three packages, which `test`
# runs too, for a different check: the count under coverage, which no other
# target takes. 24 s.
unexercised:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; ceiling=56; \
	$(GO) test -count=1 -coverpkg=./ask/...,./internal/... -coverprofile="$$dir/cover.out" ./internal/experiments ./internal/chaos ./bench && \
	$(GO) tool cover -func="$$dir/cover.out" | grep -v '/internal/analysis/' | awk '$$NF == "0.0%"' > "$$dir/zero" && \
	cat "$$dir/zero" && n=$$(wc -l < "$$dir/zero") && echo "unexercised: $$n functions (ceiling $$ceiling)" && \
	if [ "$$n" -gt "$$ceiling" ]; then echo "unexercised: $$n is above the ceiling $$ceiling"; exit 1; fi

# Not a check: N alternating pairs of SECS-second bench runs of revisions A
# and B on workload W at seed SEED (scripts/pairs.sh builds each side once,
# from a git worktree in a temporary directory): every run's
# host_tuples_per_s, cpu_s_per_mtuple, allocs_per_tuple, alloc_bytes_per_tuple,
# setup_s and peak_rss_mb (the six host metrics of BENCHMARK.json) and steal
# jiffies, each side's median and quartiles of the six metrics, the pairs B
# won, the median ratio B/A and A's quartile distance. A run takes about 35 s
# at the benchmark's 28 s length.
A ?= HEAD
B ?= HEAD
W ?= rack-timed
SEED ?= 1
N ?= 10
SECS ?= 28
pairs:
	bash scripts/pairs.sh $(A) $(B) $(W) $(SEED) $(N) $(SECS)
