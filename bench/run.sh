#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload rack-absorb --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind (binary, Go build cache, the
# go command's own counters, CPU profiles) stays under .bench_build/ in the
# checkout, which .gitignore names.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache"
export XDG_CONFIG_HOME="$build/config"
export PPROF_TMPDIR="$build"
export GOTOOLCHAIN=local
# A checkout that is not a git repository cannot be stamped with its commit.
go build -o "$build/bench" ./bench 2>/dev/null ||
	go build -buildvcs=false -o "$build/bench" ./bench
exec "$build/bench" "$@"
