#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# through (see benchmark/README.md). Run it from the repository root:
#
#   bash benchmark/run.sh --workload sweep-flat --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary, pmcd stores and traces all live under
# .bench_build/, so a run writes nothing outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f benchmark/go.mod ]]; then
	echo "benchmark: run from the repository root (go.mod, internal/ and benchmark/ must be present)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= CGO_ENABLED=0
# The commit stamped into the binary goes into results files; where git
# cannot describe the checkout, build without it.
go -C benchmark build -o "$build/pmc-benchmark" . 2>/dev/null ||
	go -C benchmark build -buildvcs=false -o "$build/pmc-benchmark" .
exec "$build/pmc-benchmark" "$@"
