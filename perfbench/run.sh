#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Call it from the repository
# root; every argument is passed to the benchmark, for example:
#
#   bash perfbench/run.sh --workload request-topdown --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, scratch directories and results files all
# live under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --root "$root" "$@"
