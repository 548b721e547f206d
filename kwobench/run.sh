#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash kwobench/run.sh --workload warehouse-optimize --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache) lands in
# .bench_build/ at the repository root, so the run touches nothing
# outside the checkout and needs no network.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"

# Keep every file the go command writes inside the checkout, ignore any
# user or workspace configuration, and never reach for the network.
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export GOENV=off
export GOWORK=off
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$here" && go build -o "$out/kwobench" .)
cd "$root"
exec "$out/kwobench" "$@"
