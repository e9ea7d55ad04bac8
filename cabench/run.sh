#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments, e.g.
#   bash cabench/run.sh --workload mix-inproc --seed 1 --seconds 10 --trace 0
# Run it from the root of the checkout. The build cache, the binary and the
# benchmark's scratch files (WALs, span dumps) stay under .bench_build/.
set -euo pipefail
root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build/cabench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$src" && go build -o "$out/cabench" .)
exec "$out/cabench" "$@"
