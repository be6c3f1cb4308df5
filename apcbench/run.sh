#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
#
#   bash apcbench/run.sh --workload server-lowload --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the Go build cache, the Go tool's own config and telemetry
# files, the binary, and the generated inputs.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export CGO_ENABLED=0

go -C "$root/apcbench" build -o "$build/apcbench" .
cd "$root"
exec "$build/apcbench" "$@"
