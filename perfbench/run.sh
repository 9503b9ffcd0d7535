#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Usage, from the repository root:
#   bash perfbench/run.sh --workload study|serve|repair --seed N --seconds S --trace 0|1
# Everything it builds, generates or caches goes under .bench_build.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off
# The go command keeps telemetry under the user config directory.
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -root "$root" "$@"
