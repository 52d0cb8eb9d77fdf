#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload hotpath --seed 1 --seconds 15 --trace 0
#
# Everything the build writes — Go's build and module caches, the binary —
# goes under .bench_build/ at the root of the checkout, so a run reads and
# writes nothing outside it. The benchmark is its own module
# (benchmark/go.mod) that replaces `plumber` with the checkout around it;
# without that checkout the build fails and this script exits non-zero.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its own state
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd "$here" && go build -o "$build/plumber-benchmark" .)
cd "$root"
exec "$build/plumber-benchmark" "$@"
