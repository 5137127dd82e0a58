#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments:
#
#   bash perfbench/run.sh --workload ls_vertigo_incast --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary, spans, CPU profiles and result records all
# go under .bench_build/perfbench at the checkout root, so nothing is read
# from or written to the user's own Go caches.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build" "$@"
