#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash rmcrtbench/run.sh --workload serve-small --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The Go build and module caches and
# the go command's own config directory live in .bench_build/ under the
# root, so nothing is written outside the checkout and no network is
# used.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$root/rmcrtbench" && go build -o "$build/rmcrtbench" .)
exec "$build/rmcrtbench" "$@"
