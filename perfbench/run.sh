#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload smart-p2-u32-1m --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary, the traced runs' spans) stays under $CARGO_TARGET_DIR, by
# default .bench_build, inside the checkout.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --spans "$build/spans" "$@"
