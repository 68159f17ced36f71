#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, with the benchmark's own flags:
#
#   bash perfbench/run.sh --workload exact --seed 1 --seconds 20 --trace 0
#
# The build goes to $CARGO_TARGET_DIR (default .bench_build), together with
# the Go build cache, so nothing is written outside the checkout and no
# module is fetched.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
mkdir -p "$GOTMPDIR"
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
