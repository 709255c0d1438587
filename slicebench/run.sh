#!/usr/bin/env bash
# Builds the slicing benchmark from the checkout it is run in and runs it:
#
#   bash slicebench/run.sh --workload warm_read --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ in that directory (Go build cache included);
# the benchmark module resolves the program under test from the parent
# directory, so a checkout without it fails to build and exits non-zero.
set -euo pipefail

root="$(pwd)"
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOPROXY=off
if ! (cd "$bench" && go build -o "$out/slicebench" .); then
	echo "slicebench: build failed (is this the repository root?)" >&2
	exit 2
fi
exec "$out/slicebench" "$@"
