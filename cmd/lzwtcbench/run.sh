#!/usr/bin/env bash
# Builds lzwtcbench from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash cmd/lzwtcbench/run.sh --workload paper_sync --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# working directory, so nothing is written outside the checkout. The
# benchmark module replaces lzwtc with ../.., so the build fails (and
# this script exits non-zero) when the rest of the repository is absent.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-mod=readonly

(cd "$root/cmd/lzwtcbench" && go build -o "$out/lzwtcbench" .) >&2
exec "$out/lzwtcbench" "$@"
