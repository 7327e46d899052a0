#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it. Run from the checkout root:
#
#   bash perfbench/run.sh --workload serve-single --seed 1 --seconds 30 --trace 0
#
# The build cache, the compiler's scratch files and the binary live in
# .bench_build/ under the checkout, so nothing is written outside it.
# -trimpath keeps the checkout's path out of the binary, so checkouts at
# different paths build the same program.
# Without the repository's sources next to this directory the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
go -C "$here" build -trimpath -o "$out/perfbench" .
exec "$out/perfbench" "$@"
