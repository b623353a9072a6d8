#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# executes it. Run from the repository root:
#
#   bash perfbench/run.sh --workload xlat-heavy --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh compare <results-dir-A> <results-dir-B>
#
# Everything the build and the runs leave behind (Go build cache, the
# binary, result and trace files, campaign directories) goes under
# .bench_build/perfbench in the working directory.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$src" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
