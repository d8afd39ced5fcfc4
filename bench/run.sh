#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it.
#
#   bench/run.sh [seed]
#       One pass: the untraced run of all four workloads, then the traced
#       one. Writes bench/out/<commit>-<seed>.json (the runs, with nproc,
#       GOMAXPROCS, Go version and commit, so that numbers from different
#       hosts are never diffed by accident) and
#       bench/out/<commit>-<seed>.spans.jsonl. Diff two passes with
#       bench/run.sh -compare old.json new.json.
#
#   bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       One run under the contract of BENCHMARK.json, which names this
#       script as its command: any argument list that starts with a flag
#       goes to the program as it is.
#
# Everything the build leaves behind goes to .bench_build/ at the root of
# the checkout, the Go build cache and temporary files included.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C "$here" -o "$build/lrgp-bench" .

if [[ "${1:-}" == -* ]]; then
	exec "$build/lrgp-bench" "$@"
fi

seed="${1:-1}"
commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
mkdir -p "$here/out"
exec "$build/lrgp-bench" -seed "$seed" -commit "$commit" \
	-out "$here/out/$commit-$seed.json" -spans "$here/out/$commit-$seed.spans.jsonl"
