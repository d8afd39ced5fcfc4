#!/usr/bin/env bash
# bench-scaling.sh — assert the parallel engine actually scales.
#
# Runs the metro-small scaling benchmark at workers=1 and workers=8 and
# fails if the workers=8 speedup falls below MIN_SPEEDUP (default 1.5x),
# so the flat speedup curve BENCH_core.json once recorded can never
# silently return. Parallel speedup needs real cores:
# on hosts with fewer than MIN_CPUS (default 4) the script skips loudly
# instead of measuring scheduler noise. Run via `make bench-scaling`.
set -euo pipefail

MIN_SPEEDUP="${MIN_SPEEDUP:-1.5}"
MIN_CPUS="${MIN_CPUS:-4}"
BENCH="${BENCH:-EngineStepMetroSmall}"

ncpu="$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc)"
if [ "${ncpu}" -lt "${MIN_CPUS}" ]; then
    echo "bench-scaling: SKIP — ${ncpu} CPU(s) online (< ${MIN_CPUS}); parallel speedup is not measurable here"
    exit 0
fi

# A fixed iteration count gives each sub-benchmark exactly one run (no
# time-based ramp), so the settle-to-steady-state prologue executes once.
echo "bench-scaling: ${BENCH} at workers=1 vs workers=8 on ${ncpu} CPUs"
out="$(go test -run='^$' -bench="${BENCH}\$/workers=(1|8)\$" -benchtime=500x ./internal/core/)"
echo "${out}"

# Benchmark names carry a -GOMAXPROCS suffix when procs != 1.
speedup="$(awk -v bench="${BENCH}" '
    $1 ~ bench "/workers=1(-[0-9]+)?$" { base = $3 }
    $1 ~ bench "/workers=8(-[0-9]+)?$" { par = $3 }
    END {
        if (base == "" || par == "" || par + 0 == 0) { print "unparsed"; exit }
        printf "%.2f", base / par
    }' <<<"${out}")"

if [ "${speedup}" = "unparsed" ]; then
    echo "bench-scaling: could not parse workers=1 and workers=8 ns/op from the bench output above" >&2
    exit 1
fi
if awk -v s="${speedup}" -v m="${MIN_SPEEDUP}" 'BEGIN { exit !(s + 0 >= m + 0) }'; then
    echo "bench-scaling: OK — workers=8 runs ${speedup}x faster than workers=1 (threshold ${MIN_SPEEDUP}x)"
else
    echo "bench-scaling: FAIL — workers=8 runs only ${speedup}x faster than workers=1 (threshold ${MIN_SPEEDUP}x)" >&2
    exit 1
fi
