#!/usr/bin/env bash
# telemetry-smoke.sh — end-to-end scrape of the observability surface.
#
# Builds lrgp-broker (race-instrumented when RACE=1), starts it with
# -telemetry-addr, polls /metrics until the engine and broker counter
# families are present and non-zero, checks /debug/pprof and /snapshot,
# and fails loudly otherwise. A second phase reruns the broker with
# -optimizer dist and asserts the lrgp_dist_* families, then feeds the
# -dist-events flight-recorder log through lrgp-trace. A third phase
# reruns with -autopilot and asserts the lrgp_enact_* families, including
# at least one enacted re-optimization cycle. Run via
# `make telemetry-smoke`; CI runs it with RACE=1.
set -euo pipefail

PORT="${PORT:-9090}"
ADDR="127.0.0.1:${PORT}"
TMP="$(mktemp -d)"
BIN="${TMP}/lrgp-broker"
TRACE_BIN="${TMP}/lrgp-trace"
EVENTS="${TMP}/events.jsonl"
OUT="$(mktemp)"

cleanup() {
    [ -n "${BROKER_PID:-}" ] && kill "${BROKER_PID}" 2>/dev/null || true
    rm -rf "${TMP}" "${OUT}"
}
trap cleanup EXIT

build_flags=()
if [ "${RACE:-0}" = "1" ]; then
    build_flags+=(-race)
fi
echo "telemetry-smoke: building lrgp-broker and lrgp-trace ${build_flags[*]:-}"
go build "${build_flags[@]}" -o "${BIN}" ./cmd/lrgp-broker
go build "${build_flags[@]}" -o "${TRACE_BIN}" ./cmd/lrgp-trace

# A generous publish window keeps the server alive while we poll; the
# script kills the process as soon as the checks pass.
"${BIN}" -telemetry-addr "${ADDR}" -rounds 120 -publish-seconds 30 >"${OUT}" 2>&1 &
BROKER_PID=$!

fetch() { curl -sf --max-time 5 "http://${ADDR}$1"; }

echo "telemetry-smoke: waiting for non-empty engine/broker counters on ${ADDR}"
deadline=$((SECONDS + 60))
while :; do
    if ! kill -0 "${BROKER_PID}" 2>/dev/null; then
        echo "telemetry-smoke: lrgp-broker exited early:" >&2
        cat "${OUT}" >&2
        exit 1
    fi
    if metrics="$(fetch /metrics 2>/dev/null)" \
        && grep -Eq '^lrgp_engine_steps_total [1-9]' <<<"${metrics}" \
        && grep -Eq '^lrgp_broker_published_total [1-9]' <<<"${metrics}"; then
        break
    fi
    if [ "${SECONDS}" -ge "${deadline}" ]; then
        echo "telemetry-smoke: counters never became non-empty; last scrape:" >&2
        echo "${metrics:-<no response>}" >&2
        cat "${OUT}" >&2
        exit 1
    fi
    sleep 0.2
done

for family in \
    'lrgp_engine_stage_seconds_bucket{stage="rate"' \
    'lrgp_engine_stage_seconds_bucket{stage="admission"' \
    'lrgp_engine_stage_seconds_bucket{stage="price"' \
    lrgp_engine_utility \
    lrgp_engine_converged \
    lrgp_engine_dirty_flows \
    lrgp_engine_skipped_constraints \
    lrgp_broker_consumers_admitted; do
    if ! grep -Fq "${family}" <<<"${metrics}"; then
        echo "telemetry-smoke: /metrics missing ${family}" >&2
        exit 1
    fi
done

fetch /debug/pprof/cmdline >/dev/null || { echo "telemetry-smoke: pprof unreachable" >&2; exit 1; }
fetch /debug/vars | grep -q '"lrgp"' || { echo "telemetry-smoke: expvar missing lrgp" >&2; exit 1; }
fetch /snapshot | grep -q '"Utility"' || { echo "telemetry-smoke: snapshot missing Utility" >&2; exit 1; }

echo "telemetry-smoke: colocated OK (engine steps, broker counters, stage histograms, pprof, expvar, snapshot)"
kill "${BROKER_PID}" 2>/dev/null || true
wait "${BROKER_PID}" 2>/dev/null || true
BROKER_PID=

# Phase 2: the distributed optimizer with the flight recorder attached.
# The dist run completes before the publish window, so once the round
# counter is non-zero every lrgp_dist_* family has its final value.
"${BIN}" -telemetry-addr "${ADDR}" -optimizer dist -rounds 60 \
    -publish-seconds 30 -dist-events "${EVENTS}" -dist-stall-timeout 30s \
    >"${OUT}" 2>&1 &
BROKER_PID=$!

echo "telemetry-smoke: waiting for non-empty dist counters on ${ADDR}"
deadline=$((SECONDS + 60))
while :; do
    if ! kill -0 "${BROKER_PID}" 2>/dev/null; then
        echo "telemetry-smoke: dist lrgp-broker exited early:" >&2
        cat "${OUT}" >&2
        exit 1
    fi
    if metrics="$(fetch /metrics 2>/dev/null)" \
        && grep -Eq '^lrgp_dist_rounds_finalized_total [1-9]' <<<"${metrics}"; then
        break
    fi
    if [ "${SECONDS}" -ge "${deadline}" ]; then
        echo "telemetry-smoke: dist counters never became non-empty; last scrape:" >&2
        echo "${metrics:-<no response>}" >&2
        cat "${OUT}" >&2
        exit 1
    fi
    sleep 0.2
done

for family in \
    lrgp_dist_staleness_lag \
    lrgp_dist_collector_finalize_lag \
    'lrgp_dist_round_assembly_seconds_bucket{le=' \
    'lrgp_dist_resend_chirps_total{agent="flow"}' \
    'lrgp_dist_resend_chirps_total{agent="node"}' \
    'lrgp_dist_resend_backoffs_total{agent=' \
    'lrgp_dist_repairs_total{agent=' \
    lrgp_dist_gateway_flushes_total \
    lrgp_dist_gateway_queue_depth \
    'lrgp_dist_gateway_flush_occupancy_bucket{le=' \
    lrgp_dist_stalls_total \
    lrgp_dist_net_frames \
    lrgp_dist_net_bytes \
    lrgp_dist_net_dropped; do
    if ! grep -Fq "${family}" <<<"${metrics}"; then
        echo "telemetry-smoke: /metrics missing ${family}" >&2
        exit 1
    fi
done

# Every dist run goes through the gateways, so their families are
# populated on this default run, not merely registered.
for populated in \
    '^lrgp_dist_gateway_flushes_total [1-9]' \
    '^lrgp_dist_gateway_flush_occupancy_count [1-9]'; do
    if ! grep -Eq "${populated}" <<<"${metrics}"; then
        echo "telemetry-smoke: /metrics has no ${populated}" >&2
        exit 1
    fi
done

# The event log lands after the full dist run; wait for the broker's
# confirmation line before killing it.
deadline=$((SECONDS + 60))
until grep -q "flight recorder: event log written to" "${OUT}"; do
    if ! kill -0 "${BROKER_PID}" 2>/dev/null || [ "${SECONDS}" -ge "${deadline}" ]; then
        echo "telemetry-smoke: event log was never written:" >&2
        cat "${OUT}" >&2
        exit 1
    fi
    sleep 0.2
done
kill "${BROKER_PID}" 2>/dev/null || true
wait "${BROKER_PID}" 2>/dev/null || true
BROKER_PID=

# Analyze the flight-recorder log with lrgp-trace.
[ -s "${EVENTS}" ] || { echo "telemetry-smoke: -dist-events wrote nothing" >&2; cat "${OUT}" >&2; exit 1; }
analysis="$("${TRACE_BIN}" -events "${EVENTS}")"
for table in "== round timeline ==" "== stragglers" "== loss hotspots" "== effective staleness"; do
    if ! grep -Fq "${table}" <<<"${analysis}"; then
        echo "telemetry-smoke: lrgp-trace output missing ${table}:" >&2
        echo "${analysis}" >&2
        exit 1
    fi
done

# Phase 3: the autopilot loop under churn. Enacted cycles accumulate
# from the first interval, so we poll for a non-zero enacted counter and
# then assert every lrgp_enact_* family in the same scrape.
"${BIN}" -telemetry-addr "${ADDR}" -autopilot -autopilot-seconds 30 \
    >"${OUT}" 2>&1 &
BROKER_PID=$!

echo "telemetry-smoke: waiting for enacted autopilot cycles on ${ADDR}"
deadline=$((SECONDS + 60))
while :; do
    if ! kill -0 "${BROKER_PID}" 2>/dev/null; then
        echo "telemetry-smoke: autopilot lrgp-broker exited early:" >&2
        cat "${OUT}" >&2
        exit 1
    fi
    if metrics="$(fetch /metrics 2>/dev/null)" \
        && grep -Eq '^lrgp_enact_cycles_total\{result="enacted"\} [1-9]' <<<"${metrics}"; then
        break
    fi
    if [ "${SECONDS}" -ge "${deadline}" ]; then
        echo "telemetry-smoke: no autopilot cycle ever enacted; last scrape:" >&2
        echo "${metrics:-<no response>}" >&2
        cat "${OUT}" >&2
        exit 1
    fi
    sleep 0.2
done

for family in \
    'lrgp_enact_apply_seconds_bucket{le=' \
    'lrgp_enact_route_builds_total{mode="noop"}' \
    'lrgp_enact_route_builds_total{mode="incremental"}' \
    lrgp_enact_classes_touched_total \
    lrgp_enact_flows_touched_total \
    lrgp_enact_rates_changed_total \
    'lrgp_enact_cycles_total{result="skipped"}' \
    'lrgp_enact_cycle_seconds_bucket{le=' \
    lrgp_enact_allocation_delta \
    lrgp_enact_oscillation \
    lrgp_enact_demand_consumers; do
    if ! grep -Fq "${family}" <<<"${metrics}"; then
        echo "telemetry-smoke: /metrics missing ${family}" >&2
        exit 1
    fi
done

kill "${BROKER_PID}" 2>/dev/null || true
wait "${BROKER_PID}" 2>/dev/null || true
BROKER_PID=

echo "telemetry-smoke: OK (colocated + dist metric families, flight recorder, lrgp-trace, autopilot enact families)"
