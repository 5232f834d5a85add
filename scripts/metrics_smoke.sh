#!/usr/bin/env bash
# End-to-end smoke test of the observability pipeline with a real daemon:
#
#   1. `GET /v1/metrics` serves valid Prometheus text exposition before
#      any traffic, with every core serve family pre-registered;
#   2. after a real job executes, the request/queue/execute histograms
#      and job counters have moved, and `report ops --require` validates
#      the scrape offline;
#   3. `/v1/stats` carries per-endpoint latency percentiles;
#   4. a graceful drain exports `spans.trace.json`, which the shared
#      Chrome-trace validator (via `report check`) accepts and
#      `report ops --spans` folds into a per-span table.
#
# Needs: target/release/{ipsim_serve,report}
# (make build), curl, jq.
set -euo pipefail

SERVE=${SERVE:-target/release/ipsim_serve}
REPORT=${REPORT:-target/release/report}
PORT=$((21000 + RANDOM % 20000))
ADDR="127.0.0.1:${PORT}"
ROOT=$(mktemp -d /tmp/ipsim-metrics-smoke.XXXXXX)
DAEMON_PID=""

SPEC='{"v":1,"runs":[{"config":"single_core","workload":"db","prefetcher":"nl_tagged","policy":"install_both","warm":50000,"measure":100000}]}'

# Families the scrape must always carry (pre-registered at Service::open).
REQUIRED="ipsim_serve_requests_total,ipsim_serve_request_micros,ipsim_serve_queue_depth,ipsim_serve_inflight_jobs,ipsim_serve_jobs_submitted_total,ipsim_serve_dedup_total,ipsim_serve_rejected_total,ipsim_serve_jobs_total,ipsim_serve_queue_wait_micros,ipsim_serve_job_execute_micros"

cleanup() {
    [ -n "${DAEMON_PID}" ] && kill -9 "${DAEMON_PID}" 2>/dev/null || true
    rm -rf "${ROOT}"
}
trap cleanup EXIT

fail() {
    echo "metrics_smoke: FAIL: $*" >&2
    exit 1
}

echo "== boot =="
"${SERVE}" --bind "${ADDR}" --dir "${ROOT}/serve" --cache "${ROOT}/cache" \
    --traces none --workers 2 >>"${ROOT}/daemon.log" 2>&1 &
DAEMON_PID=$!
for _ in $(seq 1 100); do
    curl -sf "http://${ADDR}/v1/healthz" >/dev/null 2>&1 && break
    kill -0 "${DAEMON_PID}" 2>/dev/null || fail "daemon died during boot"
    sleep 0.1
done
curl -sf "http://${ADDR}/v1/healthz" >/dev/null || fail "daemon never answered healthz"

echo "== cold scrape: valid exposition, every family pre-registered =="
CTYPE=$(curl -s -o "${ROOT}/cold.prom" -w '%{content_type}' "http://${ADDR}/v1/metrics")
case "${CTYPE}" in
text/plain*) ;;
*) fail "unexpected /v1/metrics content type '${CTYPE}'" ;;
esac
"${REPORT}" ops --metrics "${ROOT}/cold.prom" --require "${REQUIRED}" >/dev/null ||
    fail "cold scrape missing required families"
echo "   ok: cold scrape parses and carries all $(echo "${REQUIRED}" | tr ',' '\n' | wc -l) families"

echo "== run a job, metrics move =="
ID=$(curl -s -X POST -H 'Content-Type: application/json' \
    -d "${SPEC}" "http://${ADDR}/v1/jobs" | jq -r .id)
[ "${ID}" != "null" ] || fail "submit returned no job id"
for _ in $(seq 1 600); do
    STATE=$(curl -s "http://${ADDR}/v1/jobs/${ID}" | jq -r .state)
    [ "${STATE}" = "done" ] && break
    [ "${STATE}" = "failed" ] && fail "job failed"
    sleep 0.2
done
[ "${STATE}" = "done" ] || fail "job never finished"

curl -s "http://${ADDR}/v1/metrics" >"${ROOT}/warm.prom"
"${REPORT}" ops --metrics "${ROOT}/warm.prom" --require "${REQUIRED}" >"${ROOT}/ops.txt" ||
    fail "warm scrape failed validation"
grep -q 'ipsim_serve_jobs_total{state="done"} 1' "${ROOT}/warm.prom" ||
    fail "jobs_total{state=done} did not reach 1"
grep -q 'ipsim_serve_job_execute_micros_count 1' "${ROOT}/warm.prom" ||
    fail "execute histogram did not record the run"
grep -q '== histograms ==' "${ROOT}/ops.txt" || fail "report ops rendered no histogram table"
echo "   ok: job counters and execute histogram moved; report ops renders"

echo "== /v1/stats carries latency percentiles =="
curl -s "http://${ADDR}/v1/stats" | jq -e '.latency_micros.jobs.p50' >/dev/null ||
    fail "stats has no latency_micros.jobs.p50"
echo "   ok: per-endpoint percentiles in /v1/stats"

echo "== graceful drain exports a valid span trace =="
kill -TERM "${DAEMON_PID}"
wait "${DAEMON_PID}" 2>/dev/null || true
DAEMON_PID=""
SPANS="${ROOT}/serve/spans.trace.json"
[ -s "${SPANS}" ] || fail "daemon wrote no ${SPANS}"
"${REPORT}" check "${SPANS}" || fail "span trace failed the shared Chrome-trace validator"
"${REPORT}" ops --spans "${SPANS}" | grep -q 'serve.request' ||
    fail "report ops found no serve.request spans"
echo "   ok: spans.trace.json validates and folds into a span table"

echo "metrics_smoke: PASS"
