#!/usr/bin/env bash
# End-to-end smoke test of the serving daemon with real processes and
# real signals — the parts in-process tests cannot exercise:
#
#   1. byte-identity: two independent daemons with cold caches simulate
#      the same spec and must serve byte-identical result TSV;
#   2. dedup: resubmitting the spec answers instantly from the run cache;
#   3. crash safety: kill -9 with a 10-job queue in flight, restart over
#      the same journal, every job reaches a terminal state;
#   4. backpressure: a full queue answers 429, not a hang;
#   5. v3 scheme text: a registry-spec job and a `zoo:` job both finish
#      (the v1 payloads above keep the compact `nl_tagged`/`nnl:N` forms).
#
# Needs: target/release/{ipsim_serve,serve_load} (make build), curl, jq.
set -euo pipefail

SERVE=${SERVE:-target/release/ipsim_serve}
PORT=$((21000 + RANDOM % 20000))
ADDR="127.0.0.1:${PORT}"
ROOT=$(mktemp -d /tmp/ipsim-serve-smoke.XXXXXX)
DAEMON_PID=""

SPEC='{"v":1,"runs":[{"config":"single_core","workload":"db","prefetcher":"nl_tagged","policy":"install_both","warm":200000,"measure":400000}]}'

cleanup() {
    [ -n "${DAEMON_PID}" ] && kill -9 "${DAEMON_PID}" 2>/dev/null || true
    rm -rf "${ROOT}"
}
trap cleanup EXIT

fail() {
    echo "serve_smoke: FAIL: $*" >&2
    exit 1
}

# boot <dir-tag> <extra flags...>: starts a daemon and waits for healthz.
boot() {
    local tag=$1
    shift
    "${SERVE}" --bind "${ADDR}" --dir "${ROOT}/${tag}/serve" \
        --cache "${ROOT}/${tag}/cache" --traces none "$@" \
        >>"${ROOT}/${tag}.log" 2>&1 &
    DAEMON_PID=$!
    for _ in $(seq 1 100); do
        if curl -sf "http://${ADDR}/v1/healthz" >/dev/null 2>&1; then
            return 0
        fi
        kill -0 "${DAEMON_PID}" 2>/dev/null || fail "daemon died during boot"
        sleep 0.1
    done
    fail "daemon never answered healthz"
}

stop() {
    kill -TERM "${DAEMON_PID}" 2>/dev/null || true
    wait "${DAEMON_PID}" 2>/dev/null || true
    DAEMON_PID=""
}

submit() {
    curl -s -X POST -H 'Content-Type: application/json' \
        -d "$1" "http://${ADDR}/v1/jobs"
}

wait_done() {
    local id=$1
    for _ in $(seq 1 600); do
        local state
        state=$(curl -s "http://${ADDR}/v1/jobs/${id}" | jq -r .state)
        case "${state}" in
        done) return 0 ;;
        failed) fail "job ${id} failed" ;;
        esac
        sleep 0.2
    done
    fail "job ${id} never finished"
}

# Runs SPEC on a freshly booted daemon with a cold cache and writes the
# result TSV payload (the summary line, without the key/status columns)
# to $2. Not a command substitution: the booted daemon must stay in the
# parent shell so DAEMON_PID and stop() work.
run_cold() {
    local tag=$1 out=$2
    boot "${tag}" --workers 2
    local id
    id=$(submit "${SPEC}" | jq -r .id)
    [ "${id}" != "null" ] || fail "submit returned no job id"
    wait_done "${id}"
    curl -s "http://${ADDR}/v1/jobs/${id}/result?format=tsv" |
        grep -v '^#' | cut -f3- >"${out}"
}

echo "== byte-identity across independent daemons =="
run_cold a "${ROOT}/a.tsv"
# Dedup on the warm daemon: same spec answers instantly from the cache.
DEDUP=$(submit "${SPEC}" | jq -r .dedup)
[ "${DEDUP}" = "cache" ] || fail "expected dedup=cache, got '${DEDUP}'"
stop
run_cold b "${ROOT}/b.tsv"
stop
[ -s "${ROOT}/a.tsv" ] || fail "empty result TSV"
cmp -s "${ROOT}/a.tsv" "${ROOT}/b.tsv" || fail "result TSV differs between daemons"
echo "   ok: identical summaries, dedup=cache on resubmit"

echo "== kill -9 with a 10-job queue, restart, recovery =="
# Accept-only daemon (no workers): all ten jobs stay queued in the journal.
boot c --workers 0 --max-queue 16
IDS=()
for i in $(seq 0 9); do
    WL=$(echo db tpcw japp web | cut -d' ' -f$((i % 4 + 1)))
    J=$(submit "{\"v\":1,\"runs\":[{\"config\":\"single_core\",\"workload\":\"${WL}\",\"prefetcher\":\"nnl:$((i / 4 + 1))\",\"policy\":\"install_both\",\"warm\":50000,\"measure\":100000}]}")
    ID=$(echo "${J}" | jq -r .id)
    [ "${ID}" != "null" ] || fail "submit ${i} rejected: ${J}"
    IDS+=("${ID}")
done
DEPTH=$(curl -s "http://${ADDR}/v1/stats" | jq -r .queue_depth)
[ "${DEPTH}" = "10" ] || fail "expected queue_depth=10, got ${DEPTH}"
kill -9 "${DAEMON_PID}"
wait "${DAEMON_PID}" 2>/dev/null || true
DAEMON_PID=""

# Restart over the same journal, now with workers: every job must finish.
boot c --workers 4
RECOVERED=$(curl -s "http://${ADDR}/v1/stats" | jq -r .recovered)
[ "${RECOVERED}" = "10" ] || fail "expected recovered=10, got ${RECOVERED}"
for ID in "${IDS[@]}"; do
    wait_done "${ID}"
done
stop
echo "   ok: all 10 jobs recovered and finished after kill -9"

echo "== queue overflow answers 429 =="
boot d --workers 0 --max-queue 2
submit "${SPEC}" >/dev/null
OVERFLOW_SPEC='{"v":1,"runs":[{"config":"single_core","workload":"web","prefetcher":"none","policy":"install_both","warm":50000,"measure":100000}]}'
submit "${OVERFLOW_SPEC}" >/dev/null
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    -H 'Content-Type: application/json' \
    -d '{"v":1,"runs":[{"config":"single_core","workload":"japp","prefetcher":"none","policy":"install_both","warm":50000,"measure":100000}]}' \
    "http://${ADDR}/v1/jobs")
[ "${CODE}" = "429" ] || fail "expected 429 on overflow, got ${CODE}"
stop
echo "   ok: 429 on a full queue"

echo "== v3 registry-spec and zoo: submissions =="
boot e --workers 2
for PF in "disc:ahead=2" "zoo:nl+mana"; do
    J=$(submit "{\"v\":3,\"runs\":[{\"config\":\"single_core\",\"workload\":\"web\",\"prefetcher\":\"${PF}\",\"policy\":\"install_both\",\"warm\":50000,\"measure\":100000}]}")
    ID=$(echo "${J}" | jq -r .id)
    [ "${ID}" != "null" ] || fail "v3 submit of ${PF} rejected: ${J}"
    wait_done "${ID}"
done
stop
echo "   ok: v3 disc:ahead=2 and zoo:nl+mana jobs done"

echo "serve_smoke: PASS"
