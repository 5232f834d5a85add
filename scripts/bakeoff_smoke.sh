#!/usr/bin/env bash
# Smoke test of the prefetcher-zoo bake-off pipeline, end to end:
#
#   1. a small zoo sweep (`report sim --bakeoff --smoke`) runs the full
#      contender plan against a no-prefetch baseline on all five
#      workload schedules, staging zoo.tsv telemetry artifacts;
#   2. the rendered table must cover every contender scheme on every
#      workload;
#   3. re-running with a different worker count over cold caches must
#      reproduce the table byte for byte;
#   4. the table's hash must match the committed golden — the bake-off
#      is a deterministic, seeded measurement, so any drift means the
#      simulation or a scheme changed. Re-pin GOLDEN_SHA256 below when
#      the change is intentional (new scheme, retuned knobs, table
#      format) and say so in the commit.
#
# Needs: target/release/report (make build), sha256sum.
set -euo pipefail

REPORT=${REPORT:-target/release/report}
GOLDEN_SHA256="0fde2856c59f7ec20cbafb67cae6d4e9874f98bda4c1f0b3afaa31c221efdf92"
SCHEMES="nl nnl disc target stream mana pmap"
WORKLOADS="DB TPC-W jApp Web Mixed"
ROOT=$(mktemp -d /tmp/ipsim-bakeoff-smoke.XXXXXX)

cleanup() { rm -rf "${ROOT}"; }
trap cleanup EXIT

fail() {
    echo "bakeoff_smoke: FAIL: $*" >&2
    exit 1
}

run_sweep() { # $1 = tag, $2 = jobs
    IPSIM_CACHE_DIR="${ROOT}/$1/cache" \
    IPSIM_TRACE_DIR="${ROOT}/$1/traces" \
    IPSIM_TELEMETRY_DIR="${ROOT}/$1/telemetry" \
    IPSIM_RUNLOG="${ROOT}/$1/runlog.tsv" \
        "${REPORT}" sim --bakeoff --smoke --jobs "$2" 2>/dev/null
}

[ -x "${REPORT}" ] || fail "missing ${REPORT} (run: cargo build --release -p ipsim-experiments --bin report)"

echo "bakeoff_smoke: sweep 1 (4 workers)..."
run_sweep a 4 > "${ROOT}/table_a.txt"

for scheme in ${SCHEMES}; do
    n=$(awk -v s="${scheme}" '{for (i=1;i<=NF;i++) if ($i==s) c++} END {print c+0}' \
        "${ROOT}/table_a.txt")
    [ "${n}" -eq 5 ] || fail "scheme ${scheme}: expected 5 rows, found ${n}"
done
for workload in ${WORKLOADS}; do
    grep -q "^${workload}" "${ROOT}/table_a.txt" || fail "workload ${workload} missing"
done
echo "bakeoff_smoke: table covers all $(echo ${SCHEMES} | wc -w) schemes x 5 workloads"

echo "bakeoff_smoke: sweep 2 (1 worker, cold caches)..."
run_sweep b 1 > "${ROOT}/table_b.txt"
cmp -s "${ROOT}/table_a.txt" "${ROOT}/table_b.txt" \
    || fail "tables differ across worker counts (not deterministic)"
echo "bakeoff_smoke: byte-identical across worker counts"

actual=$(sha256sum "${ROOT}/table_a.txt" | cut -d' ' -f1)
[ "${actual}" = "${GOLDEN_SHA256}" ] \
    || fail "golden hash mismatch: expected ${GOLDEN_SHA256}, got ${actual} \
(intentional change? re-pin GOLDEN_SHA256 in scripts/bakeoff_smoke.sh)"
echo "bakeoff_smoke: golden hash OK"
echo "bakeoff_smoke: PASS"
