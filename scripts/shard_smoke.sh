#!/usr/bin/env bash
# Smoke test of the sharded sweep engine, end to end with real processes:
#
#   1. a mini-sweep (fig02 + fig05 at tiny IPSIM_RUN_LENGTHS windows)
#      runs once with --shards 1 and once with --shards 2 (the parent
#      re-execs itself for shard 1, runs shard 0 inline, then renders
#      the merge from the shared run cache);
#   2. both figure files must be byte-identical and match the committed
#      goldens — shard count must never change a rendered byte. Re-pin
#      GOLDEN_* below only when simulated behaviour changes on purpose,
#      and say so in the commit;
#   3. a warm re-run over the sharded directory must render zero figures
#      (the incremental manifest proves both outputs current);
#   4. `report sweep --stable` over the solo and sharded directories
#      must produce identical bytes (the stable view is independent of
#      how the sweep was executed).
#
# Needs: target/release/{all_figures,report} (make build), sha256sum.
set -euo pipefail

ALL_FIGURES=${ALL_FIGURES:-$(pwd)/target/release/all_figures}
REPORT=${REPORT:-$(pwd)/target/release/report}
GOLDEN_FIG02="071f7ee4f5ed0287e8f9e46f459a8c44f807bf1dfb3d59850112ee56fe02263a"
GOLDEN_FIG05="3273ed53fcce5d75222e51f610f8b4e71b5c1b0cf51186f1a0e24b029c00194c"
ROOT=$(mktemp -d /tmp/ipsim-shard-smoke.XXXXXX)

cleanup() { rm -rf "${ROOT}"; }
trap cleanup EXIT

fail() {
    echo "shard_smoke: FAIL: $*" >&2
    exit 1
}

run_sweep() { # $1 = tag, $2 = shards
    local dir="${ROOT}/$1"
    mkdir -p "${dir}"
    (
        cd "${dir}"
        IPSIM_RUN_LENGTHS="10000/20000" \
        IPSIM_CACHE_DIR="${dir}/cache" \
        IPSIM_TRACE_DIR="${dir}/traces" \
        IPSIM_RUNLOG="${dir}/runlog.tsv" \
            "${ALL_FIGURES}" --figures fig02,fig05 --jobs 1 --shards "$2" \
            2>"${dir}/stderr.txt"
    )
}

report_stable() { # $1 = tag
    local dir="${ROOT}/$1"
    "${REPORT}" sweep --stable --runlog "${dir}/runlog.tsv" \
        --cache "${dir}/cache" --telemetry "${dir}/telemetry"
}

[ -x "${ALL_FIGURES}" ] || fail "missing ${ALL_FIGURES} (run: cargo build --release)"
[ -x "${REPORT}" ] || fail "missing ${REPORT} (run: cargo build --release)"

echo "shard_smoke: mini-sweep, 1 shard..."
run_sweep solo 1 > "${ROOT}/solo.out"

echo "shard_smoke: mini-sweep, 2 shards (real child process)..."
run_sweep sharded 2 > "${ROOT}/sharded.out"
grep -q "^# batch shard " "${ROOT}/sharded/runlog.tsv" \
    || fail "no shard batch markers in the sharded runlog"

for fig in fig02 fig05; do
    cmp -s "${ROOT}/solo/results/${fig}.txt" "${ROOT}/sharded/results/${fig}.txt" \
        || fail "${fig}: shard count changed the rendered bytes"
done
actual02=$(sha256sum "${ROOT}/sharded/results/fig02.txt" | cut -d' ' -f1)
actual05=$(sha256sum "${ROOT}/sharded/results/fig05.txt" | cut -d' ' -f1)
[ "${actual02}" = "${GOLDEN_FIG02}" ] \
    || fail "fig02 golden mismatch: expected ${GOLDEN_FIG02}, got ${actual02}"
[ "${actual05}" = "${GOLDEN_FIG05}" ] \
    || fail "fig05 golden mismatch: expected ${GOLDEN_FIG05}, got ${actual05}"
echo "shard_smoke: figures byte-identical across shard counts, goldens OK"

echo "shard_smoke: warm re-run (must render nothing)..."
run_sweep sharded 2 > "${ROOT}/warm.out"
grep -q "(0 rendered, 2 unchanged)" "${ROOT}/warm.out" \
    || fail "warm re-run rendered figures: $(grep 'figures (' "${ROOT}/warm.out" || true)"
echo "shard_smoke: warm re-run skipped both figures"

report_stable solo > "${ROOT}/report_solo.txt"
report_stable sharded > "${ROOT}/report_sharded.txt"
cmp -s "${ROOT}/report_solo.txt" "${ROOT}/report_sharded.txt" \
    || fail "report sweep --stable differs between solo and sharded runs"
echo "shard_smoke: stable sweep report identical across execution shapes"
echo "shard_smoke: PASS"
