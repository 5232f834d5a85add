#!/usr/bin/env bash
# Smoke test of the figure sweep end to end with the real binaries:
#
#   1. a mini-sweep (fig02 + fig05 at tiny IPSIM_RUN_LENGTHS windows)
#      runs once with --jobs 1 and once with --jobs 2, each from cold
#      stores in its own directory;
#   2. both figure files must be byte-identical and match the committed
#      goldens — worker count must never change a rendered byte. Re-pin
#      GOLDEN_* below only when simulated behaviour changes on purpose,
#      and say so in the commit;
#   3. a warm re-run over the --jobs 2 directory must render zero figures
#      (the incremental manifest proves both outputs current);
#   4. `report sweep --stable` over the two directories must produce
#      identical bytes (the stable view is independent of how the sweep
#      was executed);
#   5. a replay-only sweep over the --jobs 2 directory's warm trace store:
#      its run cache, manifest and run log are deleted, its traces kept,
#      and fig02+fig05 re-run with --jobs 2. It must capture nothing,
#      replay all 63 runs (every run-log row reads source `replay`), match
#      the goldens, and give the cold pass's `report sweep --stable` view —
#      two workers each stepping a stream's runs as one cohort over a
#      sliding decoded window must not change a byte.
#
# Needs: target/release/{all_figures,report} (make build), sha256sum.
set -euo pipefail

ALL_FIGURES=${ALL_FIGURES:-$(pwd)/target/release/all_figures}
REPORT=${REPORT:-$(pwd)/target/release/report}
GOLDEN_FIG02="071f7ee4f5ed0287e8f9e46f459a8c44f807bf1dfb3d59850112ee56fe02263a"
GOLDEN_FIG05="3273ed53fcce5d75222e51f610f8b4e71b5c1b0cf51186f1a0e24b029c00194c"
ROOT=$(mktemp -d /tmp/ipsim-sweep-smoke.XXXXXX)

cleanup() { rm -rf "${ROOT}"; }
trap cleanup EXIT

fail() {
    echo "sweep_smoke: FAIL: $*" >&2
    exit 1
}

run_sweep() { # $1 = tag, $2 = worker threads, then extra flags
    local dir="${ROOT}/$1"
    local workers=$2
    shift 2
    mkdir -p "${dir}"
    (
        cd "${dir}"
        IPSIM_RUN_LENGTHS="10000/20000" \
        IPSIM_CACHE_DIR="${dir}/cache" \
        IPSIM_TRACE_DIR="${dir}/traces" \
        IPSIM_RUNLOG="${dir}/runlog.tsv" \
            "${ALL_FIGURES}" --figures fig02,fig05 --jobs "${workers}" "$@" \
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

echo "sweep_smoke: mini-sweep, 1 worker..."
run_sweep serial 1 > "${ROOT}/serial.out"

echo "sweep_smoke: mini-sweep, 2 workers..."
run_sweep parallel 2 > "${ROOT}/parallel.out"

for fig in fig02 fig05; do
    cmp -s "${ROOT}/serial/results/${fig}.txt" "${ROOT}/parallel/results/${fig}.txt" \
        || fail "${fig}: worker count changed the rendered bytes"
done
check_goldens() { # $1 = tag
    local actual02 actual05
    actual02=$(sha256sum "${ROOT}/$1/results/fig02.txt" | cut -d' ' -f1)
    actual05=$(sha256sum "${ROOT}/$1/results/fig05.txt" | cut -d' ' -f1)
    [ "${actual02}" = "${GOLDEN_FIG02}" ] \
        || fail "$1: fig02 golden mismatch: expected ${GOLDEN_FIG02}, got ${actual02}"
    [ "${actual05}" = "${GOLDEN_FIG05}" ] \
        || fail "$1: fig05 golden mismatch: expected ${GOLDEN_FIG05}, got ${actual05}"
}
check_goldens parallel
echo "sweep_smoke: figures byte-identical across worker counts, goldens OK"

echo "sweep_smoke: warm re-run (must render nothing)..."
run_sweep parallel 2 > "${ROOT}/warm.out"
grep -q "(0 rendered, 2 unchanged)" "${ROOT}/warm.out" \
    || fail "warm re-run rendered figures: $(grep 'figures (' "${ROOT}/warm.out" || true)"
echo "sweep_smoke: warm re-run skipped both figures"

report_stable serial > "${ROOT}/report_serial.txt"
report_stable parallel > "${ROOT}/report_parallel.txt"
cmp -s "${ROOT}/report_serial.txt" "${ROOT}/report_parallel.txt" \
    || fail "report sweep --stable differs between 1 and 2 workers"
echo "sweep_smoke: stable sweep report identical across worker counts"

echo "sweep_smoke: replay-only sweep over the warm store, 2 workers..."
rm -rf "${ROOT}/parallel/cache" "${ROOT}/parallel/results/figures/manifest.tsv" \
    "${ROOT}/parallel/runlog.tsv"
run_sweep parallel 2 > "${ROOT}/replay.out"
grep -q "traces: 0 streams captured · 63 runs replayed" "${ROOT}/replay.out" \
    || fail "replay-only sweep: $(grep 'traces:' "${ROOT}/replay.out" || echo 'no trace summary')"
check_goldens parallel
not_replayed=$(grep -v '^#' "${ROOT}/parallel/runlog.tsv" | cut -f3 | grep -cvx replay || true)
rows=$(grep -cv '^#' "${ROOT}/parallel/runlog.tsv" || true)
[ "${rows}" = 63 ] && [ "${not_replayed}" = 0 ] \
    || fail "replay-only sweep: ${rows} run-log rows, ${not_replayed} not from replay"
report_stable parallel > "${ROOT}/report_replay.txt"
cmp -s "${ROOT}/report_serial.txt" "${ROOT}/report_replay.txt" \
    || fail "report sweep --stable of the replay-only sweep differs from the cold pass"
echo "sweep_smoke: replay-only sweep replayed every run, goldens and stable report OK"
echo "sweep_smoke: PASS"
