# Developer entry points. Everything here is a thin wrapper over cargo;
# CI runs the same commands (see .github/workflows/ci.yml).

.PHONY: build test lint figures bench-snapshot \
        bench-check sim-report sweep-report telemetry-check bakeoff \
        bakeoff-smoke sweep-smoke ops-report

build:
	cargo build --release

test:
	cargo test -q --workspace

lint:
	cargo fmt --all -- --check
	cargo clippy --workspace --all-targets -- -D warnings

figures:
	cargo run --release -p ipsim-experiments --bin all_figures

# Queryable summary of everything the runlog + run cache + telemetry
# artifacts record: totals, cache economics, per-workload/per-scheme
# accuracy/coverage/timeliness. Add SWEEP_REPORT_FLAGS="--stable" for the
# machine-stable view.
sweep-report:
	cargo run --release -p ipsim-experiments --bin report -- sweep $(SWEEP_REPORT_FLAGS)

# Regenerate BENCH_sim_kernel.json (run on a quiet machine; the committed
# "baseline" block is preserved). Commit the result so the kernel's perf
# trajectory stays machine-readable.
bench-snapshot:
	cargo run --release -p ipsim-bench --bin bench_snapshot

# Fail if system/* throughput regressed >10% vs the committed snapshot.
# Widen with IPSIM_BENCH_TOLERANCE=<percent> on noisy machines. The
# snapshot path follows --out / IPSIM_BENCH_BASELINE.
bench-check:
	cargo run --release -p ipsim-bench --bin bench_snapshot -- --check

# Telemetry-enabled diagnosis sweep: per-workload prefetcher accuracy /
# coverage / timeliness from the artifacts under results/telemetry/.
# Use SIM_REPORT_FLAGS="--quick" (or --smoke) for shorter windows.
sim-report:
	cargo run --release -p ipsim-experiments --bin report -- sim $(SIM_REPORT_FLAGS)

# Re-validate every telemetry artifact directory with the exporters' own
# parsers (JSONL schema, lifecycle state machine, Chrome trace, TSVs).
telemetry-check:
	cargo run --release -p ipsim-experiments --bin report -- check

# Prefetcher-zoo bake-off: every registered contender side by side per
# workload, per-scheme accuracy/coverage/timeliness from shadow
# attribution. Use BAKEOFF_FLAGS="--quick" (or --smoke) for shorter
# windows.
bakeoff:
	cargo run --release -p ipsim-experiments --bin report -- sim --bakeoff $(BAKEOFF_FLAGS)

# CI-sized bake-off: small zoo sweep, full-coverage check, worker-count
# byte-identity, and a golden table hash.
bakeoff-smoke: build
	bash scripts/bakeoff_smoke.sh

# Span timing table (count, total, mean and max wall micros per span
# name) from a Chrome-trace span file, e.g. one perfbench `--trace 1`
# writes: OPS_REPORT_FLAGS="--spans .perfbench_out/figsweep_replay.spans.trace.json".
ops-report:
	cargo run --release -p ipsim-experiments --bin report -- ops $(OPS_REPORT_FLAGS)

# Sweep smoke: --jobs 1 vs --jobs 2 mini-sweeps, golden figure hashes,
# warm-rerun manifest skip, stable-report byte-identity. Same script CI
# runs.
sweep-smoke: build
	bash scripts/sweep_smoke.sh
