//! `figsweep_replay`: the Figure 1 and Figure 2 sweeps through
//! `ipsim_harness::run_sweep`, every run replayed from a trace store that
//! set-up filled.
//!
//! The renderers rebuild the two figures' run matrices over seeded
//! workload sets (the `ipsim-experiments` renderers hard-code their
//! seeds). Besides the paper table, each renders one `run` line per
//! consumed run carrying its cache key, core count and full summary, so
//! the benchmark checks every simulated result from the sweep's own
//! output.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ipsim_cpu::WorkloadSet;
use ipsim_experiments::{pct, table_string};
use ipsim_harness::hash::fnv1a64;
use ipsim_harness::traces::RunSource;
use ipsim_harness::{
    run_sweep, Executor, Figure, ProgressMode, RunLengths, RunSpec, Summary, SweepOptions,
    SweepReport, TraceStore,
};
use ipsim_types::{CacheConfig, SystemConfig};

use crate::common::{cmp_sets, single_sets};
use crate::{span, Check, Detail, Iteration};

/// Run lengths of every sweep run (per core).
pub const LENGTHS: RunLengths = RunLengths {
    warm: 200_000,
    measure: 400_000,
};

/// The benchmark seed the renderers read: a `Figure` renderer is a plain
/// `fn`, so the seed cannot be captured and travels through here instead.
static SEED: AtomicU64 = AtomicU64::new(0);

pub const FIGURES: [Figure; 2] = [
    Figure {
        name: "fig01",
        title: "L1I miss rates vs cache geometry (seeded)",
        version: 1,
        render: fig01,
    },
    Figure {
        name: "fig02",
        title: "L2 instruction miss rates vs L2 capacity (seeded)",
        version: 1,
        render: fig02,
    },
];

/// Resolves `spec` and records a `run` line for it.
fn resolve(x: &mut Executor, spec: RunSpec, runs: &mut String) -> Summary {
    let summary = x(&spec);
    let _ = writeln!(
        runs,
        "run\t{}\t{}\t{}",
        spec.cache_key(),
        spec.config.n_cores,
        summary.to_tsv()
    );
    summary
}

/// Figure 1's matrix: ten L1I geometries × four single-core workloads.
fn fig01(lengths: RunLengths, x: &mut Executor) -> String {
    let configs: [(&str, u64, u32, u64); 10] = [
        ("Default", 32 << 10, 4, 64),
        ("Direct-mapped", 32 << 10, 1, 64),
        ("2-way", 32 << 10, 2, 64),
        ("8-way", 32 << 10, 8, 64),
        ("32B line size", 32 << 10, 4, 32),
        ("128B line size", 32 << 10, 4, 128),
        ("256B line size", 32 << 10, 4, 256),
        ("16KB", 16 << 10, 4, 64),
        ("64KB", 64 << 10, 4, 64),
        ("128KB", 128 << 10, 4, 64),
    ];
    let sets = single_sets(SEED.load(Ordering::Relaxed));
    let (mut rows, mut runs) = (Vec::new(), String::new());
    for (label, size, assoc, line) in configs {
        let mut row = vec![label.to_string()];
        for ws in &sets {
            let mut config = SystemConfig::single_core();
            config.core.l1i = CacheConfig::new(size, assoc, line).expect("valid geometry");
            let s = resolve(x, RunSpec::new(config, ws.clone(), lengths), &mut runs);
            row.push(pct(s.l1i_mpi));
        }
        rows.push(row);
    }
    let header = ["I$ configuration", "DB", "TPC-W", "jApp", "Web"];
    format!("{}{runs}", table_string(&header, &rows))
}

/// Figure 2's matrix: three L2 sizes × {single core, 4-way CMP} × the
/// five columns (Mixed only on the CMP).
fn fig02(lengths: RunLengths, x: &mut Executor) -> String {
    let sets = cmp_sets(SEED.load(Ordering::Relaxed));
    let (mut rows, mut runs) = (Vec::new(), String::new());
    for mb in [1u64, 2, 4] {
        for cmp in [false, true] {
            let mut row = vec![format!("{mb}MB {}", if cmp { "CMP" } else { "single" })];
            for ws in &sets {
                if !cmp && ws.per_core.len() > 1 {
                    row.push("-".to_string());
                    continue;
                }
                let mut config = if cmp {
                    SystemConfig::cmp4()
                } else {
                    SystemConfig::single_core()
                };
                config.mem.l2 = CacheConfig::new(mb << 20, 4, 64).expect("valid geometry");
                let s = resolve(x, RunSpec::new(config, ws.clone(), lengths), &mut runs);
                row.push(pct(s.l2i_mpi));
            }
            rows.push(row);
        }
    }
    let header = ["L2 configuration", "DB", "TPC-W", "jApp", "Web", "Mix"];
    format!("{}{runs}", table_string(&header, &rows))
}

/// One spec per distinct instruction stream the two figures consume:
/// four single-core and five 4-way-CMP streams.
fn stream_specs(seed: u64) -> Vec<RunSpec> {
    let single = single_sets(seed)
        .into_iter()
        .map(|ws| (SystemConfig::single_core(), ws));
    let cmp = cmp_sets(seed)
        .into_iter()
        .map(|ws| (SystemConfig::cmp4(), ws));
    single
        .chain(cmp)
        .map(|(config, ws): (SystemConfig, WorkloadSet)| RunSpec::new(config, ws, LENGTHS))
        .collect()
}

/// Captures the streams into a fresh store under `dir` (set-up), sweeps
/// both figures against it (timed), checks every run, and removes `dir`.
pub fn iterate(seed: u64, dir: &Path) -> Iteration {
    SEED.store(seed, Ordering::Relaxed);
    let _ = std::fs::remove_dir_all(dir);
    let traces: PathBuf = dir.join("traces");

    let t0 = Instant::now();
    let store = TraceStore::at(&traces);
    let mut captured = true;
    for spec in stream_specs(seed) {
        let run = {
            let _s = span("harness.store_execute");
            store.execute(&spec)
        };
        captured &= run.source == RunSource::Capture;
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let opts = SweepOptions {
        lengths: LENGTHS,
        workers: 1,
        results_dir: Some(dir.join("results")),
        cache_dir: Some(dir.join("cache")),
        runlog: Some(dir.join("runlog.tsv")),
        trace_dir: Some(traces),
        traces: true,
        telemetry: None,
        telemetry_dir: None,
        progress: ProgressMode::Silent,
        manifest: None,
        force: false,
    };
    let t1 = Instant::now();
    let report = {
        let _s = span("harness.run_sweep");
        run_sweep(&FIGURES, &opts)
    };
    let wall_s = t1.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(dir);

    let (checks, runs) = check(&report, captured);
    Iteration {
        setup_s,
        wall_s,
        instructions: runs.values().map(|s| s.instructions).sum(),
        checks,
        detail: Detail::Sweep { report, runs },
    }
}

/// Checks each unique run (one operation each) from the figures' `run`
/// lines. A sweep-level fault — a figure that failed to render, a stream
/// captured or a run simulated live in the timed phase, a quarantined
/// cache entry or trace, a set-up capture that did not capture — fails
/// every run of the sweep.
fn check(report: &SweepReport, captured: bool) -> (Vec<Check>, BTreeMap<String, Summary>) {
    let sweep_ok = captured
        && report.all_ok()
        && report.traces_captured == 0
        && report.traces_replayed >= report.unique_jobs as u64
        && report.quarantined == 0
        && report.traces_quarantined == 0;
    let mut checks: BTreeMap<String, Check> = BTreeMap::new();
    let mut runs = BTreeMap::new();
    for figure in &report.figures {
        let Ok(text) = &figure.outcome else { continue };
        for line in text.lines().filter_map(|l| l.strip_prefix("run\t")) {
            let mut fields = line.splitn(3, '\t');
            let (Some(key), Some(cores), Some(tsv)) = (fields.next(), fields.next(), fields.next())
            else {
                continue;
            };
            if checks.contains_key(key) {
                continue;
            }
            let cores: u64 = cores.parse().unwrap_or(0);
            let summary = Summary::from_tsv(tsv);
            let counted = summary.as_ref().map_or(0, |s| s.instructions);
            checks.insert(
                key.to_string(),
                Check {
                    run: key.to_string(),
                    ok: sweep_ok && counted == cores * LENGTHS.measure,
                    digest: fnv1a64(tsv.as_bytes()),
                    artifact: None,
                },
            );
            if let Some(summary) = summary {
                runs.insert(key.to_string(), summary);
            }
        }
    }
    let mut checks: Vec<Check> = checks.into_values().collect();
    // Every unique run must have reported; missing ones fail.
    let seen: HashSet<&str> = checks.iter().map(|c| c.run.as_str()).collect();
    let missing = report.unique_jobs.saturating_sub(seen.len());
    checks.extend((0..missing).map(|i| Check {
        run: format!("missing-{i}"),
        ok: false,
        digest: 0,
        artifact: None,
    }));
    (checks, runs)
}
