//! The scheduler's core guarantee: worker count never changes a figure's
//! rendered bytes. Both sweeps here start from cold caches, so the 1-worker
//! and 4-worker runs each simulate everything themselves.
//!
//! On top of the worker-count comparison, every figure's rendered bytes
//! are pinned to a golden FNV-1a hash: one cold sweep renders all 13. Any
//! change to simulated behaviour or to a renderer — however subtle — flips
//! a hash; perf work on the hot path and renderer refactors must keep
//! these green.
//!
//! The same property is pinned end to end, too: the runlogs of both
//! worker counts record the same run set and render the same stable
//! `report sweep` view, and the real `all_figures` binary writes the
//! golden fig02 bytes with `--jobs 1` and `--jobs 2` alike.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use ipsim_experiments::report::{render_report, ReportOptions};
use ipsim_harness::hash::fnv1a64;
use ipsim_harness::traces::WINDOW_CAP_OPS;
use ipsim_harness::{
    pool, run_sweep, runlog, Figure, ProgressMode, RunLengths, RunSpec, SweepOptions, SweepReport,
};
use ipsim_telemetry::TelemetryConfig;

/// Golden output hashes of every figure at warm=10_000 / measure=20_000.
/// fig02 and fig05 were captured from the pre-rewrite `Vec<Entry>`/`HashMap`
/// simulation kernel, the rest from the renderers before figures 5–11
/// moved onto the shared scheme matrix. Kernel and renderer changes alike
/// must reproduce these bytes exactly.
const GOLDEN: [(&str, u64); 13] = [
    ("fig01", 0x4C5D_9CAF_47E6_D461),
    ("fig02", 0xE0C2_1790_1C1A_F0A1),
    ("fig03", 0x3D2F_6F18_93BB_BC9B),
    ("fig04", 0x71D4_07A7_F1D1_2E3E),
    ("fig05", 0x8B34_D941_5818_8E70),
    ("fig06", 0x6E6E_2707_FA75_A1FB),
    ("fig07", 0xAC7A_D14B_090A_C757),
    ("fig08", 0xE5DD_94BC_1A17_A2D1),
    ("fig09", 0xC9F6_4225_C27C_AAD5),
    ("fig10", 0xA14A_129D_A8F5_5692),
    ("fig11", 0xC371_5866_892B_1AEB),
    ("fig12", 0x09D2_49A5_2132_1AAC),
    ("fig13", 0xBA21_8FCB_C54F_A7FE),
];

/// The golden hash of figure `name`.
fn golden(name: &str) -> u64 {
    GOLDEN
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} missing from GOLDEN table"))
        .1
}

const LENGTHS: RunLengths = RunLengths {
    warm: 10_000,
    measure: 20_000,
};

fn cold_sweep(
    figures: &[Figure],
    tag: &str,
    workers: usize,
    telemetry: Option<TelemetryConfig>,
) -> (SweepReport, PathBuf) {
    let base = std::env::temp_dir().join(format!("ipsim-determinism-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let opts = SweepOptions {
        lengths: LENGTHS,
        workers,
        results_dir: None,
        cache_dir: Some(base.join("cache")),
        runlog: Some(base.join("runlog.tsv")),
        trace_dir: Some(base.join("traces")),
        traces: true,
        telemetry,
        telemetry_dir: Some(base.join("telemetry")),
        progress: ProgressMode::Silent,
        manifest: None,
        force: false,
    };
    (run_sweep(figures, &opts), base)
}

/// The unique runs of every stream a cold sweep of `figures` replays:
/// each stream with more than one unique run, since its first run
/// captures it and the rest replay.
fn replayed_streams(figures: &[Figure]) -> Vec<Vec<RunSpec>> {
    // Unique runs in first-seen order, as the sweep dedups them, so each
    // stream's first run is the sweep's captain.
    let mut seen = BTreeSet::new();
    let unique: Vec<RunSpec> = figures
        .iter()
        .flat_map(|figure| figure.jobs(LENGTHS).expect("jobs enumerate"))
        .filter(|spec| seen.insert(spec.cache_key()))
        .collect();
    pool::streams(&unique)
        .into_iter()
        .filter(|runs| runs.len() > 1)
        .collect()
}

/// The set of run keys a runlog records (ignoring order).
fn runlog_keys(path: &Path) -> BTreeSet<String> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("runlog {} unreadable: {e}", path.display()));
    let (rows, malformed) = runlog::parse(&text).unwrap();
    assert_eq!(malformed, 0, "malformed rows in {}", path.display());
    rows.into_iter().map(|row| row.key).collect()
}

/// `report sweep --stable` over the stores a sweep wrote under `base`.
fn stable_report(base: &Path) -> String {
    render_report(&ReportOptions {
        runlog: base.join("runlog.tsv"),
        cache_dir: base.join("cache"),
        telemetry_dir: base.join("telemetry"),
        stable: true,
    })
    .unwrap()
}

#[test]
fn figure_output_is_byte_identical_across_worker_counts() {
    // fig02 exercises mixed workloads and config edits; fig05 exercises the
    // shared scheme matrix (its three parts dedup onto the same runs).
    let figures: Vec<Figure> = ipsim_experiments::figures::all()
        .into_iter()
        .filter(|f| f.name == "fig02" || f.name == "fig05")
        .collect();
    assert_eq!(figures.len(), 2);

    let (serial, dir1) = cold_sweep(&figures, "w1", 1, None);
    let (parallel, dir4) = cold_sweep(&figures, "w4", 4, None);
    // Telemetry observes the simulation; it must not touch a rendered byte.
    let (instrumented, dir_t) = cold_sweep(
        &figures,
        "telem",
        4,
        Some(TelemetryConfig {
            interval: 5_000,
            max_events_per_core: 65_536,
        }),
    );

    assert!(serial.all_ok(), "serial sweep failed");
    assert!(parallel.all_ok(), "parallel sweep failed");
    assert!(instrumented.all_ok(), "telemetry sweep failed");
    assert_eq!(serial.cache_hits, 0, "sweep was not cold");
    assert_eq!(parallel.cache_hits, 0, "sweep was not cold");
    assert_eq!(instrumented.cache_hits, 0, "sweep was not cold");
    assert!(
        instrumented.telemetry_written > 0,
        "telemetry sweep wrote no artifacts"
    );

    for ((a, b), c) in serial
        .figures
        .iter()
        .zip(&parallel.figures)
        .zip(&instrumented.figures)
    {
        assert_eq!(a.name, b.name);
        let text1 = a.outcome.as_ref().unwrap();
        let text4 = b.outcome.as_ref().unwrap();
        let text_t = c.outcome.as_ref().unwrap();
        assert_eq!(
            text1.as_bytes(),
            text4.as_bytes(),
            "{}: 1-worker and 4-worker outputs differ",
            a.name
        );
        assert_eq!(
            text1.as_bytes(),
            text_t.as_bytes(),
            "{}: telemetry changed the rendered output",
            a.name
        );

        let actual = fnv1a64(text1.as_bytes());
        assert_eq!(
            actual,
            golden(a.name),
            "{}: rendered bytes diverged from the golden hash (got {actual:#018x})",
            a.name
        );
    }

    // Cohort replay: each replay cohort decodes its stream once. One
    // worker splits a replayed stream only to hold at most
    // `COHORT_MEMBERS` runs per cohort; four also split a stream where its
    // replays are more than a quarter of the work. A cohort's window holds
    // a sliding stretch of its stream — never more than the cap, and less
    // than the largest stream.
    let replayed = replayed_streams(&figures);
    assert!(!replayed.is_empty());
    let stream_ops =
        |runs: &[RunSpec]| u64::from(runs[0].config.n_cores) * (LENGTHS.warm + LENGTHS.measure);
    let largest = replayed.iter().map(|runs| stream_ops(runs)).max().unwrap();
    let replays: Vec<&[RunSpec]> = replayed.iter().map(|runs| &runs[1..]).collect();
    for (report, workers) in [(&serial, 1), (&parallel, 4)] {
        let cohorts = pool::cohort_groups(&replays, workers, None, |_| false).len();
        if workers == 1 {
            let capped: usize = replays
                .iter()
                .map(|runs| runs.len().div_ceil(pool::COHORT_MEMBERS))
                .sum();
            assert_eq!(cohorts, capped);
        }
        assert_eq!(
            report.streams_decoded, cohorts as u64,
            "{workers} worker(s): a replay cohort decoded its stream more than once (or never)"
        );
        assert!(
            report.window_peak_ops <= WINDOW_CAP_OPS && report.window_peak_ops < largest,
            "{workers} worker(s): a window held {} ops (largest stream {largest})",
            report.window_peak_ops
        );
    }

    // Both worker counts logged the same run set, and the stable report
    // over their stores is byte-identical.
    assert_eq!(
        runlog_keys(&dir1.join("runlog.tsv")),
        runlog_keys(&dir4.join("runlog.tsv")),
        "1-worker and 4-worker runlogs record different runs"
    );
    assert_eq!(
        stable_report(&dir1),
        stable_report(&dir4),
        "stable sweep report differs between worker counts"
    );

    let _ = std::fs::remove_dir_all(dir1);
    let _ = std::fs::remove_dir_all(dir4);
    let _ = std::fs::remove_dir_all(dir_t);
}

#[test]
fn every_figure_renders_its_golden_bytes() {
    let figures = ipsim_experiments::figures::all();
    assert_eq!(figures.len(), GOLDEN.len());
    let (report, dir) = cold_sweep(&figures, "all", 2, None);
    assert!(report.all_ok(), "sweep failed");
    assert_eq!(report.cache_hits, 0, "sweep was not cold");
    let got: Vec<(&str, u64)> = report
        .figures
        .iter()
        .map(|f| (f.name, fnv1a64(f.outcome.as_ref().unwrap().as_bytes())))
        .collect();
    let diverged: Vec<String> = got
        .iter()
        .filter(|(name, hash)| *hash != golden(name))
        .map(|(name, hash)| format!("{name} {hash:#018x}"))
        .collect();
    assert!(
        diverged.is_empty(),
        "rendered bytes diverged from the golden hashes: {}",
        diverged.join(", ")
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// Runs the real binary in `dir` with extra args, isolated via env vars.
fn all_figures_in(dir: &Path, args: &[&str]) -> std::process::Output {
    std::fs::create_dir_all(dir).unwrap();
    Command::new(env!("CARGO_BIN_EXE_all_figures"))
        .args(args)
        .current_dir(dir)
        .env("IPSIM_RUN_LENGTHS", "10000/20000")
        .env("IPSIM_CACHE_DIR", dir.join("cache"))
        .env("IPSIM_RUNLOG", dir.join("runlog.tsv"))
        .env("IPSIM_TRACE_DIR", dir.join("traces"))
        .output()
        .expect("all_figures did not run")
}

#[test]
fn the_binary_writes_golden_bytes_at_any_worker_count_and_skips_on_the_warm_rerun() {
    let root = std::env::temp_dir().join(format!("ipsim-determinism-bin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let mut figures = Vec::new();
    for jobs in ["1", "2"] {
        let dir = root.join(format!("jobs{jobs}"));
        let out = all_figures_in(&dir, &["--figures", "fig02", "--jobs", jobs]);
        assert!(
            out.status.success(),
            "--jobs {jobs} run failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let fig = std::fs::read(dir.join("results/fig02.txt")).unwrap();
        assert_eq!(
            fnv1a64(&fig),
            golden("fig02"),
            "fig02 diverged at --jobs {jobs}"
        );
        figures.push(fig);
    }
    assert_eq!(
        figures[0], figures[1],
        "worker count changed rendered bytes"
    );
    let (serial, parallel) = (root.join("jobs1"), root.join("jobs2"));
    assert_eq!(
        runlog_keys(&serial.join("runlog.tsv")),
        runlog_keys(&parallel.join("runlog.tsv"))
    );

    // Warm re-run: the manifest proves the output current; nothing renders.
    let warm = all_figures_in(&parallel, &["--figures", "fig02", "--jobs", "2"]);
    assert!(warm.status.success());
    let stdout = String::from_utf8_lossy(&warm.stdout);
    assert!(
        stdout.contains("(0 rendered, 1 unchanged)"),
        "warm rerun rendered figures:\n{stdout}"
    );
    assert_eq!(
        std::fs::read(parallel.join("results/fig02.txt")).unwrap(),
        figures[1],
        "warm rerun changed the output file"
    );

    // `report sweep --stable` over either directory produces the same bytes.
    assert_eq!(stable_report(&serial), stable_report(&parallel));

    let _ = std::fs::remove_dir_all(&root);
}
