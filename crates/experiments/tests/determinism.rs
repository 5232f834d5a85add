//! The scheduler's core guarantee: worker count never changes a figure's
//! rendered bytes. Both sweeps here start from cold caches, so the 1-worker
//! and 4-worker runs each simulate everything themselves.
//!
//! On top of the worker-count comparison, the rendered bytes are pinned to
//! golden FNV-1a hashes captured before the data-oriented kernel rewrite
//! (flat cache sets, batched dispatch, bounded prefetch-source table). Any
//! change to simulated behaviour — however subtle — flips a hash; perf work
//! on the hot path must keep these green.
//!
//! The same property is pinned end to end, too: the runlogs of both
//! worker counts record the same run set and render the same stable
//! `report sweep` view, and the real `all_figures` binary writes the
//! golden fig02 bytes with `--jobs 1` and `--jobs 2` alike.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;

use ipsim_experiments::report::{render_report, ReportOptions};
use ipsim_harness::hash::fnv1a64;
use ipsim_harness::traces::WINDOW_CAP_OPS;
use ipsim_harness::{
    pool, run_sweep, Figure, ProgressMode, RunLengths, RunSpec, SweepOptions, SweepReport,
};
use ipsim_telemetry::TelemetryConfig;

/// Golden output hashes at warm=10_000 / measure=20_000, captured from the
/// pre-rewrite `Vec<Entry>`/`HashMap` simulation kernel. The kernel rewrite
/// must reproduce these bytes exactly.
const GOLDEN: [(&str, u64); 2] = [
    ("fig02", 0xE0C2_1790_1C1A_F0A1),
    ("fig05", 0x8B34_D941_5818_8E70),
];

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
    let mut streams: BTreeMap<String, BTreeMap<String, RunSpec>> = BTreeMap::new();
    for figure in figures {
        for spec in figure.jobs(LENGTHS).expect("jobs enumerate") {
            let runs = streams.entry(spec.trace_key()).or_default();
            runs.insert(spec.cache_key(), spec);
        }
    }
    streams
        .into_values()
        .filter(|runs| runs.len() > 1)
        .map(|runs| runs.into_values().collect())
        .collect()
}

/// The set of run keys a runlog records (ignoring comments and order).
fn runlog_keys(path: &Path) -> BTreeSet<String> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("runlog {} unreadable: {e}", path.display()));
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let fields: Vec<&str> = l.split('\t').collect();
            assert_eq!(fields.len(), 15, "not a v5 runlog row: {l}");
            fields[13].to_string()
        })
        .collect()
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

        let (_, golden) = GOLDEN
            .iter()
            .find(|(name, _)| *name == a.name)
            .expect("figure missing from GOLDEN table");
        let actual = fnv1a64(text1.as_bytes());
        assert_eq!(
            actual, *golden,
            "{}: rendered bytes diverged from the pre-rewrite kernel \
             (got hash {actual:#018x})",
            a.name
        );
    }

    // Cohort replay: each replay cohort decodes its stream once. One
    // worker runs each replayed stream as one cohort; four split a stream
    // only where its replays are more than a quarter of the work. A
    // cohort's window holds a sliding stretch of its stream — never more
    // than the cap, and less than the largest stream.
    let replayed = replayed_streams(&figures);
    assert!(!replayed.is_empty());
    let stream_ops =
        |runs: &[RunSpec]| u64::from(runs[0].config.n_cores) * (LENGTHS.warm + LENGTHS.measure);
    let largest = replayed.iter().map(|runs| stream_ops(runs)).max().unwrap();
    let replays: Vec<RunSpec> = replayed
        .iter()
        .flat_map(|runs| runs[1..].to_vec())
        .collect();
    for (report, workers) in [(&serial, 1), (&parallel, 4)] {
        let cohorts = pool::cohort_groups(&replays, workers, None, |_| false).len();
        if workers == 1 {
            assert_eq!(cohorts, replayed.len());
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
            GOLDEN[0].1,
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
