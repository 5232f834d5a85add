//! The sharded sweep's core guarantee: shard count never changes a
//! rendered byte, a cached result, or a stable report.
//!
//! The library-level property runs the full shard protocol (every shard's
//! execution pass, then the merge sweep) for N ∈ {1, 2, 4, 7} and pins
//! the rendered figures to the same golden FNV-1a hashes the worker-count
//! determinism test uses — so sharding is held to the exact bytes of the
//! pre-rewrite kernel, not merely to self-consistency. The process-level
//! test drives the real `all_figures` binary with `--shards`, covering
//! the re-exec path (`--shard-exec` children, shared cache merge) and the
//! warm-rerun manifest skip.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use ipsim_experiments::report::{render_report, ReportOptions};
use ipsim_harness::hash::fnv1a64;
use ipsim_harness::shard::ShardSpec;
use ipsim_harness::{run_shard, run_sweep, Figure, ProgressMode, RunLengths, SweepOptions};

/// Same goldens as `tests/determinism.rs`: rendered bytes at
/// warm=10_000 / measure=20_000 must match the pre-rewrite kernel.
const GOLDEN: [(&str, u64); 2] = [
    ("fig02", 0xE0C2_1790_1C1A_F0A1),
    ("fig05", 0x8B34_D941_5818_8E70),
];

const LENGTHS: RunLengths = RunLengths {
    warm: 10_000,
    measure: 20_000,
};

fn test_figures() -> Vec<Figure> {
    let figures: Vec<Figure> = ipsim_experiments::figures::all()
        .into_iter()
        .filter(|f| f.name == "fig02" || f.name == "fig05")
        .collect();
    assert_eq!(figures.len(), 2);
    figures
}

fn opts_at(base: &Path) -> SweepOptions {
    SweepOptions {
        lengths: LENGTHS,
        workers: 2,
        results_dir: None,
        cache_dir: Some(base.join("cache")),
        runlog: Some(base.join("runlog.tsv")),
        trace_dir: Some(base.join("traces")),
        traces: true,
        telemetry: None,
        telemetry_dir: Some(base.join("telemetry")),
        progress: ProgressMode::Silent,
        manifest: None,
        force: false,
    }
}

/// The set of run keys a runlog records (ignoring comments and order).
fn runlog_keys(path: &Path) -> BTreeSet<String> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("runlog {} unreadable: {e}", path.display());
    });
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let fields: Vec<&str> = l.split('\t').collect();
            assert_eq!(fields.len(), 15, "not a v5 runlog row: {l}");
            fields[13].to_string()
        })
        .collect()
}

#[test]
fn every_shard_count_reproduces_the_golden_bytes_and_the_stable_report() {
    let figures = test_figures();
    let mut key_sets: Vec<BTreeSet<String>> = Vec::new();
    let mut stable_reports: Vec<String> = Vec::new();

    for count in [1usize, 2, 4, 7] {
        let base =
            std::env::temp_dir().join(format!("ipsim-sharding-{count}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let opts = opts_at(&base);

        // Execution pass: every shard in turn (one process stands in for
        // N — the partition, not the process boundary, is what's under
        // test; the process boundary is covered below).
        let mut assigned = 0;
        let mut misses = 0;
        for index in 0..count {
            let report = run_shard(&figures, &opts, ShardSpec { index, count });
            assert!(!report.interrupted);
            assigned += report.assigned;
            misses += report.cache_misses;
        }
        assert_eq!(assigned, misses as usize, "shards must start cold");

        // Merge pass renders everything from the shared cache.
        let merged = run_sweep(&figures, &opts);
        assert!(merged.all_ok(), "merge sweep failed at {count} shards");
        assert_eq!(
            merged.cache_misses, 0,
            "{count} shards left runs unsimulated"
        );
        assert_eq!(assigned, merged.unique_jobs, "shards must cover the sweep");

        for fig in &merged.figures {
            let (_, golden) = GOLDEN
                .iter()
                .find(|(name, _)| *name == fig.name)
                .expect("figure missing from GOLDEN table");
            let actual = fnv1a64(fig.outcome.as_ref().unwrap().as_bytes());
            assert_eq!(
                actual, *golden,
                "{} at {count} shards diverged (got hash {actual:#018x})",
                fig.name
            );
        }

        key_sets.push(runlog_keys(&opts.runlog.clone().unwrap()));
        let report_opts = ReportOptions {
            runlog: opts.runlog.clone().unwrap(),
            cache_dir: opts.cache_dir.clone().unwrap(),
            telemetry_dir: opts.telemetry_dir.clone().unwrap(),
            stable: true,
        };
        stable_reports.push(render_report(&report_opts).unwrap());

        let _ = std::fs::remove_dir_all(&base);
    }

    // The merged runlog records the same run set at every shard count...
    for (i, keys) in key_sets.iter().enumerate().skip(1) {
        assert_eq!(
            keys, &key_sets[0],
            "runlog key set differs between shard counts (index {i})"
        );
    }
    // ...and the stable report is byte-identical.
    for (i, report) in stable_reports.iter().enumerate().skip(1) {
        assert_eq!(
            report, &stable_reports[0],
            "stable sweep report differs between shard counts (index {i})"
        );
    }
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
fn the_binary_shards_across_processes_and_skips_on_the_warm_rerun() {
    let root = std::env::temp_dir().join(format!("ipsim-sharding-bin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let common = ["--figures", "fig02", "--jobs", "1"];
    let solo_dir = root.join("solo");
    let solo = all_figures_in(&solo_dir, &common);
    assert!(
        solo.status.success(),
        "--shards 1 run failed:\n{}",
        String::from_utf8_lossy(&solo.stderr)
    );

    let sharded_dir = root.join("sharded");
    let sharded = all_figures_in(&sharded_dir, &[&common[..], &["--shards", "2"]].concat());
    assert!(
        sharded.status.success(),
        "--shards 2 run failed:\n{}",
        String::from_utf8_lossy(&sharded.stderr)
    );

    // The figure on disk is byte-identical and matches the golden hash.
    let solo_fig = std::fs::read(solo_dir.join("results/fig02.txt")).unwrap();
    let sharded_fig = std::fs::read(sharded_dir.join("results/fig02.txt")).unwrap();
    assert_eq!(solo_fig, sharded_fig, "shard count changed rendered bytes");
    assert_eq!(fnv1a64(&sharded_fig), GOLDEN[0].1, "fig02 diverged");

    // Both processes logged the same run set; the sharded log carries
    // shard batch markers (the child really executed).
    assert_eq!(
        runlog_keys(&solo_dir.join("runlog.tsv")),
        runlog_keys(&sharded_dir.join("runlog.tsv")),
    );
    let sharded_log = std::fs::read_to_string(sharded_dir.join("runlog.tsv")).unwrap();
    assert!(
        sharded_log.lines().any(|l| l.starts_with("# batch shard ")),
        "no shard batch markers in:\n{sharded_log}"
    );

    // Warm re-run: the manifest proves the output current; nothing renders.
    let warm = all_figures_in(&sharded_dir, &[&common[..], &["--shards", "2"]].concat());
    assert!(warm.status.success());
    let stdout = String::from_utf8_lossy(&warm.stdout);
    assert!(
        stdout.contains("(0 rendered, 1 unchanged)"),
        "warm rerun rendered figures:\n{stdout}"
    );
    assert_eq!(
        std::fs::read(sharded_dir.join("results/fig02.txt")).unwrap(),
        sharded_fig,
        "warm rerun changed the output file"
    );

    // `report sweep --stable` over either directory produces the same bytes.
    let report = |dir: &PathBuf| {
        let opts = ReportOptions {
            runlog: dir.join("runlog.tsv"),
            cache_dir: dir.join("cache"),
            telemetry_dir: dir.join("telemetry"),
            stable: true,
        };
        render_report(&opts).unwrap()
    };
    assert_eq!(report(&solo_dir), report(&sharded_dir));

    let _ = std::fs::remove_dir_all(&root);
}
