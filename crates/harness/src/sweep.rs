//! The sweep orchestrator: collect every figure's jobs, dedup globally,
//! execute once across the pool, then render and report per figure.
//!
//! With the trace store enabled, execution ([`pool::execute`]) is
//! two-phased. Each distinct instruction stream ([`RunSpec::trace_key`]) is
//! first checked for replay (present, CRC-valid, the right length; a
//! corrupt file is quarantined) — unless every run over it will be served
//! from the run cache, in which case it is not read at all. Only for a
//! stream that cannot be replayed does the first spec needing it — its
//! *captain* — run in phase one and capture the stream to disk, longest
//! first. Phase two submits cohort jobs holding every other spec over a
//! stream; a job runs the specs the run cache cannot serve as one cohort
//! ([`TraceStore::execute_cohort`]), which steps them together over one
//! sliding decoded window. Walker generation therefore happens once per
//! workload stream per sweep, and trace decode once per cohort. A stream is
//! split into near-equal cohorts of at most [`pool::COHORT_MEMBERS`]
//! uncached runs, and further when its uncached runs are more than a
//! `1/workers` share of the phase's cost, so a pool with more workers than
//! streams keeps every worker busy; jobs are submitted longest first
//! ([`pool::cohort_groups`]). A member also decodes on its own when it
//! detaches from a window that would pass its cap.
//!
//! A window holds only the stretch between its slowest and fastest
//! member, never more than [`crate::traces::WINDOW_CAP_OPS`] ops, and
//! lives only while its job runs: a sweep holds at most one window per
//! worker, however many streams it replays.

use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Duration;

use ipsim_telemetry::TelemetryConfig;

use crate::cache::RunCache;
use crate::figure::Figure;
use crate::manifest::{self, FigureManifest, ManifestEntry};
use crate::pool;
use crate::progress::{Progress, ProgressMode};
use crate::runlog;
use crate::spec::RunSpec;
use crate::summary::Summary;
use crate::telemetry::TelemetrySink;
use crate::traces::TraceStore;
use crate::RunLengths;

/// How a sweep should run.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Warm-up / measurement windows passed to every figure.
    pub lengths: RunLengths,
    /// Worker threads for the pool.
    pub workers: usize,
    /// When set, each figure's output is also written to
    /// `<dir>/<name>.txt`.
    pub results_dir: Option<PathBuf>,
    /// Cache directory; `None` uses `$IPSIM_CACHE_DIR` / the default.
    pub cache_dir: Option<PathBuf>,
    /// Run-log path; `None` uses `$IPSIM_RUNLOG` / the default.
    pub runlog: Option<PathBuf>,
    /// Trace-store directory; `None` uses `$IPSIM_TRACE_DIR` / the
    /// default. Ignored when `traces` is false.
    pub trace_dir: Option<PathBuf>,
    /// Whether to capture/replay instruction streams at all.
    pub traces: bool,
    /// When set, every executed run collects telemetry with this config
    /// and writes a per-run artifact directory (see [`TelemetrySink`]).
    /// Telemetry never affects summaries, figures or cache keys.
    pub telemetry: Option<TelemetryConfig>,
    /// Telemetry artifact root; `None` uses `$IPSIM_TELEMETRY_DIR` / the
    /// default. Ignored when `telemetry` is `None`.
    pub telemetry_dir: Option<PathBuf>,
    /// Progress reporting mode.
    pub progress: ProgressMode,
    /// Incremental-render manifest path; `None` disables skipping and
    /// always renders every figure (the pre-manifest behaviour). See
    /// [`crate::manifest`].
    pub manifest: Option<PathBuf>,
    /// Bypass the manifest and re-render everything (`--force`). The
    /// manifest is still *updated* after rendering, so the next sweep can
    /// skip again.
    pub force: bool,
}

impl SweepOptions {
    /// Defaults for interactive use: env-resolved cache, run log and trace
    /// store, auto progress, no result files.
    pub fn new(lengths: RunLengths, workers: usize) -> SweepOptions {
        SweepOptions {
            lengths,
            workers,
            results_dir: None,
            cache_dir: None,
            runlog: None,
            trace_dir: None,
            traces: true,
            telemetry: None,
            telemetry_dir: None,
            progress: ProgressMode::Auto,
            manifest: None,
            force: false,
        }
    }

    /// The trace store these options select.
    fn trace_store(&self) -> TraceStore {
        if !self.traces {
            return TraceStore::disabled();
        }
        match &self.trace_dir {
            Some(dir) => TraceStore::at(dir.clone()),
            None => TraceStore::from_env(),
        }
    }

    /// The telemetry sink these options select, if any.
    fn telemetry_sink(&self) -> Option<TelemetrySink> {
        let config = self.telemetry.clone()?;
        Some(match &self.telemetry_dir {
            Some(dir) => TelemetrySink::at(dir.clone(), config),
            None => TelemetrySink::from_env(config),
        })
    }
}

/// One figure's outcome within a sweep.
#[derive(Debug)]
pub struct FigureReport {
    /// Figure name (`fig01`…).
    pub name: &'static str,
    /// Figure title.
    pub title: &'static str,
    /// Rendered output, or the failure reason. For a skipped figure this
    /// is the (byte-identical) text already on disk, so downstream
    /// consumers never see a gap.
    pub outcome: Result<String, String>,
    /// Whether the manifest proved the on-disk output current and the
    /// render (and its input runs) were skipped entirely.
    pub skipped: bool,
}

/// Everything a sweep did, for reporting and tests.
#[derive(Debug)]
pub struct SweepReport {
    /// Per-figure outcomes, in input order.
    pub figures: Vec<FigureReport>,
    /// Jobs requested across all figures, before dedup (skipped figures'
    /// jobs included — they were requested, then proven unnecessary).
    pub total_jobs: usize,
    /// Unique jobs after global dedup by cache key, over the figures that
    /// actually rendered (a fully-skipped sweep executes zero runs).
    pub unique_jobs: usize,
    /// Figures skipped because the manifest proved their output current.
    pub figures_skipped: usize,
    /// Disk-cache hits.
    pub cache_hits: u64,
    /// Disk-cache misses (simulated this sweep), runs of a telemetry sweep
    /// that lacked their artifact included.
    pub cache_misses: u64,
    /// Runs recorded in the runlog: cache hits and finished simulations.
    /// Fewer than `unique_jobs` only when the sweep was interrupted.
    pub runs_recorded: usize,
    /// Corrupt cache entries quarantined.
    pub quarantined: u64,
    /// Workload streams captured to the trace store.
    pub traces_captured: u64,
    /// Runs whose instruction streams were replayed from the trace store.
    pub traces_replayed: u64,
    /// Corrupt trace files quarantined.
    pub traces_quarantined: u64,
    /// Telemetry artifact directories written this sweep.
    pub telemetry_written: u64,
    /// Sweep-aggregate kernel throughput: total measured instructions over
    /// total kernel seconds across executed runs (`None` when everything
    /// came from the cache). Weighted by per-run kernel seconds, so long
    /// runs count proportionally.
    pub aggregate_sim_mips: Option<f64>,
    /// Wall time of the execution phase.
    pub wall: Duration,
    /// Whether a shutdown signal (Ctrl-C / SIGTERM) cut execution short.
    /// In-flight runs were completed and the runlog tail was flushed;
    /// figures whose runs are incomplete report errors rather than
    /// rendering from partial data. Callers should exit with code 130.
    pub interrupted: bool,
    /// Streams decoded through a cohort window: one per replay cohort, so
    /// a stream with more than [`pool::COHORT_MEMBERS`] uncached runs
    /// counts once per cohort it splits into.
    pub streams_decoded: u64,
    /// Most decoded ops one cohort window held at once; never above
    /// [`crate::traces::WINDOW_CAP_OPS`].
    pub window_peak_ops: u64,
}

impl SweepReport {
    /// Whether every figure rendered successfully.
    pub fn all_ok(&self) -> bool {
        self.figures.iter().all(|f| f.outcome.is_ok())
    }
}

/// Runs `figures` end to end: enumerate, dedup, execute, render, persist.
///
/// Figure failures (enumeration panic, simulation panic, render panic) are
/// contained per figure; the sweep always completes and the report carries
/// each failure. Worker count never affects any rendered byte, and neither
/// does the manifest: a skipped figure's reported text is the byte-identical
/// output already on disk.
pub fn run_sweep(figures: &[Figure], opts: &SweepOptions) -> SweepReport {
    // Phases 1-2: enumerate, decide skips, dedup.
    let plan_span = ipsim_obs::spans().span("sweep.plan");
    // Per-figure enumerated jobs (enumeration panics become `Err`).
    let planned: Vec<Result<Vec<RunSpec>, String>> =
        figures.iter().map(|f| f.jobs(opts.lengths)).collect();
    let total_jobs: usize = planned.iter().map(|p| p.as_ref().map_or(0, Vec::len)).sum();
    // Per-figure render fingerprint (`None` for failed enumeration).
    let fingerprints: Vec<Option<String>> = figures
        .iter()
        .zip(&planned)
        .map(|(figure, plan)| {
            let plan = plan.as_ref().ok()?;
            let keys: Vec<String> = plan.iter().map(RunSpec::cache_key).collect();
            Some(manifest::fingerprint(figure.name, figure.version, &keys))
        })
        .collect();
    // Per-figure skip decision: the on-disk text when the manifest proves
    // it current (so the report sees the bytes a render would produce),
    // `None` when the figure must render.
    let loaded = (!opts.force)
        .then(|| opts.manifest.as_deref().map(FigureManifest::load))
        .flatten()
        .unwrap_or_default();
    let skips: Vec<Option<String>> = figures
        .iter()
        .zip(&fingerprints)
        .map(|(figure, fingerprint)| {
            let output = opts
                .results_dir
                .as_ref()?
                .join(format!("{}.txt", figure.name));
            loaded.current_output(figure.name, fingerprint.as_deref()?, &output)
        })
        .collect();
    // Global dedup by cache key over figures that must render, preserving
    // first-seen order so scheduling (and thus the progress display) is
    // deterministic.
    let mut seen = HashSet::new();
    let mut unique: Vec<RunSpec> = Vec::new();
    for (plan, skip) in planned.iter().zip(&skips) {
        if skip.is_some() {
            continue;
        }
        for spec in plan.iter().flatten() {
            if seen.insert(spec.cache_key()) {
                unique.push(spec.clone());
            }
        }
    }
    drop(plan_span);

    // Phase 3: execute unique runs across the pool, captains of streams
    // that cannot be replayed first, then cohort jobs (see module docs).
    let cache = match &opts.cache_dir {
        Some(dir) => RunCache::at(dir.clone()),
        None => RunCache::from_env(),
    };
    let traces = opts.trace_store();
    let telemetry = opts.telemetry_sink();
    let progress = Progress::new(opts.progress, unique.len());
    let exec = {
        let _execute = ipsim_obs::spans().span("sweep.execute");
        pool::execute(
            &unique,
            opts.workers,
            &cache,
            &traces,
            telemetry.as_ref(),
            &progress,
        )
    };
    progress.finish();

    // Phase 4: observability — append to the run log. Failure to log is
    // not failure to sweep.
    let runlog_path = opts
        .runlog
        .clone()
        .unwrap_or_else(runlog::runlog_path_from_env);
    if let Err(e) = runlog::append(&runlog_path, opts.workers, &exec.records) {
        eprintln!("warning: could not append {}: {e}", runlog_path.display());
    }

    // Phase 5: render each non-skipped figure sequentially and persist its
    // output; record every successful render in the manifest.
    let interrupted = exec.interrupted;
    let resolve = |spec: &RunSpec| -> Result<Summary, String> {
        match exec.results.get(&spec.cache_key()) {
            Some(Ok(summary)) => Ok(summary.clone()),
            Some(Err(e)) => Err(format!("run `{}` failed: {e}", spec.label())),
            None if interrupted => Err(format!(
                "run `{}` was skipped: sweep interrupted",
                spec.label()
            )),
            None => Err(format!(
                "run `{}` was never scheduled (nondeterministic job enumeration?)",
                spec.label()
            )),
        }
    };
    let mut reports = Vec::with_capacity(figures.len());
    let mut updated = opts
        .manifest
        .as_deref()
        .map(FigureManifest::load)
        .unwrap_or_default();
    let mut manifest_dirty = false;
    let mut figures_skipped = 0;
    for (i, figure) in figures.iter().enumerate() {
        if let Some(text) = &skips[i] {
            figures_skipped += 1;
            reports.push(FigureReport {
                name: figure.name,
                title: figure.title,
                outcome: Ok(text.clone()),
                skipped: true,
            });
            continue;
        }
        let outcome = {
            let _render = ipsim_obs::spans().span("sweep.render");
            match &planned[i] {
                Err(e) => Err(e.clone()),
                Ok(_) => figure.output(opts.lengths, &resolve),
            }
        };
        if let (Some(dir), Ok(text)) = (&opts.results_dir, &outcome) {
            let path = dir.join(format!("{}.txt", figure.name));
            let write =
                std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text.as_bytes()));
            match write {
                Ok(()) => {
                    // Only a figure whose output landed on disk earns a
                    // manifest entry: the skip check re-hashes that file.
                    if let (Some(fingerprint), Ok(jobs)) = (&fingerprints[i], &planned[i]) {
                        updated.set(
                            figure.name,
                            ManifestEntry {
                                fingerprint: fingerprint.clone(),
                                output_hash: manifest::hash_hex(text.as_bytes()),
                                inputs: jobs.len(),
                            },
                        );
                        manifest_dirty = true;
                    }
                }
                Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
            }
        }
        reports.push(FigureReport {
            name: figure.name,
            title: figure.title,
            outcome,
            skipped: false,
        });
    }
    if let (Some(path), true) = (&opts.manifest, manifest_dirty) {
        if let Err(e) = updated.store(path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }

    SweepReport {
        figures: reports,
        total_jobs,
        unique_jobs: unique.len(),
        figures_skipped,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        runs_recorded: exec.records.len(),
        quarantined: cache.quarantined(),
        traces_captured: traces.captured(),
        traces_replayed: traces.replayed(),
        traces_quarantined: traces.quarantined(),
        telemetry_written: telemetry.as_ref().map_or(0, TelemetrySink::written),
        aggregate_sim_mips: progress.aggregate_sim_mips(),
        wall: exec.wall,
        interrupted,
        streams_decoded: traces.streams_decoded(),
        window_peak_ops: traces.window_peak_ops(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure::Executor;
    use ipsim_cpu::WorkloadSet;
    use ipsim_trace::Workload;
    use ipsim_types::SystemConfig;

    fn render_a(lengths: RunLengths, x: &mut Executor) -> String {
        let spec = RunSpec::new(
            SystemConfig::single_core(),
            WorkloadSet::homogeneous(Workload::Db),
            lengths,
        );
        format!("a {}\n", x(&spec).instructions)
    }

    /// Shares render_a's single job, adds one of its own.
    fn render_b(lengths: RunLengths, x: &mut Executor) -> String {
        let shared = RunSpec::new(
            SystemConfig::single_core(),
            WorkloadSet::homogeneous(Workload::Db),
            lengths,
        );
        let own = RunSpec::new(
            SystemConfig::single_core(),
            WorkloadSet::homogeneous(Workload::Web),
            lengths,
        );
        format!("b {} {}\n", x(&shared).instructions, x(&own).instructions)
    }

    fn render_broken(_: RunLengths, _: &mut Executor) -> String {
        panic!("deliberately broken figure");
    }

    fn opts(tag: &str) -> SweepOptions {
        let base = std::env::temp_dir().join(format!("ipsim-sweep-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        SweepOptions {
            lengths: RunLengths {
                warm: 1_000,
                measure: 2_000,
            },
            workers: 2,
            results_dir: Some(base.join("results")),
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

    const FIGS: [Figure; 3] = [
        Figure {
            name: "figa",
            title: "figure a",
            version: 1,
            render: render_a,
        },
        Figure {
            name: "figb",
            title: "figure b",
            version: 1,
            render: render_b,
        },
        Figure {
            name: "figx",
            title: "broken figure",
            version: 1,
            render: render_broken,
        },
    ];

    #[test]
    fn sweep_dedups_contains_failures_and_persists() {
        let opts = opts("main");
        let report = run_sweep(&FIGS, &opts);

        // 3 jobs requested, 2 unique (figa's job is shared with figb).
        assert_eq!(report.total_jobs, 3);
        assert_eq!(report.unique_jobs, 2);
        assert_eq!(report.cache_misses, 2);

        // Two distinct workload streams, both captured, neither replayed
        // (the two unique specs run different workloads).
        assert_eq!(report.traces_captured, 2);
        assert_eq!(report.traces_replayed, 0);
        assert_eq!(report.traces_quarantined, 0);
        assert!(
            report.aggregate_sim_mips.is_some_and(|m| m > 0.0),
            "executed sweeps report aggregate kernel throughput"
        );

        // The broken figure failed; the others still rendered.
        assert!(!report.all_ok());
        assert!(report.figures[0].outcome.is_ok());
        assert!(report.figures[1].outcome.is_ok());
        let err = report.figures[2].outcome.as_ref().unwrap_err();
        assert!(err.contains("deliberately broken"), "{err}");

        // Outputs were written for successful figures only.
        let dir = opts.results_dir.as_ref().unwrap();
        assert!(dir.join("figa.txt").exists());
        assert!(dir.join("figb.txt").exists());
        assert!(!dir.join("figx.txt").exists());

        // The run log recorded both unique runs with their sources.
        let log = std::fs::read_to_string(opts.runlog.as_ref().unwrap()).unwrap();
        assert_eq!(log.lines().filter(|l| !l.starts_with('#')).count(), 2);
        assert_eq!(log.lines().filter(|l| l.contains("\tcapture\t")).count(), 2);

        // A second sweep over the same cache is all hits; cache hits
        // short-circuit the trace store entirely — not even a damaged
        // trace is read.
        let trace = std::fs::read_dir(opts.trace_dir.as_ref().unwrap())
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|x| x == "itrace"))
            .unwrap();
        let mut bytes = std::fs::read(&trace).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&trace, bytes).unwrap();
        let report2 = run_sweep(&FIGS, &opts);
        assert_eq!(report2.traces_quarantined, 0);
        assert_eq!(report2.cache_hits, 2);
        assert_eq!(report2.cache_misses, 0);
        assert_eq!(report2.traces_captured, 0);
        assert_eq!(report2.traces_replayed, 0);
        assert_eq!(
            report2.aggregate_sim_mips, None,
            "all-cached sweeps simulated nothing"
        );

        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
    }

    /// Same name as `render_b`, different input set (Japp instead of Web):
    /// stands in for "one config knob changed" between two sweeps.
    fn render_b_changed(lengths: RunLengths, x: &mut Executor) -> String {
        let shared = RunSpec::new(
            SystemConfig::single_core(),
            WorkloadSet::homogeneous(Workload::Db),
            lengths,
        );
        let own = RunSpec::new(
            SystemConfig::single_core(),
            WorkloadSet::homogeneous(Workload::JApp),
            lengths,
        );
        format!("b {} {}\n", x(&shared).instructions, x(&own).instructions)
    }

    #[test]
    fn manifest_skips_unchanged_figures_and_rerenders_exactly_the_affected() {
        let mut opts = opts("manifest");
        opts.manifest = Some(
            opts.results_dir
                .as_ref()
                .unwrap()
                .join("figures/manifest.tsv"),
        );
        let working = &FIGS[..2];

        // Cold: everything renders, manifest written.
        let first = run_sweep(working, &opts);
        assert!(first.all_ok());
        assert_eq!(first.figures_skipped, 0);
        assert!(opts.manifest.as_ref().unwrap().is_file());

        // Warm, unchanged: every figure skipped, zero runs executed, and
        // the reported text still matches the cold render byte for byte.
        let warm = run_sweep(working, &opts);
        assert_eq!(warm.figures_skipped, 2);
        assert_eq!(warm.unique_jobs, 0, "skipped figures schedule no runs");
        assert_eq!(warm.cache_hits + warm.cache_misses, 0);
        for (a, b) in first.figures.iter().zip(&warm.figures) {
            assert_eq!(a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
            assert!(b.skipped);
        }

        // One figure's input set changes (a knob turned): exactly that
        // figure re-renders, the other is still skipped.
        let changed = [
            FIGS[0],
            Figure {
                name: "figb",
                title: "figure b",
                version: 1,
                render: render_b_changed,
            },
        ];
        let third = run_sweep(&changed, &opts);
        assert!(third.all_ok());
        assert_eq!(third.figures_skipped, 1);
        assert!(third.figures[0].skipped, "figa's inputs are unchanged");
        assert!(!third.figures[1].skipped, "figb's inputs changed");
        // Only figb's new run was needed; its shared Db run came from the
        // run cache, so exactly one simulation happened.
        assert_eq!(third.cache_misses, 1);

        // A renderer-version bump re-renders even with identical inputs.
        let bumped = [
            Figure {
                name: "figa",
                title: "figure a",
                version: 2,
                render: render_a,
            },
            changed[1],
        ];
        let fourth = run_sweep(&bumped, &opts);
        assert!(!fourth.figures[0].skipped, "version bump must re-render");
        assert!(fourth.figures[1].skipped);

        // --force renders everything but keeps the manifest fresh, so the
        // next plain sweep skips again.
        opts.force = true;
        let forced = run_sweep(&bumped, &opts);
        assert_eq!(forced.figures_skipped, 0);
        opts.force = false;
        let after = run_sweep(&bumped, &opts);
        assert_eq!(after.figures_skipped, 2);

        let _ = std::fs::remove_dir_all(opts.results_dir.as_ref().unwrap().parent().unwrap());
    }

    #[test]
    fn corrupt_manifest_or_tampered_output_falls_back_to_full_render() {
        let mut opts = opts("manifest-corrupt");
        let manifest_path = opts
            .results_dir
            .as_ref()
            .unwrap()
            .join("figures/manifest.tsv");
        opts.manifest = Some(manifest_path.clone());
        let working = &FIGS[..2];
        run_sweep(working, &opts);

        // Torn manifest: full render (no skips), manifest rewritten.
        std::fs::write(&manifest_path, "# ipsim-figure-manifest v1\nfiga\t00").unwrap();
        let report = run_sweep(working, &opts);
        assert_eq!(report.figures_skipped, 0, "torn manifest must not skip");
        assert!(report.all_ok());

        // Healthy again: skips resume.
        let healthy = run_sweep(working, &opts);
        assert_eq!(healthy.figures_skipped, 2);

        // A hand-edited output file is not trusted.
        let figa = opts.results_dir.as_ref().unwrap().join("figa.txt");
        std::fs::write(&figa, "tampered\n").unwrap();
        let retouched = run_sweep(working, &opts);
        assert!(!retouched.figures[0].skipped, "tampered output re-renders");
        assert!(retouched.figures[1].skipped);
        assert_ne!(std::fs::read_to_string(&figa).unwrap(), "tampered\n");

        let _ = std::fs::remove_dir_all(opts.results_dir.as_ref().unwrap().parent().unwrap());
    }

    #[test]
    fn telemetry_sweeps_write_artifacts_and_match_plain_sweeps() {
        let plain_opts = opts("telem-plain");
        let plain = run_sweep(&FIGS[..2], &plain_opts);
        assert!(plain.all_ok());
        assert_eq!(plain.telemetry_written, 0);

        let mut telem_opts = opts("telem-on");
        telem_opts.telemetry = Some(TelemetryConfig {
            interval: 500,
            max_events_per_core: 4_096,
        });
        let report = run_sweep(&FIGS[..2], &telem_opts);
        assert!(report.all_ok());
        assert_eq!(report.telemetry_written, 2, "one artifact per unique run");

        // Figure bytes are identical with telemetry on.
        for (a, b) in plain.figures.iter().zip(&report.figures) {
            assert_eq!(a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
        }

        // Artifacts landed under the telemetry root with complete markers.
        let root = telem_opts.telemetry_dir.as_ref().unwrap();
        let dirs: Vec<_> = std::fs::read_dir(root)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(dirs.len(), 2);
        for dir in &dirs {
            assert!(dir.join(crate::telemetry::META_FILE).is_file());
            assert!(dir.join("events.jsonl").is_file());
            assert!(dir.join("trace.json").is_file());
            assert!(dir.join("series.tsv").is_file());
            assert!(dir.join("pf_summary.tsv").is_file());
        }

        // A repeat sweep finds every artifact in place: all cache hits,
        // nothing rewritten.
        let repeat = run_sweep(&FIGS[..2], &telem_opts);
        assert_eq!(repeat.cache_hits, 2);
        assert_eq!(repeat.telemetry_written, 0);

        let _ = std::fs::remove_dir_all(root.parent().unwrap());
        let _ = std::fs::remove_dir_all(plain_opts.results_dir.as_ref().unwrap().parent().unwrap());
    }

    #[test]
    fn telemetry_sweeps_count_every_run_as_cached_or_simulated() {
        let mut opts = opts("telem-counts");
        opts.telemetry = Some(TelemetryConfig {
            interval: 500,
            max_events_per_core: 1_024,
        });

        // Cold: no artifact and no cache entry, so every unique run is
        // simulated.
        let cold = run_sweep(&FIGS[..2], &opts);
        assert!(cold.all_ok());
        assert_eq!(cold.unique_jobs, 2);
        assert_eq!((cold.cache_hits, cold.cache_misses), (0, 2));
        assert_eq!(cold.runs_recorded, 2);

        // Warm with every artifact in place: every run is cached.
        let warm = run_sweep(&FIGS[..2], &opts);
        assert_eq!((warm.cache_hits, warm.cache_misses), (2, 0));
        assert_eq!(warm.runs_recorded, 2);

        // Cache entries present but artifacts gone: the runs simulate
        // again to write them, and count as simulated.
        let root = opts.telemetry_dir.as_ref().unwrap();
        std::fs::remove_dir_all(root).unwrap();
        let rewrite = run_sweep(&FIGS[..2], &opts);
        assert_eq!((rewrite.cache_hits, rewrite.cache_misses), (0, 2));
        assert_eq!(rewrite.telemetry_written, 2);

        let _ = std::fs::remove_dir_all(root.parent().unwrap());
    }
}
