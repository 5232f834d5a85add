//! The deterministic worker pool: jobs fan out across hand-rolled
//! `std::thread` workers (no runtime dependencies). A job is a group of
//! runs over one instruction stream, which the trace store executes as one
//! cohort ([`TraceStore::execute_cohort`]); [`execute`] makes every run
//! its own job.
//!
//! Determinism argument: each simulation is single-threaded and fully
//! seeded, every [`RunSpec`] in a batch is unique (the scheduler dedups by
//! cache key before calling [`execute`]), and results are collected into
//! per-run slots by index. Replay feeds a core the same stream live
//! generation would (enforced by the stream integration test), and a
//! cohort member steps exactly as a lone run does, so the trace store
//! affects only wall time too. Worker count and trace availability
//! therefore never change results — which the determinism integration
//! test pins down.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ipsim_telemetry::TelemetryConfig;

use crate::cache::RunCache;
use crate::progress::Progress;
use crate::runlog::RunRecord;
use crate::spec::RunSpec;
use crate::summary::Summary;
use crate::telemetry::TelemetrySink;
use crate::traces::{RunSource, SystemSlot, TraceStore, TracedRun};

/// Outcome of executing one batch of unique specs.
pub struct ExecReport {
    /// Result per cache key: the summary, or the panic message of a run
    /// that died.
    pub results: HashMap<String, Result<Summary, String>>,
    /// One record per *completed* spec, in input order. Shorter than the
    /// input only when the batch was interrupted.
    pub records: Vec<RunRecord>,
    /// Wall time of the whole batch.
    pub wall: Duration,
    /// Whether a shutdown signal cut the batch short ([`ipsim_signal`]):
    /// runs in flight that were measuring finished, and runs still
    /// warming up or never claimed were never recorded.
    pub interrupted: bool,
}

/// A run's result slot: filled exactly once by the worker that runs it.
type RunSlot = Mutex<Option<(Result<Summary, String>, RunRecord)>>;

/// Runs every spec (assumed unique) across `workers` threads, each as its
/// own job: [`execute_groups`] over groups of one.
pub fn execute(
    specs: &[RunSpec],
    workers: usize,
    cache: &RunCache,
    traces: &TraceStore,
    telemetry: Option<&TelemetrySink>,
    progress: &Progress,
) -> ExecReport {
    let groups: Vec<&[RunSpec]> = specs.chunks(1).collect();
    execute_groups(&groups, workers, cache, traces, telemetry, progress)
}

/// Most telemetry events the members of one cohort may buffer together,
/// summed over their cores' [`TelemetryConfig::max_events_per_core`]:
/// 2 Mi events, 48 MiB of `PfEvent`s. Every member of a cohort is alive
/// until it ends, so with telemetry on [`cohort_groups`] caps a cohort at
/// this many events' worth of members — two CMP-4 or eight single-core
/// runs at the default 262 144 events per core — where a lone run holds
/// one run's buffers.
pub const COHORT_TELEMETRY_EVENTS: u64 = 1 << 21;

/// Groups `specs` into cohort jobs for [`execute_groups`]: one group per
/// stream ([`RunSpec::trace_key`], in first-seen order), split into
/// consecutive near-equal parts when the stream's uncached work is more
/// than a `1/workers` share of the batch's, or when `telemetry` is on and
/// its runs' event buffers would pass [`COHORT_TELEMETRY_EVENTS`]. A
/// run's work is its op count over all cores; a run `cached` serves
/// costs nothing and joins its stream's first part. So a pool with more
/// workers than streams still has a job for every worker, and no job
/// carries more than its share unless it is a single run; each part
/// decodes the stream once, so without telemetry a batch decodes at most
/// `streams + workers` times. One worker never splits a stream for work.
pub fn cohort_groups(
    specs: &[RunSpec],
    workers: usize,
    telemetry: Option<&TelemetryConfig>,
    cached: impl Fn(&RunSpec) -> bool,
) -> Vec<Vec<RunSpec>> {
    // Each stream's (cached, uncached) specs, in first-seen stream order.
    let mut streams: Vec<(Vec<RunSpec>, Vec<RunSpec>)> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    for spec in specs {
        let at = *index.entry(spec.trace_key()).or_insert_with(|| {
            streams.push((Vec::new(), Vec::new()));
            streams.len() - 1
        });
        let (hits, misses) = &mut streams[at];
        if cached(spec) {
            hits.push(spec.clone());
        } else {
            misses.push(spec.clone());
        }
    }
    // A stream's specs share core count and run lengths, so its uncached
    // runs cost the same.
    let run_ops = |spec: &RunSpec| {
        u64::from(spec.config.n_cores) * (spec.lengths.warm + spec.lengths.measure)
    };
    let work = |misses: &[RunSpec]| misses.first().map_or(0, run_ops) * misses.len() as u64;
    let total: u64 = streams.iter().map(|(_, misses)| work(misses)).sum();
    let workers = workers.max(1) as u64;
    let mut groups = Vec::with_capacity(streams.len());
    for (mut hits, misses) in streams {
        // ceil(work / (total / workers)), at least 1.
        let share = if total == 0 {
            1
        } else {
            (work(&misses) * workers).div_ceil(total).max(1)
        };
        let members = telemetry
            .zip(misses.first())
            .map_or(u64::MAX, |(config, spec)| {
                let events = u64::from(spec.config.n_cores) * config.max_events_per_core as u64;
                (COHORT_TELEMETRY_EVENTS / events.max(1)).max(1)
            });
        let runs = misses.len().max(1) as u64;
        let parts = share.max(runs.div_ceil(members)).min(runs) as usize;
        let (size, extra) = (misses.len() / parts, misses.len() % parts);
        let mut rest = &misses[..];
        for part in 0..parts {
            let (head, tail) = rest.split_at(size + usize::from(part < extra));
            rest = tail;
            let mut group = std::mem::take(&mut hits);
            group.extend_from_slice(head);
            groups.push(group);
        }
    }
    groups
}

/// Runs every group (specs assumed unique; a group's specs share one
/// [`RunSpec::trace_key`]) across `workers` threads, one job per group,
/// consulting and updating `cache`, and capturing/replaying instruction
/// streams through `traces`: a group's uncached specs run as one cohort.
/// With a `telemetry` sink, every run additionally collects telemetry and
/// writes a per-run artifact — a run whose artifact is missing bypasses
/// the run cache so there is something to write. Panicking simulations
/// are contained: they mark their own spec failed and the batch
/// continues. Results and records follow the groups' flattened order.
///
/// When a shutdown signal arrives ([`ipsim_signal::triggered`]), workers
/// claim no further jobs, and a cohort in flight finishes only its
/// members already measuring ([`TraceStore::execute_cohort`]): runs that
/// finished are cached and recorded as usual, the report
/// carries a record for every completed run and `interrupted = true`, so
/// the caller can flush the runlog tail before exiting.
pub fn execute_groups(
    groups: &[&[RunSpec]],
    workers: usize,
    cache: &RunCache,
    traces: &TraceStore,
    telemetry: Option<&TelemetrySink>,
    progress: &Progress,
) -> ExecReport {
    let started = Instant::now();
    let mut offsets = Vec::with_capacity(groups.len());
    let mut n = 0;
    for group in groups {
        offsets.push(n);
        n += group.len();
    }
    let slots: Vec<RunSlot> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = workers.clamp(1, groups.len().max(1));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // One reusable simulator per worker: a run over the same
                // system configuration as the last one handed back resets
                // it in place instead of re-allocating. A panicking run
                // abandons its system, so a later run builds fresh.
                let mut slot = SystemSlot::new();
                loop {
                    if ipsim_signal::triggered() {
                        break;
                    }
                    let g = next.fetch_add(1, Ordering::Relaxed);
                    if g >= groups.len() {
                        break;
                    }
                    run_group(
                        groups[g],
                        cache,
                        traces,
                        telemetry,
                        &mut slot,
                        &mut |i, outcome| {
                            progress.on_run(&outcome.1);
                            *slots[offsets[g] + i].lock().unwrap() = Some(outcome);
                        },
                    );
                }
            });
        }
    });

    let mut results = HashMap::with_capacity(n);
    let mut records = Vec::with_capacity(n);
    for slot in slots {
        // On an interrupted batch, only runs never claimed or never
        // finished leave their slots empty.
        if let Some((result, record)) = slot.into_inner().unwrap() {
            results.insert(record.key.clone(), result);
            records.push(record);
        }
    }
    let interrupted = records.len() < n;
    if interrupted {
        debug_assert!(
            ipsim_signal::triggered(),
            "a slot can only be empty after an interrupt"
        );
    }
    ExecReport {
        results,
        records,
        wall: started.elapsed(),
        interrupted,
    }
}

/// Executes one group: a cache lookup per spec, then every spec without a
/// usable cache entry as one cohort through the trace store; each run
/// that ends stores its summary and — when a telemetry sink is active —
/// writes its artifact. A cache hit is only taken when the sink already
/// has this run's artifact (or there is no sink): summaries are
/// cacheable, telemetry is not, so a run without its artifact counts as
/// a miss and simulates. `emit(index in group, outcome)` is called once
/// per run as it ends.
fn run_group(
    specs: &[RunSpec],
    cache: &RunCache,
    traces: &TraceStore,
    telemetry: Option<&TelemetrySink>,
    slot: &mut SystemSlot,
    emit: &mut dyn FnMut(usize, (Result<Summary, String>, RunRecord)),
) {
    let _run_span = ipsim_obs::spans().span("harness.run");
    let mut cohort: Vec<usize> = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let t0 = Instant::now();
        let key = spec.cache_key();
        let need_artifact = telemetry.is_some_and(|sink| !sink.has(&key));
        let hit = if need_artifact {
            cache.bypass();
            None
        } else {
            cache.lookup(spec)
        };
        let Some(summary) = hit else {
            cohort.push(i);
            continue;
        };
        let record = RunRecord {
            key,
            label: spec.label(),
            source: RunSource::Cache,
            ok: true,
            wall_s: t0.elapsed().as_secs_f64(),
            sim_instructions: 0,
            mips: 0.0,
            sim_mips: 0.0,
            sim_s: 0.0,
            decode_mips: 0.0,
            l1i_mpi: summary.l1i_mpi,
            iv_mpki: 0.0,
            telemetry_events: 0,
        };
        emit(i, (Ok(summary), record));
    }
    let members: Vec<&RunSpec> = cohort.iter().map(|&i| &specs[i]).collect();
    let config = telemetry.map(|sink| sink.config().clone());
    traces.execute_cohort(&members, config.as_ref(), slot, &mut |m, run| {
        let i = cohort[m];
        emit(i, finish_run(&specs[i], run, cache, telemetry));
    });
}

/// Stores an executed run's summary and telemetry artifact and builds its
/// record.
fn finish_run(
    spec: &RunSpec,
    run: Result<TracedRun, String>,
    cache: &RunCache,
    telemetry: Option<&TelemetrySink>,
) -> (Result<Summary, String>, RunRecord) {
    let t0 = Instant::now();
    let key = spec.cache_key();
    let (result, source, sim_mips, sim_s, decode_mips, run_s, collected) = match run {
        Ok(run) => (
            Ok(run.summary),
            run.source,
            run.sim_mips,
            run.sim_seconds,
            run.decode_mips,
            run.run_seconds,
            run.telemetry,
        ),
        Err(e) => (Err(e), RunSource::Live, 0.0, 0.0, 0.0, 0.0, None),
    };
    if let Ok(summary) = &result {
        cache.store(spec, summary);
    }
    let (mut iv_mpki, mut telemetry_events) = (0.0, 0);
    if let (Some(sink), Some(collected)) = (telemetry, &collected) {
        iv_mpki = collected.last_interval_l1i_mpki().unwrap_or(0.0);
        telemetry_events = collected.total_events() as u64;
        if let Err(e) = sink.write(spec, collected) {
            eprintln!("warning: could not write telemetry artifact for {key}: {e}");
        }
    }
    let wall_s = run_s + t0.elapsed().as_secs_f64();
    let sim_instructions =
        (spec.lengths.warm + spec.lengths.measure) * u64::from(spec.config.n_cores);
    let record = RunRecord {
        key,
        label: spec.label(),
        source,
        ok: result.is_ok(),
        wall_s,
        sim_instructions,
        mips: if wall_s > 0.0 {
            sim_instructions as f64 / 1e6 / wall_s
        } else {
            0.0
        },
        sim_mips,
        sim_s,
        decode_mips,
        l1i_mpi: result.as_ref().map(|s| s.l1i_mpi).unwrap_or(0.0),
        iv_mpki,
        telemetry_events,
    };
    (result, record)
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "panicked with a non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::ProgressMode;
    use crate::RunLengths;
    use ipsim_cpu::WorkloadSet;
    use ipsim_trace::Workload;
    use ipsim_types::SystemConfig;

    fn tiny_specs() -> Vec<RunSpec> {
        let lengths = RunLengths {
            warm: 2_000,
            measure: 5_000,
        };
        Workload::ALL
            .iter()
            .map(|w| {
                RunSpec::new(
                    SystemConfig::single_core(),
                    WorkloadSet::homogeneous(*w),
                    lengths,
                )
            })
            .collect()
    }

    fn tmp_cache(tag: &str) -> RunCache {
        let dir =
            std::env::temp_dir().join(format!("ipsim-pool-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        RunCache::at(dir)
    }

    #[test]
    fn pool_results_are_independent_of_worker_count() {
        let specs = tiny_specs();
        let cache1 = tmp_cache("w1");
        let cache4 = tmp_cache("w4");
        let traces = TraceStore::disabled();
        let p = Progress::new(ProgressMode::Silent, specs.len());
        let serial = execute(&specs, 1, &cache1, &traces, None, &p);
        let p = Progress::new(ProgressMode::Silent, specs.len());
        let parallel = execute(&specs, 4, &cache4, &traces, None, &p);
        for spec in &specs {
            let key = spec.cache_key();
            assert_eq!(
                serial.results[&key].as_ref().unwrap(),
                parallel.results[&key].as_ref().unwrap(),
                "worker count changed the result of {}",
                spec.label()
            );
        }
        assert_eq!(cache1.misses(), specs.len() as u64);
        assert_eq!(cache4.misses(), specs.len() as u64);
        let _ = std::fs::remove_dir_all(cache1.dir());
        let _ = std::fs::remove_dir_all(cache4.dir());
    }

    #[test]
    fn second_batch_is_served_from_cache() {
        let specs = tiny_specs();
        let cache = tmp_cache("rerun");
        let traces = TraceStore::disabled();
        let p = Progress::new(ProgressMode::Silent, specs.len());
        let cold = execute(&specs, 2, &cache, &traces, None, &p);
        assert!(cold.records.iter().all(|r| !r.cached() && r.ok));
        assert!(cold
            .records
            .iter()
            .all(|r| r.source == RunSource::Live && r.mips > 0.0));
        let p = Progress::new(ProgressMode::Silent, specs.len());
        let warm = execute(&specs, 2, &cache, &traces, None, &p);
        assert!(warm
            .records
            .iter()
            .all(|r| r.cached() && r.source == RunSource::Cache && r.ok));
        for spec in &specs {
            let key = spec.cache_key();
            assert_eq!(
                cold.results[&key].as_ref().unwrap(),
                warm.results[&key].as_ref().unwrap()
            );
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn records_preserve_input_order() {
        let specs = tiny_specs();
        let cache = tmp_cache("order");
        let traces = TraceStore::disabled();
        let p = Progress::new(ProgressMode::Silent, specs.len());
        let report = execute(&specs, 3, &cache, &traces, None, &p);
        let got: Vec<String> = report.records.iter().map(|r| r.key.clone()).collect();
        let want: Vec<String> = specs.iter().map(|s| s.cache_key()).collect();
        assert_eq!(got, want);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn telemetry_bypasses_cache_until_the_artifact_exists() {
        let spec = RunSpec::new(
            SystemConfig::single_core(),
            WorkloadSet::homogeneous(Workload::Db),
            RunLengths {
                warm: 2_000,
                measure: 5_000,
            },
        )
        .prefetcher(ipsim_core::PrefetcherKind::NextLineTagged);
        let key = spec.cache_key();
        let specs = vec![spec];
        let cache = tmp_cache("telem");
        let traces = TraceStore::disabled();
        let root = std::env::temp_dir().join(format!("ipsim-pool-telem-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let sink = TelemetrySink::at(&root, TelemetryConfig::default());

        // Cold: simulated, artifact written, record carries event count.
        let p = Progress::new(ProgressMode::Silent, 1);
        let first = execute(&specs, 1, &cache, &traces, Some(&sink), &p);
        assert_eq!(first.records[0].source, RunSource::Live);
        assert!(first.records[0].telemetry_events > 0);
        assert!(first.records[0].l1i_mpi > 0.0);
        assert!(sink.has(&key));

        // Artifact present: the warm cache may serve the summary.
        let p = Progress::new(ProgressMode::Silent, 1);
        let second = execute(&specs, 1, &cache, &traces, Some(&sink), &p);
        assert!(second.records[0].cached());
        assert!(second.records[0].l1i_mpi > 0.0, "cache hits report l1i_mpi");

        // Artifact deleted: the cache is bypassed so it can be rewritten.
        let _ = std::fs::remove_dir_all(sink.dir_for(&key));
        let p = Progress::new(ProgressMode::Silent, 1);
        let third = execute(&specs, 1, &cache, &traces, Some(&sink), &p);
        assert!(!third.records[0].cached());
        assert!(sink.has(&key));
        assert_eq!(
            first.results[&key].as_ref().unwrap(),
            third.results[&key].as_ref().unwrap(),
            "telemetry re-run changed the result"
        );

        let _ = std::fs::remove_dir_all(&root);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// A stream is one job unless its uncached runs are more than a
    /// `1/workers` share of the batch: then it splits into near-equal
    /// parts, cached runs joining the first.
    #[test]
    fn cohort_groups_split_a_stream_only_past_its_share() {
        let variants = |w: Workload, n: u64| -> Vec<RunSpec> {
            (1..=n)
                .map(|q| {
                    let mut spec = RunSpec::new(
                        SystemConfig::single_core(),
                        WorkloadSet::homogeneous(w),
                        RunLengths {
                            warm: 2_000,
                            measure: 5_000,
                        },
                    );
                    spec.config.sched_quantum = q;
                    spec
                })
                .collect()
        };
        let (a, b) = (variants(Workload::Db, 12), variants(Workload::Web, 2));
        let specs: Vec<RunSpec> = a.iter().chain(&b).cloned().collect();
        let shape =
            |groups: &[Vec<RunSpec>]| -> Vec<usize> { groups.iter().map(Vec::len).collect() };
        let none = |_: &RunSpec| false;
        for workers in [1, 2, 4, 16] {
            let groups = cohort_groups(&specs, workers, None, none);
            for group in &groups {
                assert!(group.iter().all(|s| s.trace_key() == group[0].trace_key()));
            }
            let flat: Vec<String> = groups.iter().flatten().map(RunSpec::cache_key).collect();
            let want: Vec<String> = specs.iter().map(RunSpec::cache_key).collect();
            assert_eq!(flat, want, "{workers} workers reordered the runs");
        }
        assert_eq!(shape(&cohort_groups(&specs, 1, None, none)), [12, 2]);
        assert_eq!(shape(&cohort_groups(&specs, 2, None, none)), [6, 6, 2]);
        assert_eq!(
            shape(&cohort_groups(&specs, 4, None, none)),
            [3, 3, 3, 3, 2]
        );
        assert_eq!(shape(&cohort_groups(&specs, 16, None, none)), [1; 14]);
        // Half of the big stream is cached: its work halves.
        let cached = |s: &RunSpec| s.trace_key() == a[0].trace_key() && s.config.sched_quantum <= 6;
        let groups = cohort_groups(&specs, 4, None, cached);
        assert_eq!(shape(&groups), [8, 2, 2, 2]);
        assert!(groups[0][..6].iter().all(cached));
        // Telemetry caps a single-core cohort at eight members' buffers.
        let telemetry = TelemetryConfig::default();
        let groups = cohort_groups(&specs, 1, Some(&telemetry), none);
        assert_eq!(shape(&groups), [6, 6, 2]);
    }

    /// A group runs as one cohort: a member that panics is recorded
    /// failed, and the others finish, replay and are cached.
    #[test]
    fn a_panicking_cohort_member_fails_alone() {
        let base = tiny_specs().swap_remove(0);
        let mut broken = base.clone();
        broken.config.core.issue_width = 0;
        let nl = base
            .clone()
            .prefetcher(ipsim_core::PrefetcherKind::NextLineTagged);
        assert_eq!(broken.trace_key(), base.trace_key());
        assert_eq!(nl.trace_key(), base.trace_key());

        let dir = std::env::temp_dir().join(format!("ipsim-pool-cohort-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = tmp_cache("cohort");
        let traces = TraceStore::at(&dir);
        let p = Progress::new(ProgressMode::Silent, 1);
        let first = execute(std::slice::from_ref(&base), 1, &cache, &traces, None, &p);
        assert_eq!(first.records[0].source, RunSource::Capture);

        let group = [base.clone(), broken.clone(), nl.clone()];
        let p = Progress::new(ProgressMode::Silent, group.len());
        let report = execute_groups(&[&group[..]], 1, &cache, &traces, None, &p);
        let sources: Vec<(RunSource, bool)> =
            report.records.iter().map(|r| (r.source, r.ok)).collect();
        assert_eq!(
            sources,
            [
                (RunSource::Cache, true),
                (RunSource::Live, false),
                (RunSource::Replay, true)
            ]
        );
        let err = report.results[&broken.cache_key()].as_ref().unwrap_err();
        assert!(err.contains("experiment configuration is valid"), "{err}");
        assert_eq!(
            report.results[&nl.cache_key()].as_ref().unwrap(),
            &nl.execute()
        );
        assert!(cache.contains(&nl), "the surviving member was cached");
        assert!(!cache.contains(&broken));
        assert_eq!((traces.streams_decoded(), traces.replayed()), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn trace_store_marks_capture_and_replay_sources() {
        let specs = tiny_specs();
        let dir = std::env::temp_dir().join(format!("ipsim-pool-traces-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache_a = tmp_cache("tr-a");
        let cache_b = tmp_cache("tr-b");
        let traces = TraceStore::at(&dir);
        let p = Progress::new(ProgressMode::Silent, specs.len());
        let first = execute(&specs, 2, &cache_a, &traces, None, &p);
        assert!(first.records.iter().all(|r| r.source == RunSource::Capture));
        // Fresh cache forces re-simulation; streams come from the store.
        let p = Progress::new(ProgressMode::Silent, specs.len());
        let second = execute(&specs, 2, &cache_b, &traces, None, &p);
        assert!(second.records.iter().all(|r| r.source == RunSource::Replay));
        for spec in &specs {
            let key = spec.cache_key();
            assert_eq!(
                first.results[&key].as_ref().unwrap(),
                second.results[&key].as_ref().unwrap(),
                "replay changed the result of {}",
                spec.label()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(cache_a.dir());
        let _ = std::fs::remove_dir_all(cache_b.dir());
    }
}
