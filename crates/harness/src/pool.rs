//! The deterministic worker pool: jobs fan out across hand-rolled
//! `std::thread` workers (no runtime dependencies). A job is a group of
//! runs over one instruction stream, which the trace store executes as one
//! cohort ([`TraceStore::execute_cohort`]). [`execute`] runs a batch:
//! first the captain of each stream that must be captured, then
//! [`cohort_groups`] cuts the batch's [`streams`] into cohort jobs of at
//! most [`COHORT_MEMBERS`] uncached runs each, longest first.
//! A worker keeps nothing between jobs: every run builds its own system.
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

use ipsim_prefetch::Scheme;
use ipsim_telemetry::TelemetryConfig;

use crate::cache::RunCache;
use crate::progress::Progress;
use crate::runlog::RunRecord;
use crate::spec::RunSpec;
use crate::summary::Summary;
use crate::telemetry::TelemetrySink;
use crate::traces::{RunSource, TraceStore, TracedRun};

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

/// Most telemetry events the members of one cohort may buffer together,
/// summed over their cores' [`TelemetryConfig::max_events_per_core`]:
/// 2 Mi events, 48 MiB of `PfEvent`s. Every member of a cohort is alive
/// until it ends, so with telemetry on [`cohort_groups`] caps a cohort at
/// this many events' worth of members — two CMP-4 or eight single-core
/// runs at the default 262 144 events per core — where a lone run holds
/// one run's buffers.
pub const COHORT_TELEMETRY_EVENTS: u64 = 1 << 21;

/// Most uncached runs one cohort holds. Every member's `System` is alive
/// until the cohort ends, so a cohort's resident bytes grow with its
/// member count, while each further cohort decodes its stream once more.
/// 8 splits the full sweep's 26-run single-core and 31–59-run CMP-4
/// streams and `figsweep_replay`'s 12-run ones; 4 cost more host CPU and
/// 16 held more memory (EXPERIMENTS.md, "Bounded cohorts").
pub const COHORT_MEMBERS: usize = 8;

/// A prefetching run's host time per op, in percent of a baseline run's:
/// in a full sweep at 200000/400000 replayed at `--jobs 2`, prefetching
/// CMP-4 runs took 101 ns of `sim_s` per measured instruction and
/// no-prefetch ones 62 ns (runlog; EXPERIMENTS.md, "Bounded cohorts").
const PREFETCH_COST_PERCENT: u64 = 160;

/// A run's estimated host cost, in hundredths of a baseline op: its ops
/// over all cores, weighted by [`PREFETCH_COST_PERCENT`] when it
/// prefetches.
fn run_cost(spec: &RunSpec) -> u64 {
    let ops = u64::from(spec.config.n_cores) * (spec.lengths.warm + spec.lengths.measure);
    let percent = if spec.scheme == Scheme::default() {
        100
    } else {
        PREFETCH_COST_PERCENT
    };
    ops * percent
}

/// Groups `specs` by instruction stream ([`RunSpec::trace_key`]): one
/// group per stream in first-seen order, each in input order.
pub fn streams(specs: &[RunSpec]) -> Vec<Vec<RunSpec>> {
    let mut streams: Vec<Vec<RunSpec>> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    for spec in specs {
        let at = *index.entry(spec.trace_key()).or_insert_with(|| {
            streams.push(Vec::new());
            streams.len() - 1
        });
        streams[at].push(spec.clone());
    }
    streams
}

/// Splits `streams` (each one stream's specs, as [`streams`] groups them)
/// into cohort jobs for [`execute`]'s replay phase. A stream splits into
/// consecutive near-equal parts so that no part holds more than
/// [`COHORT_MEMBERS`] uncached runs — fewer when `telemetry` is on and
/// their event buffers would pass [`COHORT_TELEMETRY_EVENTS`] — and into
/// at least as many parts as its uncached cost is `1/workers` shares of
/// the batch's, so a pool with more workers than streams still has a job
/// for every worker. Runs `cached` serves cost nothing, do not count
/// toward the bound and join their stream's first part. Each part
/// decodes its stream once. Jobs come out longest first by the summed
/// cost of their uncached runs — ops over all cores, weighted by how much
/// slower a prefetching run steps — with ties in stream order, so the
/// pool's tail is short jobs; within a job, runs keep input order.
pub fn cohort_groups(
    streams: &[&[RunSpec]],
    workers: usize,
    telemetry: Option<&TelemetryConfig>,
    cached: impl Fn(&RunSpec) -> bool,
) -> Vec<Vec<RunSpec>> {
    // Each stream's (cached, uncached) specs.
    let split: Vec<(Vec<RunSpec>, Vec<RunSpec>)> = streams
        .iter()
        .map(|specs| specs.iter().cloned().partition(|spec| cached(spec)))
        .collect();
    let cost = |misses: &[RunSpec]| misses.iter().map(run_cost).sum::<u64>();
    let total: u64 = split.iter().map(|(_, misses)| cost(misses)).sum();
    let workers = workers.max(1) as u64;
    let mut groups: Vec<(u64, Vec<RunSpec>)> = Vec::with_capacity(split.len());
    for (mut hits, misses) in split {
        // ceil(cost / (total / workers)), at least 1.
        let share = if total == 0 {
            1
        } else {
            (cost(&misses) * workers).div_ceil(total).max(1)
        };
        let members = match (telemetry, misses.first()) {
            (Some(config), Some(spec)) => {
                let events = u64::from(spec.config.n_cores) * config.max_events_per_core as u64;
                (COHORT_TELEMETRY_EVENTS / events.max(1)).clamp(1, COHORT_MEMBERS as u64)
            }
            _ => COHORT_MEMBERS as u64,
        };
        let runs = misses.len().max(1) as u64;
        let parts = share.max(runs.div_ceil(members)).min(runs) as usize;
        let (size, extra) = (misses.len() / parts, misses.len() % parts);
        let mut rest = &misses[..];
        for part in 0..parts {
            let (head, tail) = rest.split_at(size + usize::from(part < extra));
            rest = tail;
            let mut group = std::mem::take(&mut hits);
            group.extend_from_slice(head);
            groups.push((cost(head), group));
        }
    }
    // Stable, so equal costs keep stream order.
    groups.sort_by_key(|(cost, _)| std::cmp::Reverse(*cost));
    groups.into_iter().map(|(_, group)| group).collect()
}

/// Runs every spec (assumed unique) across `workers` threads. With the
/// trace store live, in two phases: phase one runs the *captain* (first
/// spec) of every stream ([`RunSpec::trace_key`]) that cannot be replayed,
/// which captures it; phase two runs every other spec as bounded cohort
/// jobs ([`cohort_groups`]). A stream whose runs `cache` (and the
/// `telemetry` sink's artifacts) will all serve is never read, so it is
/// not checked either. Both phases submit their longest jobs first, and no
/// phase starts after an interrupt. With the store off, every spec is its
/// own job. Records come back in input order, so phasing and submission
/// order are invisible everywhere downstream.
pub fn execute(
    unique: &[RunSpec],
    workers: usize,
    cache: &RunCache,
    traces: &TraceStore,
    telemetry: Option<&TelemetrySink>,
    progress: &Progress,
) -> ExecReport {
    if !traces.enabled() {
        let groups: Vec<&[RunSpec]> = unique.chunks(1).collect();
        return execute_groups(&groups, workers, cache, traces, telemetry, progress);
    }
    let streams = streams(unique);
    let cached = |spec: &RunSpec| {
        cache.contains(spec) && telemetry.is_none_or(|sink| sink.has(&spec.cache_key()))
    };
    let mut captains: Vec<&[RunSpec]> = Vec::new();
    let mut replays: Vec<&[RunSpec]> = Vec::new();
    {
        let _check = ipsim_obs::spans().span("trace.verify");
        for specs in &streams {
            let rest = if specs.iter().all(cached) || traces.replayable(&specs[0]) {
                &specs[..]
            } else {
                captains.push(&specs[..1]);
                &specs[1..]
            };
            if !rest.is_empty() {
                replays.push(rest);
            }
        }
    }
    captains.sort_by_key(|captain| std::cmp::Reverse(run_cost(&captain[0])));
    let cohorts = cohort_groups(
        &replays,
        workers,
        telemetry.map(TelemetrySink::config),
        cached,
    );
    let cohorts: Vec<&[RunSpec]> = cohorts.iter().map(Vec::as_slice).collect();

    let mut phases: Vec<ExecReport> = Vec::new();
    for batch in [captains, cohorts] {
        if batch.is_empty() {
            continue;
        }
        if phases.last().is_some_and(|p| p.interrupted) {
            break;
        }
        phases.push(execute_groups(
            &batch, workers, cache, traces, telemetry, progress,
        ));
    }

    let interrupted = phases.iter().any(|p| p.interrupted);
    let wall = phases.iter().map(|p| p.wall).sum();
    let mut results = HashMap::with_capacity(unique.len());
    let mut by_key: HashMap<String, RunRecord> = HashMap::with_capacity(unique.len());
    for phase in phases {
        results.extend(phase.results);
        by_key.extend(phase.records.into_iter().map(|r| (r.key.clone(), r)));
    }
    // An interrupted batch is missing the unclaimed specs' records;
    // everything completed is kept.
    let records: Vec<RunRecord> = unique
        .iter()
        .filter_map(|spec| by_key.remove(&spec.cache_key()))
        .collect();
    debug_assert!(interrupted || records.len() == unique.len());
    ExecReport {
        results,
        records,
        wall,
        interrupted,
    }
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
fn execute_groups(
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
            scope.spawn(|| loop {
                if ipsim_signal::triggered() {
                    break;
                }
                let g = next.fetch_add(1, Ordering::Relaxed);
                if g >= groups.len() {
                    break;
                }
                run_group(groups[g], cache, traces, telemetry, &mut |i, outcome| {
                    progress.on_run(&outcome.1);
                    *slots[offsets[g] + i].lock().unwrap() = Some(outcome);
                });
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
    traces.execute_cohort(&members, config.as_ref(), &mut |m, run| {
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

    /// A stream splits into consecutive near-equal parts of at most
    /// `COHORT_MEMBERS` uncached runs (fewer under the telemetry bound),
    /// and further past a `1/workers` share of the batch's cost. Cached
    /// runs count for nothing and join the first part, and jobs come out
    /// longest first.
    #[test]
    fn cohort_groups_split_a_stream_only_past_its_share() {
        let variants = |config: SystemConfig, w: Workload, n: u64| -> Vec<RunSpec> {
            (1..=n)
                .map(|q| {
                    let mut spec = RunSpec::new(
                        config.clone(),
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
        let single = |w, n| variants(SystemConfig::single_core(), w, n);
        let groups = |specs: &[RunSpec],
                      workers,
                      telemetry: Option<&TelemetryConfig>,
                      cached: &dyn Fn(&RunSpec) -> bool| {
            let by_stream = streams(specs);
            let by_stream: Vec<&[RunSpec]> = by_stream.iter().map(Vec::as_slice).collect();
            let groups = cohort_groups(&by_stream, workers, telemetry, cached);
            // Every run lands in exactly one group of its own stream, and
            // a group keeps input order.
            let keys: Vec<String> = specs.iter().map(RunSpec::cache_key).collect();
            let position =
                |spec: &RunSpec| keys.iter().position(|k| *k == spec.cache_key()).unwrap();
            let mut seen: Vec<usize> = Vec::new();
            for group in &groups {
                assert!(group.iter().all(|s| s.trace_key() == group[0].trace_key()));
                let at: Vec<usize> = group.iter().map(position).collect();
                assert!(
                    at.windows(2).all(|w| w[0] < w[1]),
                    "a group reordered its runs"
                );
                seen.extend(at);
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..specs.len()).collect::<Vec<_>>());
            groups
        };
        let shape =
            |groups: &[Vec<RunSpec>]| -> Vec<usize> { groups.iter().map(Vec::len).collect() };
        let none = |_: &RunSpec| false;

        let (a, b) = (single(Workload::Db, 12), single(Workload::Web, 2));
        let specs: Vec<RunSpec> = a.iter().chain(&b).cloned().collect();
        // One worker splits only past the member bound: 12 runs are 6 + 6.
        assert_eq!(shape(&groups(&specs, 1, None, &none)), [6, 6, 2]);
        assert_eq!(shape(&groups(&specs, 2, None, &none)), [6, 6, 2]);
        assert_eq!(shape(&groups(&specs, 4, None, &none)), [3, 3, 3, 3, 2]);
        assert_eq!(shape(&groups(&specs, 16, None, &none)), [1; 14]);
        // Twenty runs are three parts of at most `COHORT_MEMBERS`.
        let twenty = single(Workload::JApp, 20);
        let parts = shape(&groups(&twenty, 1, None, &none));
        assert_eq!(parts, [7, 7, 6]);
        assert!(parts.iter().all(|&n| n <= COHORT_MEMBERS));

        // Half of the big stream is cached: its cost halves, its cached
        // runs join the first part and do not count toward the bound.
        let cached = |s: &RunSpec| s.trace_key() == a[0].trace_key() && s.config.sched_quantum <= 6;
        let got = groups(&specs, 4, None, &cached);
        assert_eq!(shape(&got), [8, 2, 2, 2]);
        assert!(got[0][..6].iter().all(cached));
        let got = groups(&specs, 1, None, &cached);
        assert_eq!(shape(&got), [12, 2]);
        assert!(got[0][..6].iter().all(cached) && !got[0][6..].iter().any(cached));

        // Telemetry caps a single-core cohort at eight members' buffers,
        // no tighter than the member bound, and a CMP-4 cohort at two.
        let telemetry = TelemetryConfig::default();
        assert_eq!(
            shape(&groups(&specs, 1, Some(&telemetry), &none)),
            [6, 6, 2]
        );
        let cmp4 = variants(SystemConfig::cmp4(), Workload::Db, 5);
        assert_eq!(shape(&groups(&cmp4, 1, None, &none)), [5]);
        assert_eq!(shape(&groups(&cmp4, 1, Some(&telemetry), &none)), [2, 2, 1]);

        // Longest first: a 3-run CMP-4 stream (12 single-core runs' ops)
        // leads, and two prefetching runs outrank two baseline ones;
        // equal costs keep stream order.
        let prefetching: Vec<RunSpec> = single(Workload::TpcW, 2)
            .into_iter()
            .map(|s| s.prefetcher(ipsim_core::PrefetcherKind::NextLineTagged))
            .collect();
        let specs: Vec<RunSpec> = b
            .iter()
            .chain(&a)
            .chain(&prefetching)
            .chain(&cmp4[..3])
            .cloned()
            .collect();
        let got = groups(&specs, 1, None, &none);
        let streams_of: Vec<String> = got.iter().map(|g| g[0].trace_key()).collect();
        assert_eq!(
            streams_of,
            [
                cmp4[0].trace_key(),
                a[0].trace_key(),
                a[0].trace_key(),
                prefetching[0].trace_key(),
                b[0].trace_key(),
            ]
        );
        assert_eq!(shape(&got), [3, 6, 6, 2, 2]);
        assert_eq!(
            got[1][0].cache_key(),
            a[0].cache_key(),
            "equal costs keep stream order"
        );
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
