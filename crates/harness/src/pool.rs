//! The deterministic worker pool: unique runs fan out across hand-rolled
//! `std::thread` workers (no runtime dependencies).
//!
//! Determinism argument: each simulation is single-threaded and fully
//! seeded, every [`RunSpec`] in a batch is unique (the scheduler dedups by
//! cache key before calling [`execute`]), and results are collected into
//! per-job slots by index. Replay feeds a core the same stream live
//! generation would (enforced by the stream integration test), so the
//! trace store affects only wall time too. Worker count and trace
//! availability therefore never change results — which the determinism
//! integration test pins down.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::cache::RunCache;
use crate::progress::Progress;
use crate::runlog::RunRecord;
use crate::spec::RunSpec;
use crate::summary::Summary;
use crate::telemetry::TelemetrySink;
use crate::traces::{RunSource, SystemSlot, TraceStore};

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
    /// in-flight runs were completed, unclaimed runs were never started.
    pub interrupted: bool,
}

/// A job's result slot: filled exactly once by the worker that claims it.
type JobSlot = Mutex<Option<(Result<Summary, String>, RunRecord)>>;

/// Runs every spec (assumed unique) across `workers` threads, consulting
/// and updating `cache`, and capturing/replaying instruction streams
/// through `traces`. With a `telemetry` sink, every run additionally
/// collects telemetry and writes a per-run artifact — a run whose
/// artifact is missing bypasses the run cache so there is something to
/// write. Panicking simulations are contained: they mark their own spec
/// failed and the batch continues.
///
/// When a shutdown signal arrives ([`ipsim_signal::triggered`]), workers
/// finish the run they have claimed — summaries land in the cache as
/// usual — but claim no further runs; the report carries a record for
/// every completed run and `interrupted = true`, so the caller can flush
/// the runlog tail before exiting.
pub fn execute(
    specs: &[RunSpec],
    workers: usize,
    cache: &RunCache,
    traces: &TraceStore,
    telemetry: Option<&TelemetrySink>,
    progress: &Progress,
) -> ExecReport {
    let started = Instant::now();
    let n = specs.len();
    let slots: Vec<JobSlot> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = workers.clamp(1, n.max(1));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // One reusable simulator per worker: consecutive runs over
                // the same system configuration reset in place instead of
                // re-allocating. A panicking run abandons the slot's
                // system, so the next run builds fresh.
                let mut slot = SystemSlot::new();
                loop {
                    if ipsim_signal::triggered() {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let outcome = run_one(&specs[i], cache, traces, telemetry, &mut slot);
                    progress.on_run(&outcome.1);
                    *slots[i].lock().unwrap() = Some(outcome);
                }
            });
        }
    });

    let mut results = HashMap::with_capacity(n);
    let mut records = Vec::with_capacity(n);
    let mut completed = 0usize;
    for slot in slots {
        // On an interrupted batch, claimed-but-unfinished indices never
        // existed (claiming and running are one step) — only unclaimed
        // slots are empty.
        if let Some((result, record)) = slot.into_inner().unwrap() {
            results.insert(record.key.clone(), result);
            records.push(record);
            completed += 1;
        }
    }
    let interrupted = completed < n;
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

/// Executes one spec: cache lookup, else simulate through the trace store
/// (containing panics), store the summary, and — when a telemetry sink is
/// active — write the run's artifact. A cache hit is only taken when the
/// sink already has this run's artifact (or there is no sink): summaries
/// are cacheable, telemetry is not. However the run ends, it releases its
/// stream in `traces` once on the way out.
fn run_one(
    spec: &RunSpec,
    cache: &RunCache,
    traces: &TraceStore,
    telemetry: Option<&TelemetrySink>,
    slot: &mut SystemSlot,
) -> (Result<Summary, String>, RunRecord) {
    let _run_span = ipsim_obs::spans().span("harness.run");
    let _release = StreamRelease::new(spec, traces);
    let t0 = Instant::now();
    let key = spec.cache_key();
    let label = spec.label();
    let need_artifact = telemetry.is_some_and(|sink| !sink.has(&key));
    if !need_artifact {
        if let Some(summary) = cache.lookup(spec) {
            let l1i_mpi = summary.l1i_mpi;
            let record = RunRecord {
                key,
                label,
                source: RunSource::Cache,
                ok: true,
                wall_s: t0.elapsed().as_secs_f64(),
                sim_instructions: 0,
                mips: 0.0,
                sim_mips: 0.0,
                sim_s: 0.0,
                decode_mips: 0.0,
                l1i_mpi,
                iv_mpki: 0.0,
                telemetry_events: 0,
            };
            crate::obs::obs()
                .run_wall
                .observe((record.wall_s * 1e6) as u64);
            return (Ok(summary), record);
        }
    }
    let config = telemetry.map(|sink| sink.config().clone());
    let run = catch_unwind(AssertUnwindSafe(|| {
        traces.execute_in(spec, config.as_ref(), slot)
    }))
    .map_err(|panic| panic_message(&*panic));
    let (result, source, sim_mips, sim_s, decode_mips, collected) = match run {
        Ok(run) => (
            Ok(run.summary),
            run.source,
            run.sim_mips,
            run.sim_seconds,
            run.decode_mips,
            run.telemetry,
        ),
        Err(e) => (Err(e), RunSource::Live, 0.0, 0.0, 0.0, None),
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
    let wall_s = t0.elapsed().as_secs_f64();
    let sim_instructions =
        (spec.lengths.warm + spec.lengths.measure) * u64::from(spec.config.n_cores);
    let record = RunRecord {
        key,
        label,
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
    // Kernel-boundary distributions: one observation per executed run, so
    // sim-MIPS percentiles are recoverable from a metrics snapshot.
    let obs = crate::obs::obs();
    obs.run_wall.observe((wall_s * 1e6) as u64);
    if record.sim_mips > 0.0 {
        obs.sim_mips.observe(record.sim_mips.round() as u64);
    }
    if record.decode_mips > 0.0 {
        obs.decode_mips.observe(record.decode_mips.round() as u64);
    }
    (result, record)
}

/// Releases a run's stream in the trace store when dropped
/// ([`TraceStore::release`]), so every run releases exactly once — after
/// a cache hit, a replay, a capture, a live run or a panic alike — and an
/// announced stream's arena is freed when its last run ends.
struct StreamRelease<'a> {
    traces: &'a TraceStore,
    key: Option<String>,
}

impl<'a> StreamRelease<'a> {
    fn new(spec: &RunSpec, traces: &'a TraceStore) -> StreamRelease<'a> {
        StreamRelease {
            traces,
            key: traces.enabled().then(|| spec.trace_key()),
        }
    }
}

impl Drop for StreamRelease<'_> {
    fn drop(&mut self) {
        if let Some(key) = &self.key {
            self.traces.release(key);
        }
    }
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
        use ipsim_telemetry::TelemetryConfig;

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

    /// Every run of an announced stream releases it exactly once — a
    /// cache hit, a panicking run and a replay alike — so the arena lives
    /// exactly as long as the announced runs.
    #[test]
    fn every_run_releases_its_stream_once_whatever_its_outcome() {
        let base = tiny_specs().swap_remove(0);
        let mut broken = base.clone();
        broken.config.core.issue_width = 0;
        let replay = base
            .clone()
            .prefetcher(ipsim_core::PrefetcherKind::NextLineTagged);
        let key = base.trace_key();
        assert_eq!(
            (broken.trace_key(), replay.trace_key()),
            (key.clone(), key.clone())
        );

        let dir = std::env::temp_dir().join(format!("ipsim-pool-release-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = tmp_cache("release");
        let traces = TraceStore::at(&dir);
        let p = Progress::new(ProgressMode::Silent, 1);
        let first = execute(std::slice::from_ref(&base), 1, &cache, &traces, None, &p);
        assert_eq!(first.records[0].source, RunSource::Capture);

        // One run more than the batch holds: a run releasing twice would
        // drop the arena early, one never releasing would leave two.
        traces.announce(&key, 4);
        let batch = [base, broken, replay];
        let p = Progress::new(ProgressMode::Silent, batch.len());
        let report = execute(&batch, 1, &cache, &traces, None, &p);
        let sources: Vec<RunSource> = report.records.iter().map(|r| r.source).collect();
        assert_eq!(
            sources,
            [RunSource::Cache, RunSource::Live, RunSource::Replay]
        );
        assert!(
            report.results[&batch[1].cache_key()].is_err(),
            "the broken run panicked"
        );
        assert_eq!(traces.arenas_decoded(), 1);
        assert!(
            traces.holds_arena(&key),
            "one announced run is still to come"
        );
        traces.release(&key);
        assert!(
            !traces.holds_arena(&key),
            "the last release drops the arena"
        );
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
