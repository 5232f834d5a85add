//! The serving core: job table, bounded queue, content-addressed dedup,
//! worker loop, and journal-backed recovery.
//!
//! One coarse mutex guards the whole job table (`Inner`); every job's
//! runs execute *outside* the lock, one at a time, so `GET /v1/jobs/{id}`
//! can report `done/total` progress mid-job. Parallelism across jobs
//! comes from running several workers, each claiming whole jobs — the
//! per-run heavy lifting reuses [`ipsim_harness::pool`] unchanged.
//!
//! Dedup happens at two levels, both keyed by content hashes:
//!
//! * **run level** — every run consults the shared [`RunCache`]; a spec
//!   whose runs are all cached completes at submit time without touching
//!   the queue (`"dedup":"cache"`).
//! * **job level** — an identical job already queued or running coalesces
//!   onto it (`"dedup":"inflight"`): the submitter gets the existing job
//!   id and polls it like its own.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use ipsim_harness::progress::{Progress, ProgressMode};
use ipsim_harness::telemetry::TelemetryConfig;
use ipsim_harness::wire::JobSpec;
use ipsim_harness::{pool, runlog};
use ipsim_harness::{RunCache, RunSpec, TelemetrySink, TraceStore};

use crate::journal::{Event, Journal, RunResult};
use crate::metrics::ServeMetrics;

/// Everything configurable about a serving daemon.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Serve state directory (journal, serve runlog).
    pub dir: PathBuf,
    /// Run-cache directory shared with the batch CLI.
    pub cache_dir: PathBuf,
    /// Trace-store directory (`None` disables capture/replay).
    pub trace_dir: Option<PathBuf>,
    /// Telemetry artifact root (`None` disables telemetry collection).
    pub telemetry_root: Option<PathBuf>,
    /// Job-executing worker threads. `0` is allowed — the daemon accepts
    /// and journals jobs but never runs them (used by the recovery and
    /// backpressure tests).
    pub workers: usize,
    /// Maximum *queued* jobs before submissions get `429`.
    pub max_queue: usize,
    /// fsync the journal on every append (crash-safe acks). On by
    /// default; only benchmarks should turn it off.
    pub sync_journal: bool,
}

impl ServeConfig {
    /// Defaults rooted at the conventional `results/` layout.
    pub fn default_at(dir: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            dir: dir.into(),
            cache_dir: PathBuf::from("results/cache"),
            trace_dir: Some(PathBuf::from("results/traces")),
            telemetry_root: None,
            workers: std::thread::available_parallelism()
                .map(|n| (n.get() / 2).max(1))
                .unwrap_or(2),
            max_queue: 64,
            sync_journal: true,
        }
    }
}

/// Lifecycle of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and journaled, waiting for a worker.
    Queued,
    /// A worker is executing its runs.
    Running,
    /// All runs finished (individual runs may still have `ok = false`).
    Done,
    /// The job could not execute at all.
    Failed,
}

impl JobState {
    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    /// Whether the state is terminal.
    pub fn terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed)
    }
}

/// One job as the service tracks it.
#[derive(Debug, Clone)]
pub struct Job {
    /// Job id (`j-<n>`).
    pub id: String,
    /// Content hash over the job's sorted run keys.
    pub jkey: String,
    /// Submitting client.
    pub client: String,
    /// The wire spec as submitted.
    pub spec: JobSpec,
    /// Current state.
    pub state: JobState,
    /// Runs finished so far.
    pub done_runs: usize,
    /// Total runs in the job.
    pub total_runs: usize,
    /// How this job completed at submit time, if it did (`"cache"`).
    pub dedup: Option<&'static str>,
    /// Per-run outcomes (terminal states only).
    pub results: Vec<RunResult>,
    /// Failure reason when `state` is [`JobState::Failed`].
    pub error: Option<String>,
    /// When the job entered the queue, in [`ipsim_obs::spans`]
    /// microseconds (0 for recovered or cache-completed jobs) — the
    /// worker turns it into the queue-wait span and histogram sample.
    pub enqueued_micros: u64,
    /// Id of the submitting request's span (0 when none), so the
    /// worker-side queue-wait/execute spans parent onto it in the
    /// exported timeline.
    pub span: u64,
}

/// Why a submission was not accepted.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The spec did not parse or lower → 400.
    Invalid(String),
    /// The queue is at `max_queue` → 429.
    QueueFull,
    /// The daemon is draining → 503.
    Draining,
    /// The journal append failed → 500; nothing was enqueued.
    Journal(String),
}

/// What a successful submission returned.
#[derive(Debug, Clone)]
pub struct SubmitOutcome {
    /// The job to poll (possibly an existing one).
    pub job_id: String,
    /// Job state right after submission.
    pub state: JobState,
    /// `Some("cache")` (completed instantly from the run cache) or
    /// `Some("inflight")` (coalesced onto an identical active job).
    pub dedup: Option<&'static str>,
}

/// Monotonic service counters, exposed by `GET /v1/stats`.
#[derive(Debug, Default)]
pub struct Stats {
    /// Jobs accepted (including cache-completed; excluding coalesced).
    pub submitted: AtomicU64,
    /// Jobs that reached [`JobState::Done`] via a worker.
    pub completed: AtomicU64,
    /// Jobs that reached [`JobState::Failed`].
    pub failed: AtomicU64,
    /// Submissions completed instantly from the run cache.
    pub dedup_cache: AtomicU64,
    /// Submissions coalesced onto an identical in-flight job.
    pub dedup_inflight: AtomicU64,
    /// Submissions bounced for a full queue.
    pub rejected_queue_full: AtomicU64,
    /// Jobs re-enqueued from the journal at boot.
    pub recovered: AtomicU64,
    /// Journal lines skipped at boot (torn tail).
    pub journal_skipped: AtomicU64,
}

/// The mutable job table, under one mutex.
#[derive(Debug, Default)]
struct Inner {
    jobs: HashMap<String, Job>,
    /// Queued job ids, FIFO.
    queue: VecDeque<String>,
    /// jkey → job id, for every non-terminal job.
    by_jkey: HashMap<String, String>,
}

/// The serving core shared by the HTTP front end and the workers.
pub struct Service {
    /// The configuration the service booted with.
    pub config: ServeConfig,
    /// Service counters.
    pub stats: Stats,
    /// Operational metric handles (global-registry backed).
    pub obs: ServeMetrics,
    journal: Journal,
    inner: Mutex<Inner>,
    queue_cv: Condvar,
    next_id: AtomicU64,
    cache: RunCache,
    traces: TraceStore,
    telemetry: Option<TelemetrySink>,
    shutdown: AtomicBool,
}

impl Service {
    /// Boots the service: recovers the journal (re-enqueuing every job
    /// without a terminal event), compacts it, and opens it for append.
    pub fn open(config: ServeConfig) -> Result<Arc<Service>, String> {
        let recovery = Journal::recover(&config.dir);

        // Replay: rebuild the job table in submit order.
        let mut jobs: HashMap<String, Job> = HashMap::new();
        let mut order: Vec<String> = Vec::new();
        let mut max_id = 0u64;
        for event in &recovery.events {
            if let Some(n) = event
                .job()
                .strip_prefix("j-")
                .and_then(|n| n.parse::<u64>().ok())
            {
                max_id = max_id.max(n);
            }
            match event {
                Event::Submit {
                    job,
                    jkey,
                    client,
                    spec,
                } => {
                    order.push(job.clone());
                    jobs.insert(
                        job.clone(),
                        Job {
                            id: job.clone(),
                            jkey: jkey.clone(),
                            client: client.clone(),
                            spec: spec.clone(),
                            state: JobState::Queued,
                            done_runs: 0,
                            total_runs: spec.runs.len(),
                            dedup: None,
                            results: Vec::new(),
                            error: None,
                            enqueued_micros: 0,
                            span: 0,
                        },
                    );
                }
                Event::Done { job, results } => {
                    if let Some(j) = jobs.get_mut(job) {
                        j.state = JobState::Done;
                        j.done_runs = results.len();
                        j.results = results.clone();
                    }
                }
                Event::Failed { job, error } => {
                    if let Some(j) = jobs.get_mut(job) {
                        j.state = JobState::Failed;
                        j.error = Some(error.clone());
                    }
                }
                Event::Start { .. } | Event::Dup { .. } => {}
            }
        }

        // Compact: one submit(+terminal) pair per known job, pending last
        // so replay order equals queue order.
        let mut compacted = Vec::new();
        for id in &order {
            let job = &jobs[id];
            if !job.state.terminal() {
                continue;
            }
            compacted.push(Event::Submit {
                job: job.id.clone(),
                jkey: job.jkey.clone(),
                client: job.client.clone(),
                spec: job.spec.clone(),
            });
            compacted.push(match job.state {
                JobState::Failed => Event::Failed {
                    job: job.id.clone(),
                    error: job.error.clone().unwrap_or_default(),
                },
                _ => Event::Done {
                    job: job.id.clone(),
                    results: job.results.clone(),
                },
            });
        }
        let mut queue = VecDeque::new();
        let mut by_jkey = HashMap::new();
        for id in &order {
            let job = &jobs[id];
            if job.state.terminal() {
                continue;
            }
            compacted.push(Event::Submit {
                job: job.id.clone(),
                jkey: job.jkey.clone(),
                client: job.client.clone(),
                spec: job.spec.clone(),
            });
            queue.push_back(id.clone());
            by_jkey.insert(job.jkey.clone(), id.clone());
        }
        Journal::rewrite(&config.dir, &compacted)
            .map_err(|e| format!("compacting journal: {e}"))?;
        let journal = Journal::open(&config.dir, config.sync_journal)
            .map_err(|e| format!("opening journal: {e}"))?;

        let stats = Stats::default();
        let obs = ServeMetrics::new();
        obs.queue_depth.set(queue.len() as i64);
        stats.recovered.store(queue.len() as u64, Ordering::Relaxed);
        stats
            .journal_skipped
            .store(recovery.skipped_lines, Ordering::Relaxed);

        let traces = match &config.trace_dir {
            Some(dir) => TraceStore::at(dir),
            None => TraceStore::disabled(),
        };
        let telemetry = config
            .telemetry_root
            .as_ref()
            .map(|root| TelemetrySink::at(root, TelemetryConfig::default()));
        Ok(Arc::new(Service {
            stats,
            obs,
            journal,
            inner: Mutex::new(Inner {
                jobs,
                queue,
                by_jkey,
            }),
            queue_cv: Condvar::new(),
            next_id: AtomicU64::new(max_id + 1),
            cache: RunCache::at(&config.cache_dir),
            traces,
            telemetry,
            shutdown: AtomicBool::new(false),
            config,
        }))
    }

    /// The job-level content key: FNV-1a over the sorted run cache keys,
    /// so run order inside a spec does not defeat coalescing.
    pub fn job_key(specs: &[RunSpec]) -> String {
        let mut keys: Vec<String> = specs.iter().map(RunSpec::cache_key).collect();
        keys.sort();
        let mut hasher = ipsim_harness::hash::Fnv1a64::new();
        hasher.write(b"jkey-v1");
        for key in &keys {
            hasher.write(b"|");
            hasher.write(key.as_bytes());
        }
        format!("{:016x}", hasher.finish())
    }

    /// Submits one job; `client` names the submitter in the journal. See
    /// [`SubmitOutcome`] / [`SubmitError`] for the possible answers.
    pub fn submit(&self, client: &str, spec: JobSpec) -> Result<SubmitOutcome, SubmitError> {
        if self.shutdown.load(Ordering::SeqCst) {
            self.obs.rejected_draining.inc();
            return Err(SubmitError::Draining);
        }
        let specs = spec.to_run_specs().map_err(SubmitError::Invalid)?;
        let jkey = Service::job_key(&specs);

        let mut inner = self.inner.lock().unwrap();
        // Job-level dedup: coalesce onto an identical active job.
        if let Some(existing) = inner.by_jkey.get(&jkey).cloned() {
            let state = inner.jobs[&existing].state;
            drop(inner);
            self.stats.dedup_inflight.fetch_add(1, Ordering::Relaxed);
            self.obs.dedup_inflight.inc();
            let _ = self.journal.append(&Event::Dup {
                job: existing.clone(),
                kind: "inflight".to_string(),
            });
            return Ok(SubmitOutcome {
                job_id: existing,
                state,
                dedup: Some("inflight"),
            });
        }

        // Run-level dedup: a fully cached job completes at submit time.
        let cached: Option<Vec<RunResult>> = specs
            .iter()
            .map(|s| {
                self.cache.lookup(s).map(|summary| RunResult {
                    key: s.cache_key(),
                    label: s.label(),
                    ok: true,
                    tsv: summary.to_tsv(),
                })
            })
            .collect();
        if let Some(results) = cached {
            let id = self.new_job_id();
            let job = Job {
                id: id.clone(),
                jkey,
                client: client.to_string(),
                spec,
                state: JobState::Done,
                done_runs: results.len(),
                total_runs: results.len(),
                dedup: Some("cache"),
                results: results.clone(),
                error: None,
                enqueued_micros: 0,
                span: 0,
            };
            self.append_or_fail(&Event::Submit {
                job: id.clone(),
                jkey: job.jkey.clone(),
                client: job.client.clone(),
                spec: job.spec.clone(),
            })?;
            let _ = self.journal.append(&Event::Dup {
                job: id.clone(),
                kind: "cache".to_string(),
            });
            self.append_or_fail(&Event::Done {
                job: id.clone(),
                results,
            })?;
            inner.jobs.insert(id.clone(), job);
            drop(inner);
            self.stats.submitted.fetch_add(1, Ordering::Relaxed);
            self.stats.dedup_cache.fetch_add(1, Ordering::Relaxed);
            self.obs.submitted.inc();
            self.obs.dedup_cache.inc();
            return Ok(SubmitOutcome {
                job_id: id,
                state: JobState::Done,
                dedup: Some("cache"),
            });
        }

        // Fresh work: bounded queue, durable ack.
        if inner.queue.len() >= self.config.max_queue {
            self.stats
                .rejected_queue_full
                .fetch_add(1, Ordering::Relaxed);
            self.obs.rejected_queue_full.inc();
            return Err(SubmitError::QueueFull);
        }
        let id = self.new_job_id();
        let spans = ipsim_obs::spans();
        let job = Job {
            id: id.clone(),
            jkey: jkey.clone(),
            client: client.to_string(),
            spec,
            state: JobState::Queued,
            done_runs: 0,
            total_runs: specs.len(),
            dedup: None,
            results: Vec::new(),
            error: None,
            enqueued_micros: spans.now_micros(),
            span: spans.current().unwrap_or(0),
        };
        // Journal first (fsynced): once the client sees the ack, the job
        // survives any crash.
        self.append_or_fail(&Event::Submit {
            job: id.clone(),
            jkey: jkey.clone(),
            client: job.client.clone(),
            spec: job.spec.clone(),
        })?;
        inner.by_jkey.insert(jkey, id.clone());
        inner.jobs.insert(id.clone(), job);
        inner.queue.push_back(id.clone());
        drop(inner);
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        self.obs.submitted.inc();
        self.obs.queue_depth.add(1);
        self.queue_cv.notify_one();
        Ok(SubmitOutcome {
            job_id: id,
            state: JobState::Queued,
            dedup: None,
        })
    }

    fn append_or_fail(&self, event: &Event) -> Result<(), SubmitError> {
        self.journal
            .append(event)
            .map_err(|e| SubmitError::Journal(e.to_string()))
    }

    fn new_job_id(&self) -> String {
        format!("j-{}", self.next_id.fetch_add(1, Ordering::SeqCst))
    }

    /// Reads one job under the lock.
    pub fn with_job<R>(&self, id: &str, f: impl FnOnce(&Job) -> R) -> Option<R> {
        let inner = self.inner.lock().unwrap();
        inner.jobs.get(id).map(f)
    }

    /// Queued job count.
    pub fn queue_len(&self) -> usize {
        self.inner.lock().unwrap().queue.len()
    }

    /// Total jobs known (all states).
    pub fn job_count(&self) -> usize {
        self.inner.lock().unwrap().jobs.len()
    }

    /// The telemetry artifact directory for a run key, when the sink is
    /// active and the artifact exists.
    pub fn telemetry_dir(&self, key: &str) -> Option<PathBuf> {
        let sink = self.telemetry.as_ref()?;
        sink.has(key).then(|| sink.dir_for(key))
    }

    /// Flags the service as draining: submissions get 503, workers stop
    /// claiming runs after the one in flight, queued jobs stay journaled
    /// for the next boot.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
    }

    /// Whether a drain is in progress.
    pub fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// One worker: claims queued jobs and executes their runs one at a
    /// time (progress stays observable mid-job; cross-job parallelism
    /// comes from running several workers). Returns when a drain begins.
    pub fn worker_loop(self: &Arc<Service>) {
        loop {
            let claimed = {
                let mut inner = self.inner.lock().unwrap();
                loop {
                    if self.draining() {
                        return;
                    }
                    if let Some(id) = inner.queue.pop_front() {
                        let job = inner.jobs.get_mut(&id).expect("queued job exists");
                        job.state = JobState::Running;
                        break (id, job.spec.clone(), job.enqueued_micros, job.span);
                    }
                    let (guard, _) = self
                        .queue_cv
                        .wait_timeout(inner, Duration::from_millis(250))
                        .unwrap();
                    inner = guard;
                }
            };
            let (id, spec, enqueued, parent) = claimed;
            let spans = ipsim_obs::spans();
            let claimed_at = spans.now_micros();
            self.obs.queue_depth.add(-1);
            if enqueued > 0 {
                let wait = claimed_at.saturating_sub(enqueued);
                self.obs.queue_wait.observe(wait);
                spans.record(
                    "serve.queue_wait",
                    enqueued,
                    wait,
                    (parent > 0).then_some(parent),
                );
            }
            let _ = self.journal.append(&Event::Start { job: id.clone() });
            self.obs.inflight_jobs.add(1);
            self.execute_job(&id, &spec);
            self.obs.inflight_jobs.add(-1);
            let done_at = spans.now_micros();
            self.obs.execute.observe(done_at.saturating_sub(claimed_at));
            spans.record(
                "serve.job_execute",
                claimed_at,
                done_at.saturating_sub(claimed_at),
                (parent > 0).then_some(parent),
            );
        }
    }

    /// Runs one claimed job to completion (or to the drain point).
    fn execute_job(self: &Arc<Service>, id: &str, spec: &JobSpec) {
        let specs = match spec.to_run_specs() {
            Ok(specs) => specs,
            Err(e) => {
                // Validated at submit time; reachable only via a journal
                // hand-edited between boots.
                self.finish_failed(id, &format!("spec no longer lowers: {e}"));
                return;
            }
        };
        // One spec at a time, so `done/total` progress stays observable
        // and a drain stops between runs.
        let mut results: Vec<RunResult> = Vec::with_capacity(specs.len());
        let mut records = Vec::new();
        for spec in &specs {
            if self.draining() {
                // Drain mid-job: no terminal event — the journal still has
                // submit without done, so the next boot re-enqueues this
                // job, and its finished runs replay from the run cache.
                return;
            }
            let progress = Progress::new(ProgressMode::Silent, 1);
            let report = pool::execute(
                std::slice::from_ref(spec),
                1,
                &self.cache,
                &self.traces,
                self.telemetry.as_ref(),
                &progress,
            );
            let key = spec.cache_key();
            let Some(result) = report.results.get(&key) else {
                // The pool only skips runs on an interrupt.
                return;
            };
            let (ok, tsv) = match result {
                Ok(summary) => (true, summary.to_tsv()),
                Err(panic) => (false, panic.clone()),
            };
            results.push(RunResult {
                key,
                label: spec.label(),
                ok,
                tsv,
            });
            records.extend(report.records);
            let mut inner = self.inner.lock().unwrap();
            if let Some(job) = inner.jobs.get_mut(id) {
                job.done_runs = results.len();
            }
        }

        // Terminal event first (durable), then the in-memory flip.
        if let Err(e) = self.journal.append(&Event::Done {
            job: id.to_string(),
            results: results.clone(),
        }) {
            self.finish_failed(id, &format!("journal append failed: {e}"));
            return;
        }
        let runlog_path = self.config.dir.join("runlog.tsv");
        if let Err(e) = runlog::append(&runlog_path, 1, &records) {
            eprintln!("warning: serve runlog append failed: {e}");
        }
        let mut inner = self.inner.lock().unwrap();
        let jkey = inner.jobs.get_mut(id).map(|job| {
            job.state = JobState::Done;
            job.done_runs = job.total_runs;
            job.results = results;
            job.jkey.clone()
        });
        if let Some(jkey) = jkey {
            inner.by_jkey.remove(&jkey);
        }
        drop(inner);
        self.stats.completed.fetch_add(1, Ordering::Relaxed);
        self.obs.jobs_done.inc();
    }

    fn finish_failed(&self, id: &str, error: &str) {
        let _ = self.journal.append(&Event::Failed {
            job: id.to_string(),
            error: error.to_string(),
        });
        let mut inner = self.inner.lock().unwrap();
        let jkey = inner.jobs.get_mut(id).map(|job| {
            job.state = JobState::Failed;
            job.error = Some(error.to_string());
            job.jkey.clone()
        });
        if let Some(jkey) = jkey {
            inner.by_jkey.remove(&jkey);
        }
        drop(inner);
        self.stats.failed.fetch_add(1, Ordering::Relaxed);
        self.obs.jobs_failed.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ipsim-state-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn config(tag: &str) -> ServeConfig {
        let root = tmp(tag);
        ServeConfig {
            dir: root.join("serve"),
            cache_dir: root.join("cache"),
            trace_dir: None,
            telemetry_root: None,
            workers: 0,
            max_queue: 4,
            sync_journal: false,
        }
    }

    fn tiny_spec(workload: &str) -> JobSpec {
        JobSpec::from_json(&format!(
            "{{\"v\":1,\"runs\":[{{\"config\":\"single_core\",\"workload\":\"{workload}\",\
             \"prefetcher\":\"nl_tagged\",\"policy\":\"install_both\",\
             \"warm\":2000,\"measure\":5000}}]}}"
        ))
        .unwrap()
    }

    #[test]
    fn submit_execute_and_cache_dedup() {
        let config = config("exec");
        let root = config.dir.parent().unwrap().to_path_buf();
        let service = Service::open(config).unwrap();

        let out = service.submit("t", tiny_spec("db")).unwrap();
        assert_eq!(out.state, JobState::Queued);
        assert_eq!(out.dedup, None);

        // An identical submission coalesces while the job is in flight.
        let dup = service.submit("t2", tiny_spec("db")).unwrap();
        assert_eq!(dup.job_id, out.job_id);
        assert_eq!(dup.dedup, Some("inflight"));
        assert_eq!(service.stats.dedup_inflight.load(Ordering::Relaxed), 1);

        // Run the queue dry with an inline worker pass.
        let worker = {
            let service = service.clone();
            std::thread::spawn(move || service.worker_loop())
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while service
            .with_job(&out.job_id, |j| !j.state.terminal())
            .unwrap()
        {
            assert!(std::time::Instant::now() < deadline, "job never finished");
            std::thread::sleep(Duration::from_millis(10));
        }
        let results = service
            .with_job(&out.job_id, |j| j.results.clone())
            .unwrap();
        assert_eq!(results.len(), 1);
        assert!(results[0].ok);
        // Byte-identity with a direct CLI-style execution of the spec.
        let direct = tiny_spec("db").to_run_specs().unwrap()[0].execute();
        assert_eq!(results[0].tsv, direct.to_tsv());

        // Resubmission now completes instantly from the run cache.
        let cached = service.submit("t3", tiny_spec("db")).unwrap();
        assert_ne!(cached.job_id, out.job_id);
        assert_eq!(cached.dedup, Some("cache"));
        assert_eq!(cached.state, JobState::Done);
        assert_eq!(service.stats.dedup_cache.load(Ordering::Relaxed), 1);

        service.begin_shutdown();
        worker.join().unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn queue_bound_rejects_with_queue_full() {
        let config = config("bound");
        let root = config.dir.parent().unwrap().to_path_buf();
        let max = config.max_queue;
        let service = Service::open(config).unwrap();
        let workloads = ["db", "tpcw", "japp", "web", "mixed"];
        for workload in workloads.iter().take(max) {
            service.submit("t", tiny_spec(workload)).unwrap();
        }
        let err = service.submit("t", tiny_spec(workloads[max])).unwrap_err();
        assert_eq!(err, SubmitError::QueueFull);
        assert_eq!(service.stats.rejected_queue_full.load(Ordering::Relaxed), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn restart_recovers_queued_jobs_in_order() {
        let config = config("recover");
        let root = config.dir.parent().unwrap().to_path_buf();
        let service = Service::open(config.clone()).unwrap();
        let a = service.submit("t", tiny_spec("db")).unwrap().job_id;
        let b = service.submit("t", tiny_spec("web")).unwrap().job_id;
        // Simulate kill -9: drop the service without any drain.
        drop(service);

        let service = Service::open(config).unwrap();
        assert_eq!(service.stats.recovered.load(Ordering::Relaxed), 2);
        assert_eq!(service.queue_len(), 2);
        for id in [&a, &b] {
            assert_eq!(
                service.with_job(id, |j| j.state),
                Some(JobState::Queued),
                "{id} not recovered"
            );
        }
        // New ids never collide with recovered ones.
        let c = service.submit("t", tiny_spec("japp")).unwrap().job_id;
        assert_ne!(c, a);
        assert_ne!(c, b);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn draining_rejects_submissions() {
        let config = config("drain");
        let root = config.dir.parent().unwrap().to_path_buf();
        let service = Service::open(config).unwrap();
        service.begin_shutdown();
        assert_eq!(
            service.submit("t", tiny_spec("db")).unwrap_err(),
            SubmitError::Draining
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn job_key_ignores_run_order() {
        let two = JobSpec::from_json(
            "{\"v\":1,\"runs\":[\
             {\"config\":\"single_core\",\"workload\":\"db\",\"prefetcher\":\"none\",\
              \"policy\":\"install_both\",\"warm\":1000,\"measure\":2000},\
             {\"config\":\"single_core\",\"workload\":\"web\",\"prefetcher\":\"none\",\
              \"policy\":\"install_both\",\"warm\":1000,\"measure\":2000}]}",
        )
        .unwrap();
        let mut swapped = two.clone();
        swapped.runs.reverse();
        let a = Service::job_key(&two.to_run_specs().unwrap());
        let b = Service::job_key(&swapped.to_run_specs().unwrap());
        assert_eq!(a, b);
    }
}
