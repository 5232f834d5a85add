//! The on-disk trace store: capture each workload's instruction stream
//! once, replay it for every other configuration that shares it.
//!
//! A [`crate::spec::RunSpec`]'s instruction stream depends only on its
//! *workload half* — core count, workload assignment, seeds and run
//! lengths — not on caches, prefetchers or policies. A 13-figure sweep
//! therefore simulates the same handful of streams dozens of times. The
//! store keys streams by [`crate::spec::RunSpec::trace_key`] and keeps one
//! file per core under one directory (default `results/traces/`,
//! overridable via [`TRACE_DIR_ENV`]):
//!
//! ```text
//! results/traces/<trace_key>.c<core>.itrace
//! ```
//!
//! Hardening mirrors the run cache ([`crate::cache`]):
//!
//! * captures write to pid-suffixed temp files and rename into place, so
//!   an interrupted capture never leaves a plausible-looking trace;
//! * replay verifies every block CRC and the op count before the
//!   simulation starts (at checksum speed, no decode), so a corrupt file
//!   is quarantined to `*.corrupt` (evidence, not deleted) and the run
//!   transparently falls back to capture or live generation;
//! * capture I/O errors degrade the run to plain live generation
//!   (the simulation result is identical either way).
//!
//! # Cohort replay
//!
//! There is one replay path: [`TraceStore::execute_cohort`] runs every
//! run over one stream together, as a *cohort* (a single run is a cohort
//! of one). Each member owns its [`System`], built for it by
//! [`RunSpec::build_system`] and dropped when it ends, and a resumable
//! [`WorkloadRun`]; members take turns of [`TURN_QUANTA`] scheduling
//! quanta in round-robin order, so their per-core positions in the
//! stream stay close. They all read one *window* per core: a queue of
//! decoded chunks of [`CHUNK_OPS`] ops. A member that runs past the
//! decoded end decodes the next chunk, and after every turn the chunks
//! below the slowest member's position are dropped — each block of the
//! stream is decoded once, however many members read it, and only the
//! stretch between the slowest and the fastest member is held.
//!
//! *Memory bound.* Before a member's turn the store bounds what the turn
//! could decode: nothing if the member has [`TURN_QUANTA`] quanta of ops
//! decoded ahead on every core, else at most a turn's ops beyond its
//! nearest decoded end plus one chunk per core. When the window's held
//! ops plus that bound would exceed [`WINDOW_CAP_OPS`], the member
//! *detaches*: it opens its own readers positioned at its offsets and
//! finishes with per-op decode, so the window never holds more than the
//! cap. Output is identical either way: every member consumes exactly its
//! stream, in order, and a run split into turns steps as one call does.
//! Members stay independent — warm-up, statistics reset, timing,
//! telemetry and panics are per member, so a failing member is reported
//! and the rest finish. Every member's system (and telemetry buffers) is
//! alive until it ends, so a cohort's memory beyond the window grows with
//! its size; the pool bounds it at [`crate::pool::COHORT_MEMBERS`]
//! members and splits a larger stream into several cohorts
//! ([`crate::pool::cohort_groups`]).
//!
//! *Shutdown.* On a shutdown signal a cohort drops the members still
//! warming up, unreported, and steps those already measuring to their
//! end, so their work is kept.

use std::collections::{HashSet, VecDeque};
use std::fs::{self, File};
use std::io::{BufReader, BufWriter};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ipsim_cpu::{OpSource, System, SystemMetrics, WorkloadRun};
use ipsim_stream::{ReplaySource, Tee, TraceReader, TraceSource, TraceWriter};
use ipsim_telemetry::{TelemetryConfig, TelemetryRun};
use ipsim_types::instr::TraceOp;
use ipsim_types::CodecError;

use crate::pool::panic_message;
use crate::spec::RunSpec;
use crate::summary::Summary;

/// Environment variable overriding the trace directory. The values `off`
/// and `0` disable the store entirely.
pub const TRACE_DIR_ENV: &str = "IPSIM_TRACE_DIR";

/// Default trace directory, relative to the working directory.
pub const DEFAULT_TRACE_DIR: &str = "results/traces";

/// Scheduling quanta a cohort member runs per turn before the next member
/// takes over: at the default 16-op quantum, 65 536 ops per turn. Small
/// enough that members stay close in the stream (a single-core cohort
/// holds one turn of ops), large enough that refilling the host's caches
/// with the next member's system costs only a few percent of replay time
/// (EXPERIMENTS.md, "Cohort replay").
pub const TURN_QUANTA: u64 = 4_096;

/// Ops per window chunk: the unit a cohort decodes, holds and drops
/// (96 KiB at `TraceOp` width). A power of two, so a position splits into
/// chunk and offset with a shift and a mask.
pub const CHUNK_OPS: u64 = 4_096;

/// Most decoded ops one cohort's window holds at once, summed over cores:
/// 1 Mi ops, 24 MiB at `TraceOp` width. A member whose turn could push
/// the window past it detaches onto its own readers.
pub const WINDOW_CAP_OPS: u64 = 1 << 20;

/// Where a run's result (and instruction stream) came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunSource {
    /// Summary served from the on-disk run cache; nothing simulated.
    Cache,
    /// Simulated with live walker generation (store disabled or
    /// unavailable).
    Live,
    /// Simulated live while writing the stream to the trace store.
    Capture,
    /// Simulated from a stored trace, no walker involved.
    Replay,
}

impl RunSource {
    /// Stable lower-case token used in the run log.
    pub fn as_str(self) -> &'static str {
        match self {
            RunSource::Cache => "cache",
            RunSource::Live => "live",
            RunSource::Capture => "capture",
            RunSource::Replay => "replay",
        }
    }
}

/// Outcome of executing one spec through the store.
pub struct TracedRun {
    /// The simulation summary.
    pub summary: Summary,
    /// How the instruction stream was produced.
    pub source: RunSource,
    /// Trace decode throughput of the run's cohort (million ops per
    /// second of decode), as of the run's end; 0 for non-replay runs. A
    /// drop means trace I/O, checksumming or decoding got slower,
    /// independent of simulation speed.
    pub decode_mips: f64,
    /// Kernel-only simulation throughput (million simulated instructions
    /// per host second over the *measured* window, excluding system
    /// construction, warm-up, trace validation, capture I/O and a cohort
    /// window's chunk decodes — a detached member's per-op decode stays
    /// in); 0 for
    /// cache hits. Compare against the run-level `mips` to see how much
    /// wall time goes to overhead around the simulation loop.
    pub sim_mips: f64,
    /// Wall seconds inside the measured simulation window (the denominator
    /// of [`TracedRun::sim_mips`]); 0 for cache hits. Sweep-level
    /// aggregation weights per-run `sim_mips` by this, so the aggregate is
    /// total measured instructions over total kernel seconds rather than
    /// an unweighted mean of rates.
    pub sim_seconds: f64,
    /// Host seconds spent on this run itself: drawing its system, warm-up
    /// and measurement — in a cohort, its own turns only.
    pub run_seconds: f64,
    /// Telemetry collected over the measurement window; `Some` iff the
    /// run was executed with a [`TelemetryConfig`]. Replay, capture and
    /// live paths all collect identically — telemetry observes the
    /// simulation, not the stream source.
    pub telemetry: Option<TelemetryRun>,
}

/// A trace store rooted at one directory, with capture/replay accounting.
///
/// All methods take `&self`; counters are atomic and the capture-claim set
/// is mutex-guarded, so one store is shared across the worker pool.
#[derive(Debug)]
pub struct TraceStore {
    /// `None` disables capture and replay entirely.
    dir: Option<PathBuf>,
    captured: AtomicU64,
    replayed: AtomicU64,
    quarantined: AtomicU64,
    streams_decoded: AtomicU64,
    window_peak_ops: AtomicU64,
    detached: AtomicU64,
    /// Trace keys some thread is currently capturing (or has captured)
    /// this process; prevents two workers racing to write the same files.
    claims: Mutex<HashSet<String>>,
    /// Turn, chunk and cap sizes of every cohort this store runs.
    shape: WindowShape,
    /// Ops each detached member had consumed, summed over cores, when it
    /// detached.
    #[cfg(test)]
    detached_at: Mutex<Vec<u64>>,
}

/// The cohort window's sizes: [`TURN_QUANTA`], [`CHUNK_OPS`] and
/// [`WINDOW_CAP_OPS`] outside this module's tests.
#[derive(Debug, Clone, Copy)]
struct WindowShape {
    turn_quanta: u64,
    chunk_ops: u64,
    cap_ops: u64,
}

impl TraceStore {
    fn new(dir: Option<PathBuf>) -> TraceStore {
        TraceStore {
            dir,
            captured: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            streams_decoded: AtomicU64::new(0),
            window_peak_ops: AtomicU64::new(0),
            detached: AtomicU64::new(0),
            claims: Mutex::new(HashSet::new()),
            shape: WindowShape {
                turn_quanta: TURN_QUANTA,
                chunk_ops: CHUNK_OPS,
                cap_ops: WINDOW_CAP_OPS,
            },
            #[cfg(test)]
            detached_at: Mutex::new(Vec::new()),
        }
    }

    /// A store rooted at `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> TraceStore {
        TraceStore::new(Some(dir.into()))
    }

    /// A disabled store: every run executes live.
    pub fn disabled() -> TraceStore {
        TraceStore::new(None)
    }

    /// The store at `$IPSIM_TRACE_DIR` (`off`/`0` disable it), or
    /// [`DEFAULT_TRACE_DIR`] if unset.
    pub fn from_env() -> TraceStore {
        match std::env::var_os(TRACE_DIR_ENV) {
            Some(dir) if dir == "off" || dir == "0" => TraceStore::disabled(),
            Some(dir) if !dir.is_empty() => TraceStore::at(PathBuf::from(dir)),
            _ => TraceStore::at(DEFAULT_TRACE_DIR),
        }
    }

    /// Whether capture/replay is active.
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// The store's root directory, if enabled.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Workload streams captured to disk by this instance.
    pub fn captured(&self) -> u64 {
        self.captured.load(Ordering::Relaxed)
    }

    /// Runs fed from stored traces by this instance.
    pub fn replayed(&self) -> u64 {
        self.replayed.load(Ordering::Relaxed)
    }

    /// Corrupt trace files quarantined by this instance.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Streams decoded through a cohort window by this instance: one per
    /// cohort that replayed.
    pub fn streams_decoded(&self) -> u64 {
        self.streams_decoded.load(Ordering::Relaxed)
    }

    /// Most decoded ops one cohort's window held at once; never above
    /// [`WINDOW_CAP_OPS`].
    pub fn window_peak_ops(&self) -> u64 {
        self.window_peak_ops.load(Ordering::Relaxed)
    }

    /// Cohort members that detached from an over-cap window onto their
    /// own readers.
    pub fn detached(&self) -> u64 {
        self.detached.load(Ordering::Relaxed)
    }

    /// Whether `spec`'s stream can be replayed: every per-core file is
    /// present, passes [`TraceReader::verify_blocks`] (checksum speed, no
    /// decode) and holds the run's op count. A file that fails is
    /// quarantined, so the run that follows re-captures the stream.
    pub(crate) fn replayable(&self, spec: &RunSpec) -> bool {
        self.dir.is_some() && self.open_verified(spec).is_some()
    }

    /// Opens and verifies every per-core file of `spec`'s stream
    /// ([`TraceStore::replayable`]), quarantining the first that fails.
    fn open_verified(&self, spec: &RunSpec) -> Option<Vec<CoreFile>> {
        let dir = self.dir.as_deref()?;
        let key = spec.trace_key();
        let per_core_ops = spec.lengths.warm + spec.lengths.measure;
        (0..spec.config.n_cores)
            .map(|core| {
                let path = self.core_path(dir, &key, core);
                let file = File::open(&path).ok()?;
                let verified = TraceReader::open(BufReader::new(file))
                    .and_then(|mut reader| reader.verify_blocks().map(|stats| (reader, stats.ops)));
                match verified {
                    Ok((reader, ops)) if ops == per_core_ops => Some(CoreFile { path, reader }),
                    // Bad header, CRC or count — a valid file for another
                    // run length can only appear here through key
                    // tampering: move the evidence aside so a capture can
                    // rewrite the slot.
                    _ => {
                        self.quarantine(&path);
                        None
                    }
                }
            })
            .collect()
    }

    /// Path of the per-core trace file for a trace key.
    fn core_path(&self, dir: &Path, key: &str, core: u32) -> PathBuf {
        let _ = self;
        dir.join(format!("{key}.c{core}.itrace"))
    }

    /// Executes `spec`, preferring replay, then capture, then plain live
    /// generation. Never fails harder than [`RunSpec::execute`] itself:
    /// every store problem downgrades the run, it never aborts it.
    pub fn execute(&self, spec: &RunSpec) -> TracedRun {
        self.execute_with(spec, None)
    }

    /// Like [`TraceStore::execute`], but collecting telemetry over the
    /// measurement window when a config is given. The stream path chosen
    /// (replay / capture / live) is unaffected by telemetry, and — because
    /// telemetry never perturbs simulation — neither is the summary.
    ///
    /// This is a cohort of one ([`TraceStore::execute_cohort`]); a panic
    /// in the run propagates.
    pub fn execute_with(&self, spec: &RunSpec, telemetry: Option<&TelemetryConfig>) -> TracedRun {
        let mut outcome = None;
        // A lone run is not interruptible: it is the whole unit of work.
        self.cohort_until(&[spec], telemetry, &|| false, &mut |_, run| {
            outcome = Some(run)
        });
        match outcome.expect("a cohort reports every member") {
            Ok(run) => run,
            Err(message) => panic!("{message}"),
        }
    }

    /// Executes `specs` — runs over one stream, all with the same
    /// [`RunSpec::trace_key`] — as one cohort (see the module docs) and
    /// reports each as it ends through `done(index into specs, outcome)`,
    /// in completion order. A run that panics is reported as `Err` with
    /// the panic message, and the others go on. Each run builds its own
    /// system ([`RunSpec::build_system`]) and drops it when it ends.
    ///
    /// When the stream cannot be replayed, the first run captures it (or
    /// runs live when the store is disabled or another worker holds the
    /// capture), and the rest replay the fresh capture — or run live, one
    /// after another, when there is none.
    ///
    /// On a shutdown signal ([`ipsim_signal::triggered`]) the members
    /// already measuring run to the end and are reported; members still
    /// warming up, and live runs not yet started, are abandoned
    /// unreported, like runs a worker never claimed. The members left
    /// keep stepping round-robin, so the delay is at most the cohort's
    /// remaining measured work; a second signal ends the process at once.
    ///
    /// # Panics
    ///
    /// Panics if the specs do not share one trace key.
    pub fn execute_cohort(
        &self,
        specs: &[&RunSpec],
        telemetry: Option<&TelemetryConfig>,
        done: &mut dyn FnMut(usize, Result<TracedRun, String>),
    ) {
        self.cohort_until(specs, telemetry, &ipsim_signal::triggered, done);
    }

    /// [`TraceStore::execute_cohort`], stopping as on a shutdown signal
    /// once `stop` returns true; it is polled before every turn and run.
    fn cohort_until(
        &self,
        specs: &[&RunSpec],
        telemetry: Option<&TelemetryConfig>,
        stop: &dyn Fn() -> bool,
        done: &mut dyn FnMut(usize, Result<TracedRun, String>),
    ) {
        let Some(first) = specs.first() else {
            return;
        };
        let key = first.trace_key();
        assert!(
            specs.iter().all(|spec| spec.trace_key() == key),
            "a cohort's runs share one stream"
        );
        let Some(dir) = self.dir.clone() else {
            for (i, spec) in specs.iter().enumerate() {
                if stop() {
                    return;
                }
                done(i, contained(|| live_run(spec, telemetry)));
            }
            return;
        };
        let mut files = self.open_verified(first);
        let mut start = 0;
        if files.is_none() {
            done(
                0,
                contained(|| self.capture_or_live(&dir, first, &key, telemetry)),
            );
            start = 1;
            if specs.len() > 1 {
                files = self.open_verified(first);
            }
        }
        match files {
            Some(files) => {
                let members = &specs[start..];
                let done = &mut |i, run| done(start + i, run);
                self.replay_cohort(files, members, telemetry, stop, done);
            }
            None => {
                for (i, spec) in specs.iter().enumerate().skip(start) {
                    if stop() {
                        return;
                    }
                    done(i, contained(|| live_run(spec, telemetry)));
                }
            }
        }
    }

    /// Steps `specs` round-robin over one window on the verified `files`
    /// until every member has ended. Once `stop` returns true, only the
    /// members already measuring go on.
    fn replay_cohort(
        &self,
        files: Vec<CoreFile>,
        specs: &[&RunSpec],
        telemetry: Option<&TelemetryConfig>,
        stop: &dyn Fn() -> bool,
        done: &mut dyn FnMut(usize, Result<TracedRun, String>),
    ) {
        let _replay = ipsim_obs::spans().span("trace.replay");
        let shape = self.shape;
        let mut window = Window::new(files, shape.chunk_ops);
        self.streams_decoded.fetch_add(1, Ordering::Relaxed);
        let mut members = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            let t0 = Instant::now();
            match catch_unwind(AssertUnwindSafe(|| instrumented(spec, telemetry))) {
                Ok(system) => members.push(Member {
                    index: i,
                    run: WorkloadRun::new(&system, spec.lengths.warm, spec.lengths.measure),
                    pos: vec![0; window.cores.len()],
                    system,
                    detached: None,
                    seconds: t0.elapsed().as_secs_f64(),
                    measured_decode_s: 0.0,
                }),
                Err(panic) => done(i, Err(panic_message(&*panic))),
            }
        }

        let mut next = 0;
        let mut stopping = false;
        while !members.is_empty() {
            if !stopping && stop() {
                // Shutdown: members still warming up are abandoned
                // unreported; the measuring ones finish.
                stopping = true;
                members.retain(|member| member.run.measuring());
                continue;
            }
            if next >= members.len() {
                next = 0;
            }
            let member = &mut members[next];
            if member.detached.is_none() && window.turn_could_exceed(member, shape) {
                if let Err(e) = self.detach(&window, member) {
                    let member = members.remove(next);
                    done(member.index, Err(e));
                    continue;
                }
            }
            let (t0, measuring, decode_s) =
                (Instant::now(), member.run.measuring(), window.decode_s());
            let turn = catch_unwind(AssertUnwindSafe(|| {
                member.turn(&mut window, shape.turn_quanta)
            }));
            member.seconds += t0.elapsed().as_secs_f64();
            if measuring {
                member.measured_decode_s += window.decode_s() - decode_s;
            }
            self.window_peak_ops
                .fetch_max(window.held_ops(), Ordering::Relaxed);
            match turn {
                Ok(None) => next += 1,
                Ok(Some(mut metrics)) => {
                    let member = members.remove(next);
                    // Kernel time excludes decode, as it excludes capture
                    // I/O (a straddling turn's decode stays in).
                    metrics.sim_wall_seconds =
                        (metrics.sim_wall_seconds - member.measured_decode_s).max(0.0);
                    self.replayed.fetch_add(1, Ordering::Relaxed);
                    let decode_mips = window.decode_mips();
                    let run = finish(
                        member.system,
                        &metrics,
                        RunSource::Replay,
                        decode_mips,
                        member.seconds,
                    );
                    done(member.index, Ok(run));
                }
                Err(panic) => {
                    let message = panic_message(&*panic);
                    let member = members.remove(next);
                    done(member.index, Err(message));
                    if let Some((path, error)) = window.failure() {
                        // The window cannot serve another op: every member
                        // still reading it ends with the decode error.
                        self.quarantine(&path);
                        let (failed, rest) = members.into_iter().partition(Member::attached);
                        members = rest;
                        for member in failed {
                            done(member.index, Err(error.clone()));
                        }
                    }
                }
            }
            window.drop_below(members.iter().filter(|m| m.attached()).map(|m| &m.pos[..]));
        }
    }

    /// Moves `member` off the window onto its own readers, positioned
    /// where it stands in each core's stream.
    fn detach(&self, window: &Window, member: &mut Member) -> Result<(), String> {
        let open = |path: &Path, pos: u64| -> Result<_, CodecError> {
            let file = File::open(path)?;
            let mut replay = ReplaySource::new(TraceReader::open(BufReader::new(file))?)?;
            replay.seek_to_op(pos)?;
            Ok(replay)
        };
        let mut sources = Vec::with_capacity(window.cores.len());
        for (core, &pos) in window.cores.iter().zip(&member.pos) {
            let replay =
                open(&core.path, pos).map_err(|e| format!("{}: {e}", core.path.display()))?;
            sources.push(replay);
        }
        #[cfg(test)]
        self.detached_at
            .lock()
            .unwrap()
            .push(member.pos.iter().sum());
        member.detached = Some(sources);
        self.detached.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Runs `spec` live, capturing the stream if this thread wins the
    /// claim for `key` and the capture files can be written.
    fn capture_or_live(
        &self,
        dir: &Path,
        spec: &RunSpec,
        key: &str,
        telemetry: Option<&TelemetryConfig>,
    ) -> TracedRun {
        let _capture = ipsim_obs::spans().span("trace.capture");
        let claimed = self.claims.lock().unwrap().insert(key.to_string());
        if !claimed || fs::create_dir_all(dir).is_err() {
            // Someone else is already writing this stream (or the store
            // directory is unusable): plain live run.
            return live_run(spec, telemetry);
        }

        let t0 = Instant::now();
        let n_cores = spec.config.n_cores;
        let pid = std::process::id();
        let mut tmp_paths: Vec<PathBuf> = Vec::with_capacity(n_cores as usize);
        let mut writers: Vec<TraceWriter<BufWriter<File>>> = Vec::with_capacity(n_cores as usize);
        for core in 0..n_cores {
            let tmp = dir.join(format!(".{key}.c{core}.{pid}.tmp"));
            let writer = File::create(&tmp)
                .ok()
                .and_then(|f| TraceWriter::new(BufWriter::new(f), core, &spec.trace_meta()).ok());
            match writer {
                Some(w) => {
                    tmp_paths.push(tmp);
                    writers.push(w);
                }
                None => {
                    discard(&tmp_paths);
                    return live_run(spec, telemetry);
                }
            }
        }

        // Drive the run through capture tees: identical walkers to a live
        // run, with every op mirrored to its core's writer.
        let programs = spec.workloads.programs(n_cores);
        let mut tees: Vec<_> = writers
            .into_iter()
            .enumerate()
            .map(|(c, w)| Tee::new(spec.workloads.walker(&programs, c as u32), w))
            .collect();
        // A system that fails to build must leave no temp files behind.
        let mut system = match catch_unwind(AssertUnwindSafe(|| instrumented(spec, telemetry))) {
            Ok(system) => system,
            Err(panic) => {
                drop(tees);
                discard(&tmp_paths);
                std::panic::resume_unwind(panic);
            }
        };
        let mut dyns: Vec<&mut dyn OpSource> =
            tees.iter_mut().map(|t| t as &mut dyn OpSource).collect();
        let metrics = system.run_workload_from(&mut dyns, spec.lengths.warm, spec.lengths.measure);
        let seconds = t0.elapsed().as_secs_f64();
        let mut run = finish(system, &metrics, RunSource::Capture, 0.0, seconds);

        // Seal and publish. Any sink error (latched mid-run or at finish)
        // voids the whole capture but never the simulation result.
        let mut sealed = true;
        for tee in tees {
            let (writer, err) = tee.into_parts();
            if err.is_some() || writer.finish().is_err() {
                sealed = false;
            }
        }
        if sealed {
            for (core, tmp) in tmp_paths.iter().enumerate() {
                let path = self.core_path(dir, key, core as u32);
                if fs::rename(tmp, &path).is_err() {
                    sealed = false;
                    break;
                }
            }
        }
        if sealed {
            self.captured.fetch_add(1, Ordering::Relaxed);
        } else {
            discard(&tmp_paths);
            run.source = RunSource::Live;
        }
        run
    }

    /// Moves a corrupt trace aside, preserving it for inspection.
    fn quarantine(&self, path: &Path) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        let mut quarantined = path.as_os_str().to_owned();
        quarantined.push(".corrupt");
        if fs::rename(path, PathBuf::from(quarantined)).is_err() {
            let _ = fs::remove_file(path);
        }
    }
}

/// One verified per-core trace file, positioned at its first op.
struct CoreFile {
    path: PathBuf,
    reader: TraceReader<BufReader<File>>,
}

/// A cohort's decoded window: one [`CoreWindow`] per core.
struct Window {
    cores: Vec<CoreWindow>,
}

/// One core's share of a cohort window: the decoded chunks covering ops
/// `base..decoded` of its stream, and the reader that decodes more.
struct CoreWindow {
    path: PathBuf,
    reader: TraceReader<BufReader<File>>,
    chunks: VecDeque<Vec<TraceOp>>,
    /// Ops per chunk, as a power of two.
    chunk_shift: u32,
    /// Stream offset of the first held op: a multiple of the chunk size,
    /// as every chunk but the stream's last is full.
    base: u64,
    /// Ops decoded so far; the window holds `decoded - base` of them.
    decoded: u64,
    decode_s: f64,
    /// The decode error that broke this window, if one did.
    failed: Option<String>,
}

impl Window {
    fn new(files: Vec<CoreFile>, chunk_ops: u64) -> Window {
        assert!(
            chunk_ops.is_power_of_two(),
            "chunks hold a power of two ops"
        );
        Window {
            cores: files
                .into_iter()
                .map(|file| CoreWindow {
                    path: file.path,
                    reader: file.reader,
                    chunks: VecDeque::new(),
                    chunk_shift: chunk_ops.trailing_zeros(),
                    base: 0,
                    decoded: 0,
                    decode_s: 0.0,
                    failed: None,
                })
                .collect(),
        }
    }

    /// Decoded ops held, summed over cores.
    fn held_ops(&self) -> u64 {
        self.cores.iter().map(|c| c.decoded - c.base).sum()
    }

    /// Whether `member`'s next turn could push the window past the cap: a
    /// turn of `n` ops decodes nothing when the member has `n` ops
    /// decoded ahead on every core, and otherwise at most `n` beyond its
    /// nearest decoded end plus one partly used chunk per core.
    fn turn_could_exceed(&self, member: &Member, shape: WindowShape) -> bool {
        let turn_ops = shape.turn_quanta * member.system.config().sched_quantum;
        let slack = self
            .cores
            .iter()
            .zip(&member.pos)
            .map(|(core, &pos)| core.decoded.saturating_sub(pos))
            .min()
            .unwrap_or(0);
        let growth = match turn_ops.checked_sub(slack) {
            Some(beyond) if beyond > 0 => beyond + self.cores.len() as u64 * shape.chunk_ops,
            _ => 0,
        };
        self.held_ops() + growth > shape.cap_ops
    }

    /// Drops, on every core, the chunks wholly below the slowest of the
    /// attached members' positions (`positions` yields one per-core
    /// position list per member).
    fn drop_below<'a>(&mut self, positions: impl Iterator<Item = &'a [u64]>) {
        let mut lowest: Option<Vec<u64>> = None;
        for pos in positions {
            match &mut lowest {
                Some(low) => low.iter_mut().zip(pos).for_each(|(l, &p)| *l = (*l).min(p)),
                None => lowest = Some(pos.to_vec()),
            }
        }
        for (i, core) in self.cores.iter_mut().enumerate() {
            let low = lowest.as_ref().map_or(u64::MAX, |low| low[i]);
            while let Some(front) = core.chunks.front() {
                let end = core.base + front.len() as u64;
                if end > low {
                    break;
                }
                core.base = end;
                core.chunks.pop_front();
            }
        }
    }

    /// Host seconds spent decoding so far.
    fn decode_s(&self) -> f64 {
        self.cores.iter().map(|c| c.decode_s).sum()
    }

    /// Decode throughput so far, in million ops per second.
    fn decode_mips(&self) -> f64 {
        mops_per_s(self.cores.iter().map(|c| c.decoded).sum(), self.decode_s())
    }

    /// Takes the file and error of a core whose decode failed, if any.
    fn failure(&mut self) -> Option<(PathBuf, String)> {
        self.cores.iter_mut().find_map(|core| {
            let error = core.failed.take()?;
            Some((core.path.clone(), error))
        })
    }
}

impl CoreWindow {
    /// Decodes the next chunk onto the back of the window.
    ///
    /// # Panics
    ///
    /// Panics — after recording the error, so the cohort can quarantine
    /// the file and end the window's readers — when the verified trace
    /// fails to decode, and when a read runs past its end (a harness bug:
    /// the scheduler never asks past the agreed stream length).
    fn decode_chunk(&mut self) {
        let t0 = Instant::now();
        let chunk_ops = 1usize << self.chunk_shift;
        let mut chunk = Vec::with_capacity(chunk_ops);
        while chunk.len() < chunk_ops {
            match self.reader.next_op() {
                Ok(Some(op)) => chunk.push(op),
                Ok(None) => break,
                Err(e) => {
                    let error = format!("{}: {e}", self.path.display());
                    self.failed = Some(error.clone());
                    panic!("validated trace failed mid-replay: {error}");
                }
            }
        }
        assert!(!chunk.is_empty(), "replay ran past end of trace");
        self.decoded += chunk.len() as u64;
        self.chunks.push_back(chunk);
        self.decode_s += t0.elapsed().as_secs_f64();
    }

    /// The chunk holding op `pos` and `pos`'s offset in it, decoding
    /// chunks up to it first.
    fn locate(&mut self, pos: u64) -> (&[TraceOp], usize) {
        while pos >= self.decoded {
            self.decode_chunk();
        }
        let at = pos - self.base;
        let chunk = &self.chunks[(at >> self.chunk_shift) as usize];
        (chunk, (at & ((1 << self.chunk_shift) - 1)) as usize)
    }
}

/// A member's read position in one core's window, lent to its system for
/// one turn.
struct Cursor<'w> {
    core: &'w mut CoreWindow,
    pos: u64,
}

impl TraceSource for Cursor<'_> {
    fn next_op(&mut self) -> TraceOp {
        let (chunk, at) = self.core.locate(self.pos);
        let op = chunk[at];
        self.pos += 1;
        op
    }

    fn next_block(&mut self, out: &mut [TraceOp]) {
        let mut filled = 0;
        while filled < out.len() {
            let (chunk, at) = self.core.locate(self.pos);
            let n = (chunk.len() - at).min(out.len() - filled);
            out[filled..filled + n].copy_from_slice(&chunk[at..at + n]);
            filled += n;
            self.pos += n as u64;
        }
    }

    fn next_slice(&mut self, n: usize) -> Option<&[TraceOp]> {
        let pos = self.pos;
        let (chunk, at) = self.core.locate(pos);
        // A quantum that straddles two chunks is copied by `next_block`.
        let ops = chunk.get(at..at + n)?;
        self.pos = pos + n as u64;
        Some(ops)
    }
}

/// One run of a cohort: its system, its resumable run and where it stands
/// in each core's stream.
struct Member {
    /// Index in the cohort's spec list.
    index: usize,
    system: System,
    run: WorkloadRun,
    /// Ops consumed per core while attached to the window.
    pos: Vec<u64>,
    /// The member's own per-core readers, once it has detached.
    detached: Option<Vec<ReplaySource<BufReader<File>>>>,
    /// Host seconds of the member's own work so far.
    seconds: f64,
    /// Host seconds the window spent decoding during the member's
    /// measuring turns, left out of its kernel time.
    measured_decode_s: f64,
}

impl Member {
    fn attached(&self) -> bool {
        self.detached.is_none()
    }

    /// Runs one turn of at most `quanta` quanta; the metrics once the run
    /// is complete.
    fn turn(&mut self, window: &mut Window, quanta: u64) -> Option<SystemMetrics> {
        let mut quanta = quanta;
        match &mut self.detached {
            Some(readers) => {
                let mut sources: Vec<&mut dyn OpSource> =
                    readers.iter_mut().map(|r| r as &mut dyn OpSource).collect();
                self.run
                    .advance(&mut self.system, &mut sources, &mut quanta)
            }
            None => {
                let mut cursors: Vec<Cursor<'_>> = window
                    .cores
                    .iter_mut()
                    .zip(&self.pos)
                    .map(|(core, &pos)| Cursor { core, pos })
                    .collect();
                let mut sources: Vec<&mut dyn OpSource> =
                    cursors.iter_mut().map(|c| c as &mut dyn OpSource).collect();
                let metrics = self
                    .run
                    .advance(&mut self.system, &mut sources, &mut quanta);
                drop(sources);
                for (pos, cursor) in self.pos.iter_mut().zip(&cursors) {
                    *pos = cursor.pos;
                }
                metrics
            }
        }
    }
}

/// Runs `f`, turning a panic into `Err` with its message.
fn contained(f: impl FnOnce() -> TracedRun) -> Result<TracedRun, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|panic| panic_message(&*panic))
}

/// Builds `spec`'s system, with telemetry armed when a config is given.
fn instrumented(spec: &RunSpec, telemetry: Option<&TelemetryConfig>) -> System {
    let mut system = spec.build_system();
    if let Some(config) = telemetry {
        system.enable_telemetry(config.clone());
    }
    system
}

/// Executes `spec` with plain live generation (no store involvement).
fn live_run(spec: &RunSpec, telemetry: Option<&TelemetryConfig>) -> TracedRun {
    let t0 = Instant::now();
    let mut system = instrumented(spec, telemetry);
    let metrics = system.run_workload(&spec.workloads, spec.lengths.warm, spec.lengths.measure);
    let seconds = t0.elapsed().as_secs_f64();
    finish(system, &metrics, RunSource::Live, 0.0, seconds)
}

/// Packages a finished simulation that took `run_seconds` of host time
/// as a [`TracedRun`], dropping its system.
fn finish(
    mut system: System,
    metrics: &SystemMetrics,
    source: RunSource,
    decode_mips: f64,
    run_seconds: f64,
) -> TracedRun {
    TracedRun {
        summary: Summary::from_metrics(metrics),
        source,
        decode_mips,
        sim_mips: metrics.sim_mips(),
        sim_seconds: metrics.sim_wall_seconds,
        run_seconds,
        telemetry: system.take_telemetry(),
    }
}

/// Million ops per second, or 0 when no time was measured.
fn mops_per_s(ops: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        ops as f64 / 1e6 / seconds
    } else {
        0.0
    }
}

/// Removes leftover capture temp files (best effort).
fn discard(tmp_paths: &[PathBuf]) {
    for tmp in tmp_paths {
        let _ = fs::remove_file(tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunLengths;
    use ipsim_cpu::WorkloadSet;
    use ipsim_trace::Workload;
    use ipsim_types::SystemConfig;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ipsim-traces-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn spec() -> RunSpec {
        RunSpec::new(
            SystemConfig::single_core(),
            WorkloadSet::homogeneous(Workload::Db),
            RunLengths {
                warm: 1_000,
                measure: 3_000,
            },
        )
    }

    #[test]
    fn capture_then_replay_matches_live() {
        let dir = tmp_dir("roundtrip");
        let store = TraceStore::at(&dir);
        let spec = spec();
        let live = spec.execute();

        let first = store.execute(&spec);
        assert_eq!(first.source, RunSource::Capture);
        assert_eq!(first.summary, live);

        let second = store.execute(&spec);
        assert_eq!(second.source, RunSource::Replay);
        assert_eq!(second.summary, live);
        assert!(second.decode_mips >= 0.0);
        assert!(first.sim_mips > 0.0, "capture runs are timed");
        assert!(second.sim_mips > 0.0, "replay runs are timed");

        assert_eq!((store.captured(), store.replayed()), (1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_works_across_configs_sharing_the_stream() {
        let dir = tmp_dir("crossconfig");
        let store = TraceStore::at(&dir);
        let base = spec();
        let other = base
            .clone()
            .prefetcher(ipsim_core::PrefetcherKind::NextLineTagged);
        assert_eq!(base.trace_key(), other.trace_key());
        assert_ne!(base.cache_key(), other.cache_key());

        assert_eq!(store.execute(&base).source, RunSource::Capture);
        let replayed = store.execute(&other);
        assert_eq!(replayed.source, RunSource::Replay);
        assert_eq!(replayed.summary, other.execute());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_traces_are_quarantined_and_fall_back_to_live() {
        let dir = tmp_dir("corrupt");
        let store = TraceStore::at(&dir);
        let spec = spec();
        assert_eq!(store.execute(&spec).source, RunSource::Capture);

        // Flip one payload byte in the stored trace.
        let path = store.core_path(&dir, &spec.trace_key(), 0);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        // A fresh store (no claim memory) quarantines, then re-captures.
        let store2 = TraceStore::at(&dir);
        let run = store2.execute(&spec);
        assert_eq!(run.source, RunSource::Capture);
        assert_eq!(run.summary, spec.execute());
        assert_eq!(store2.quarantined(), 1);
        assert!(!path.exists() || fs::read(&path).unwrap() != bytes);
        let corrupt: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".corrupt"))
            .collect();
        assert_eq!(corrupt.len(), 1);

        // And the re-captured trace replays.
        assert_eq!(store2.execute(&spec).source, RunSource::Replay);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A capture whose system fails to build panics before it creates
    /// any temp file, so the trace directory is left clean.
    #[test]
    fn a_capture_that_fails_to_build_leaves_no_temp_files() {
        let dir = tmp_dir("buildfail");
        let store = TraceStore::at(&dir);
        let mut broken = spec();
        broken.config.core.issue_width = 0;
        let run = catch_unwind(AssertUnwindSafe(|| store.execute(&broken)));
        assert!(run.is_err(), "an invalid configuration panics");
        let left: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert!(left.is_empty(), "capture left {left:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_store_always_runs_live() {
        let store = TraceStore::disabled();
        let run = store.execute(&spec());
        assert_eq!(run.source, RunSource::Live);
        assert!(run.sim_mips > 0.0, "live runs are timed");
        assert_eq!((store.captured(), store.replayed()), (0, 0));
    }

    #[test]
    fn telemetry_flows_through_every_stream_path() {
        let dir = tmp_dir("telemetry");
        let store = TraceStore::at(&dir);
        let spec = spec();
        let config = TelemetryConfig::default();
        let plain = spec.execute();

        let capture = store.execute_with(&spec, Some(&config));
        assert_eq!(capture.source, RunSource::Capture);
        let replay = store.execute_with(&spec, Some(&config));
        assert_eq!(replay.source, RunSource::Replay);
        let live = TraceStore::disabled().execute_with(&spec, Some(&config));
        assert_eq!(live.source, RunSource::Live);

        for run in [&capture, &replay, &live] {
            assert_eq!(run.summary, plain, "telemetry perturbed a summary");
            let telem = run.telemetry.as_ref().expect("telemetry was requested");
            // One core, measure < interval: at least the final snapshot.
            assert!(!telem.samples.is_empty());
        }
        assert!(store.execute(&spec).telemetry.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every byte a telemetry run serialises to, through each writer.
    fn telemetry_bytes(run: &TelemetryRun) -> Vec<u8> {
        use ipsim_telemetry::sink;
        let mut bytes = Vec::new();
        sink::write_events_jsonl(&mut bytes, run).unwrap();
        sink::write_chrome_trace(&mut bytes, run).unwrap();
        sink::write_series_tsv(&mut bytes, &run.samples).unwrap();
        sink::write_component_summary_tsv(&mut bytes, run).unwrap();
        sink::write_zoo_tsv(&mut bytes, &run.zoo).unwrap();
        bytes
    }

    /// Runs `specs` as one cohort through `store`, returning each run's
    /// outcome in spec order.
    fn cohort(
        store: &TraceStore,
        specs: &[RunSpec],
        telemetry: Option<&TelemetryConfig>,
    ) -> Vec<TracedRun> {
        let members: Vec<&RunSpec> = specs.iter().collect();
        let mut runs: Vec<Option<TracedRun>> = specs.iter().map(|_| None).collect();
        store.execute_cohort(&members, telemetry, &mut |i, run| {
            assert!(runs[i].is_none(), "member {i} reported twice");
            runs[i] = Some(run.expect("no member fails"));
        });
        runs.into_iter()
            .map(|r| r.expect("every member reports"))
            .collect()
    }

    /// Asserts each cohort run equals executing its spec alone, summary
    /// and telemetry bytes alike.
    fn assert_matches_alone(
        specs: &[RunSpec],
        runs: &[TracedRun],
        config: Option<&TelemetryConfig>,
    ) {
        let alone = TraceStore::disabled();
        for (spec, run) in specs.iter().zip(runs) {
            let want = alone.execute_with(spec, config);
            assert_eq!(run.source, RunSource::Replay, "{}", spec.label());
            assert_eq!(run.summary, want.summary, "{}", spec.label());
            assert!(run.sim_seconds > 0.0 && run.run_seconds >= run.sim_seconds);
            assert_eq!(
                run.telemetry.as_ref().map(telemetry_bytes),
                want.telemetry.as_ref().map(telemetry_bytes),
                "{}: telemetry bytes differ",
                spec.label()
            );
        }
    }

    /// Three single-core runs over one stream — a prefetcher on one —
    /// stepped as a cohort in small turns give exactly the summaries and
    /// telemetry of each run alone, with telemetry off and on; the
    /// stream is decoded once and the window stays within one turn of
    /// the members.
    #[test]
    fn a_single_core_cohort_matches_each_run_alone() {
        let dir = tmp_dir("cohort1");
        let mut store = TraceStore::at(&dir);
        store.shape = WindowShape {
            turn_quanta: 8,
            chunk_ops: 64,
            cap_ops: WINDOW_CAP_OPS,
        };
        let base = spec();
        let mut l1i = base.clone();
        l1i.config.core.l1i = ipsim_types::CacheConfig::new(16 << 10, 4, 64).unwrap();
        let specs = [
            base.clone(),
            base.clone()
                .prefetcher(ipsim_core::PrefetcherKind::discontinuity_default()),
            l1i,
        ];
        assert_eq!(store.execute(&base).source, RunSource::Capture);
        let config = TelemetryConfig {
            interval: 500,
            max_events_per_core: 4_096,
        };
        for telemetry in [None, Some(&config)] {
            let runs = cohort(&store, &specs, telemetry);
            assert_matches_alone(&specs, &runs, telemetry);
        }
        assert_eq!((store.streams_decoded(), store.detached()), (2, 0));
        // Lockstep members: the window holds about one turn (8 quanta of
        // 16 ops) plus a partly read chunk.
        assert!(
            store.window_peak_ops() <= 8 * 16 + 2 * 64,
            "{}",
            store.window_peak_ops()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// CMP-4 runs at three L2 sizes drift apart in the stream; with the
    /// cap forced small one member detaches mid-run onto its own readers,
    /// and every summary still equals the run alone.
    #[test]
    fn an_over_cap_cmp_member_detaches_mid_run_and_matches() {
        let dir = tmp_dir("cohort4");
        let lengths = RunLengths {
            warm: 5_000,
            measure: 15_000,
        };
        let specs: Vec<RunSpec> = [1u64, 2, 4]
            .iter()
            .map(|mb| {
                let mut config = SystemConfig::cmp4();
                config.mem.l2 = ipsim_types::CacheConfig::new(mb << 20, 4, 64).unwrap();
                RunSpec::new(config, WorkloadSet::mixed(), lengths)
            })
            .collect();
        let shape = WindowShape {
            turn_quanta: 4,
            chunk_ops: 16,
            cap_ops: 1_000,
        };
        let mut store = TraceStore::at(&dir);
        store.shape = shape;
        assert_eq!(store.execute(&specs[0]).source, RunSource::Capture);
        let runs = cohort(&store, &specs, None);
        assert_matches_alone(&specs, &runs, None);

        let at = store.detached_at.lock().unwrap().clone();
        let total = 4 * (lengths.warm + lengths.measure);
        assert!(!at.is_empty(), "no member detached");
        assert!(at.len() < specs.len(), "every member detached");
        assert!(at.iter().all(|&ops| ops > 0 && ops < total), "{at:?}");
        assert!(store.window_peak_ops() <= shape.cap_ops);
        assert_eq!(store.streams_decoded(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// An interrupted cohort records exactly its members that were
    /// measuring when the stop came, each equal to its run alone; members
    /// still warming up are abandoned unreported. A lone run ignores the
    /// stop.
    #[test]
    fn an_interrupted_cohort_finishes_only_its_measuring_members() {
        let dir = tmp_dir("interrupt");
        let mut store = TraceStore::at(&dir);
        store.shape = WindowShape {
            turn_quanta: 8,
            chunk_ops: 64,
            cap_ops: WINDOW_CAP_OPS,
        };
        // A 64-op scheduling quantum moves a member four times as far per
        // turn as the default 16, over the same stream: 512 ops a turn
        // against 128, so it ends the 1 000-op warm-up in its second turn
        // and the others in their eighth.
        let base = spec();
        let mut coarse = base.clone();
        coarse.config.sched_quantum = 64;
        let nl = base
            .clone()
            .prefetcher(ipsim_core::PrefetcherKind::NextLineTagged);
        let specs = [base.clone(), coarse, nl];
        assert_eq!(store.execute(&base).source, RunSource::Capture);

        let members: Vec<&RunSpec> = specs.iter().collect();
        // Stop polls come one per turn, round-robin: turn `n` of member
        // `m` is poll `3 * (n - 1) + m + 1`.
        for (polls_before_stop, want) in [(0, vec![]), (5, vec![1]), (24, vec![0, 1, 2])] {
            let polls = std::cell::Cell::new(0);
            let stop = || {
                polls.set(polls.get() + 1);
                polls.get() > polls_before_stop
            };
            let mut reported = Vec::new();
            store.cohort_until(&members, None, &stop, &mut |i, run| {
                let run = run.expect("no member fails");
                assert_eq!(run.summary, specs[i].execute(), "{}", specs[i].label());
                reported.push(i);
            });
            reported.sort_unstable();
            assert_eq!(reported, want, "stopped after {polls_before_stop} polls");
        }
        let mut lone = None;
        store.cohort_until(&[&base], None, &|| true, &mut |_, run| lone = Some(run));
        assert!(lone.is_none(), "a stopped cohort of one reports nothing");
        assert_eq!(store.execute(&base).summary, base.execute());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Rewrites a sealed trace file's index so block 0 claims `n_ops` ops,
    /// with the index total and CRC re-sealed to match.
    fn inflate_first_block(path: &Path, n_ops: u32) {
        let mut bytes = fs::read(path).unwrap();
        let len = bytes.len();
        let footer = u64::from_le_bytes(bytes[len - 20..len - 12].try_into().unwrap()) as usize;
        let body = footer + 8;
        let n_blocks = u64::from_le_bytes(bytes[body..body + 8].try_into().unwrap()) as usize;
        let entry = |i: usize| body + 8 + i * 12;
        bytes[entry(0) + 8..entry(0) + 12].copy_from_slice(&n_ops.to_le_bytes());
        let total: u64 = (0..n_blocks)
            .map(|i| {
                let at = entry(i) + 8;
                u64::from(u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()))
            })
            .sum();
        let total_at = entry(n_blocks);
        bytes[total_at..total_at + 8].copy_from_slice(&total.to_le_bytes());
        let crc = ipsim_stream::crc32::crc32(&bytes[body..total_at + 8]);
        bytes[total_at + 8..total_at + 12].copy_from_slice(&crc.to_le_bytes());
        fs::write(path, bytes).unwrap();
    }

    /// A trace whose index passes its CRC but claims more ops than the
    /// file can hold — or a valid trace of another run length under this
    /// key — is quarantined before any decode and recaptured.
    #[test]
    fn crc_valid_lying_indexes_are_quarantined_and_recaptured() {
        let dir = tmp_dir("inflated");
        let spec = spec();
        let live = spec.execute();
        let store = TraceStore::at(&dir);
        assert_eq!(store.execute(&spec).source, RunSource::Capture);
        let path = store.core_path(&dir, &spec.trace_key(), 0);
        inflate_first_block(&path, u32::MAX);

        let store = TraceStore::at(&dir);
        assert!(!store.replayable(&spec));
        assert_eq!(store.quarantined(), 1);
        // Put the crafted file back: a direct replay meets it at open.
        fs::rename(path.with_extension("itrace.corrupt"), &path).unwrap();
        let run = store.execute(&spec);
        assert_eq!(
            (run.source, run.summary),
            (RunSource::Capture, live.clone())
        );
        assert_eq!(store.quarantined(), 2);
        assert_eq!(store.execute(&spec).source, RunSource::Replay);

        // A valid stream of another run length, planted under this key.
        let mut longer = spec.clone();
        longer.lengths.measure += 1;
        assert_eq!(store.execute(&longer).source, RunSource::Capture);
        let store = TraceStore::at(&dir);
        fs::copy(store.core_path(&dir, &longer.trace_key(), 0), &path).unwrap();
        let run = store.execute(&spec);
        assert_eq!((run.source, run.summary), (RunSource::Capture, live));
        assert_eq!((store.quarantined(), store.streams_decoded()), (1, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_claim_prevents_double_capture() {
        let dir = tmp_dir("claims");
        let store = TraceStore::at(&dir);
        let spec = spec();
        // Simulate another worker holding the claim.
        store.claims.lock().unwrap().insert(spec.trace_key());
        let run = store.execute(&spec);
        assert_eq!(run.source, RunSource::Live);
        assert_eq!(store.captured(), 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
