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
//! * replay verifies every block CRC before the simulation starts (at
//!   checksum speed, no decode), so a corrupt file is quarantined to
//!   `*.corrupt` (evidence, not deleted) and the run transparently falls
//!   back to live generation — there is no mid-run failure path;
//! * capture I/O errors degrade the run to plain live generation
//!   (the simulation result is identical either way).
//!
//! Replays that fit [`DEFAULT_ARENA_OPS`] decode their stream set once
//! into a shared in-memory arena. A sweep announces how many runs each
//! stream has ([`TraceStore::announce`]); every run releases its stream
//! once ([`TraceStore::release`]), and the arena is dropped with the last
//! release, so a stream's decoded ops live only while its runs do. Its
//! per-core buffers go to an idle pool, and the next stream decodes into
//! them instead of fresh allocations, so the store's memory follows the
//! arena budget rather than the allocator's reuse of freed blocks.
//! Streams nobody announced (direct [`TraceStore::execute`] calls) keep
//! their arenas for the store's lifetime.

use std::collections::{HashMap, HashSet};
use std::fs::{self, File};
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ipsim_cpu::{OpSource, System, SystemMetrics};
use ipsim_stream::{ArenaSource, ReplaySource, Tee, TraceReader, TraceWriter};
use ipsim_telemetry::{TelemetryConfig, TelemetryRun};
use ipsim_types::instr::TraceOp;

use crate::spec::RunSpec;
use crate::summary::Summary;

/// Environment variable overriding the trace directory. The values `off`
/// and `0` disable the store entirely.
pub const TRACE_DIR_ENV: &str = "IPSIM_TRACE_DIR";

/// Default trace directory, relative to the working directory.
pub const DEFAULT_TRACE_DIR: &str = "results/traces";

/// The in-memory arena budget: decoded ops live at once, summed over every
/// arena a store holds or is decoding — 16 million ops (~a few hundred MB
/// at `TraceOp` width), far below a machine-threatening allocation. It is
/// a hard bound: ops are reserved under the store's lock before a decode
/// starts, and a replay whose stream set does not fit — every full-length
/// run at 30M ops per core, for one — streams through the codec instead.
pub const DEFAULT_ARENA_OPS: u64 = 16_000_000;

/// A reusable simulator slot: keeps the last [`System`] built for a
/// [`RunSpec::system_key`] and serves it back reset-in-place
/// ([`System::reset_cold`]) instead of re-allocating caches, predictors
/// and queues for every run. A sweep varies workloads far more often than
/// systems, so the common case is a key hit.
///
/// The slot is ownership-transfer, not borrowing: [`SystemSlot::take`]
/// moves the system out and [`SystemSlot::put`] returns it. If a run
/// panics between the two, the system is simply never returned and the
/// next `take` builds fresh — a poisoned simulator can never leak into a
/// later run. One slot per pool worker; slots are not `Sync`.
#[derive(Default)]
pub struct SystemSlot {
    key: Option<String>,
    system: Option<System>,
}

impl SystemSlot {
    /// An empty slot; the first [`SystemSlot::take`] builds fresh.
    pub fn new() -> SystemSlot {
        SystemSlot::default()
    }

    /// A system for `spec`: the stored one reset in place when its
    /// [`RunSpec::system_key`] matches, a fresh build otherwise.
    pub fn take(&mut self, spec: &RunSpec) -> System {
        let want = spec.system_key();
        let system = match (self.key.as_deref(), self.system.take()) {
            (Some(have), Some(mut system)) if have == want => {
                system.reset_cold();
                system
            }
            _ => spec.build_system(),
        };
        self.key = Some(want);
        system
    }

    /// Returns a system taken with [`SystemSlot::take`] for reuse. Only
    /// hand back the system from the matching `take` — the slot assumes
    /// it corresponds to the key recorded there.
    pub fn put(&mut self, system: System) {
        self.system = Some(system);
    }
}

/// One fully decoded stream set (all cores of one trace key) plus the
/// decode throughput observed while building it.
#[derive(Debug, Clone)]
struct CachedArena {
    ops: Arc<Vec<Vec<TraceOp>>>,
    decode_mips: f64,
}

/// Per-core view into a shared arena, so each core's [`ArenaSource`] can
/// borrow its slice while all cores share one `Arc`.
struct CoreOps {
    arena: Arc<Vec<Vec<TraceOp>>>,
    core: usize,
}

impl AsRef<[TraceOp]> for CoreOps {
    fn as_ref(&self) -> &[TraceOp] {
        &self.arena[self.core]
    }
}

/// Arena admission outcome for one replay attempt.
enum ArenaOutcome {
    /// Decoded (or already cached) streams, ready to serve zero-copy.
    Hit(CachedArena),
    /// A per-core file is missing or corrupt — capture instead.
    Missing,
    /// The run's streams don't fit the arena budget, or another worker is
    /// decoding them right now — stream the replay through the codec.
    Stream,
}

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
    /// Trace throughput before a replay (million ops per second); 0 for
    /// non-replay runs. On the arena path it is the full decode of the
    /// run's streams into memory (measured once, when the arena is built,
    /// and repeated for every replay it serves); on the streaming path it
    /// is the CRC verification scan of every block, with no decode. A drop
    /// means trace I/O, checksumming or decoding got slower, independent
    /// of simulation speed.
    pub decode_mips: f64,
    /// Kernel-only simulation throughput (million simulated instructions
    /// per host second over the *measured* window, excluding system
    /// construction, warm-up, trace validation and capture I/O); 0 for
    /// cache hits. Compare against the run-level `mips` to see how much
    /// wall time goes to overhead around the simulation loop.
    pub sim_mips: f64,
    /// Wall seconds inside the measured simulation window (the denominator
    /// of [`TracedRun::sim_mips`]); 0 for cache hits. Sweep-level
    /// aggregation weights per-run `sim_mips` by this, so the aggregate is
    /// total measured instructions over total kernel seconds rather than
    /// an unweighted mean of rates.
    pub sim_seconds: f64,
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
    /// Trace keys some thread is currently capturing (or has captured)
    /// this process; prevents two workers racing to write the same files.
    claims: Mutex<HashSet<String>>,
    /// Decoded streams, keyed by trace key and shared across the worker
    /// pool, with the announced-run counts that decide when each is
    /// dropped.
    arenas: Mutex<ArenaCache>,
    /// Decoded ops the arenas may hold or be decoding at once
    /// ([`DEFAULT_ARENA_OPS`]); a replay that would exceed it streams
    /// through the codec instead.
    arena_budget: u64,
}

#[derive(Debug, Default)]
struct ArenaCache {
    /// Arenas held or being decoded, by trace key; at most one per key.
    map: HashMap<String, ArenaEntry>,
    /// Ops of every entry in `map`, decoding ones included; with
    /// `idle_ops`, never above the store's `arena_budget`.
    live_ops: u64,
    /// Per-core buffers of released arenas, cleared, waiting for the next
    /// decode.
    idle: Vec<Vec<TraceOp>>,
    /// Capacity, in ops, of the buffers in `idle`.
    idle_ops: u64,
    /// High-water mark of `live_ops`.
    peak_ops: u64,
    /// Arenas decoded so far.
    decoded: u64,
    /// Announced runs per trace key that have not yet released it.
    pending: HashMap<String, u64>,
}

#[derive(Debug)]
struct ArenaEntry {
    /// Decoded ops reserved for the stream set (all cores).
    ops: u64,
    /// `None` while one worker decodes it; runs arriving meanwhile stream.
    arena: Option<CachedArena>,
}

impl TraceStore {
    fn new(dir: Option<PathBuf>) -> TraceStore {
        TraceStore {
            dir,
            captured: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            claims: Mutex::new(HashSet::new()),
            arenas: Mutex::new(ArenaCache::default()),
            arena_budget: DEFAULT_ARENA_OPS,
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

    /// Stream sets decoded into an arena by this instance.
    pub fn arenas_decoded(&self) -> u64 {
        self.arenas.lock().unwrap().decoded
    }

    /// Most decoded ops this instance held (or was decoding) at once;
    /// never above [`DEFAULT_ARENA_OPS`].
    pub fn arena_peak_ops(&self) -> u64 {
        self.arenas.lock().unwrap().peak_ops
    }

    /// Announces `runs` more runs over the stream `key`
    /// ([`RunSpec::trace_key`]). Each must later call
    /// [`TraceStore::release`] once; the stream's arena is dropped when
    /// the last of them has.
    pub(crate) fn announce(&self, key: &str, runs: u64) {
        if runs > 0 {
            *self
                .arenas
                .lock()
                .unwrap()
                .pending
                .entry(key.to_string())
                .or_default() += runs;
        }
    }

    /// Marks one announced run over `key` finished, whatever its outcome.
    /// The last release drops the stream's arena, returns its ops to the
    /// budget and pools its buffers for the next decode. A key nobody
    /// announced is left alone, arena included.
    pub(crate) fn release(&self, key: &str) {
        let mut cache = self.arenas.lock().unwrap();
        let Some(left) = cache.pending.get_mut(key) else {
            return;
        };
        *left -= 1;
        if *left > 0 {
            return;
        }
        cache.pending.remove(key);
        // A decode still in flight here belongs to a run nobody announced;
        // it finishes into a retained arena, as such runs' arenas are.
        let Some(entry) = cache.map.get_mut(key) else {
            return;
        };
        let Some(arena) = entry.arena.take() else {
            return;
        };
        let ops = entry.ops;
        cache.map.remove(key);
        cache.live_ops -= ops;
        // Pool the buffers unless a run nobody announced still reads them.
        let Ok(cores) = Arc::try_unwrap(arena.ops) else {
            return;
        };
        for mut buffer in cores {
            let capacity = buffer.capacity() as u64;
            if cache.live_ops + cache.idle_ops + capacity <= self.arena_budget {
                buffer.clear();
                cache.idle_ops += capacity;
                cache.idle.push(buffer);
            }
        }
    }

    /// Whether a decoded arena for `key` is held right now.
    #[cfg(test)]
    pub(crate) fn holds_arena(&self, key: &str) -> bool {
        self.arenas
            .lock()
            .unwrap()
            .map
            .get(key)
            .is_some_and(|e| e.arena.is_some())
    }

    /// Whether `spec`'s stream can be replayed: every per-core file is
    /// present, passes [`TraceReader::verify_blocks`] (checksum speed, no
    /// decode) and holds the run's op count. A file that fails is
    /// quarantined, so the run that follows re-captures the stream.
    pub(crate) fn replayable(&self, spec: &RunSpec) -> bool {
        let Some(dir) = self.dir.as_deref() else {
            return false;
        };
        let key = spec.trace_key();
        let per_core_ops = spec.lengths.warm + spec.lengths.measure;
        (0..spec.config.n_cores).all(|core| {
            let path = self.core_path(dir, &key, core);
            let Ok(file) = File::open(&path) else {
                return false;
            };
            let verified = TraceReader::open(BufReader::new(file))
                .and_then(|mut reader| reader.verify_blocks())
                .is_ok_and(|stats| stats.ops == per_core_ops);
            if !verified {
                self.quarantine(&path);
            }
            verified
        })
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
    pub fn execute_with(&self, spec: &RunSpec, telemetry: Option<&TelemetryConfig>) -> TracedRun {
        self.execute_in(spec, telemetry, &mut SystemSlot::new())
    }

    /// Like [`TraceStore::execute_with`], but drawing the simulator from
    /// `slot` ([`SystemSlot::take`]) and returning it afterwards, so
    /// back-to-back runs over the same system configuration reset in
    /// place instead of rebuilding. Results are identical to a fresh
    /// build ([`System::reset_cold`] restores post-construction state
    /// exactly); only construction cost changes.
    pub fn execute_in(
        &self,
        spec: &RunSpec,
        telemetry: Option<&TelemetryConfig>,
        slot: &mut SystemSlot,
    ) -> TracedRun {
        let Some(dir) = self.dir.clone() else {
            return live_run(spec, telemetry, slot);
        };
        let key = spec.trace_key();
        match self.try_replay(&dir, spec, &key, telemetry, slot) {
            Some(run) => run,
            None => self.capture_or_live(&dir, spec, &key, telemetry, slot),
        }
    }

    /// Attempts to serve `spec` from stored traces. Returns `None` when
    /// any per-core file is missing or fails validation (corrupt files are
    /// quarantined on the way out).
    fn try_replay(
        &self,
        dir: &Path,
        spec: &RunSpec,
        key: &str,
        telemetry: Option<&TelemetryConfig>,
        slot: &mut SystemSlot,
    ) -> Option<TracedRun> {
        let _replay = ipsim_obs::spans().span("trace.replay");
        let n_cores = spec.config.n_cores;
        let per_core_ops = spec.lengths.warm + spec.lengths.measure;
        // Zero-copy fast path: decode the whole stream set once into a
        // shared arena and lend the scheduler borrowed slices. Over-budget
        // runs, and runs arriving while another worker decodes the same
        // stream, fall through to the per-op streaming decoder below.
        match self.arena_for(dir, key, n_cores, per_core_ops) {
            ArenaOutcome::Hit(arena) => {
                let mut sources: Vec<ArenaSource<CoreOps>> = (0..n_cores as usize)
                    .map(|core| {
                        ArenaSource::new(CoreOps {
                            arena: arena.ops.clone(),
                            core,
                        })
                    })
                    .collect();
                let mut system = instrumented(spec, telemetry, slot);
                let mut dyns: Vec<&mut dyn OpSource> =
                    sources.iter_mut().map(|s| s as &mut dyn OpSource).collect();
                let metrics =
                    system.run_workload_from(&mut dyns, spec.lengths.warm, spec.lengths.measure);
                self.replayed.fetch_add(1, Ordering::Relaxed);
                return Some(finish(
                    system,
                    slot,
                    &metrics,
                    RunSource::Replay,
                    arena.decode_mips,
                ));
            }
            ArenaOutcome::Missing => return None,
            ArenaOutcome::Stream => {}
        }
        let mut sources: Vec<ReplaySource<BufReader<File>>> = Vec::with_capacity(n_cores as usize);
        let t0 = Instant::now();
        for core in 0..n_cores {
            let path = self.core_path(dir, key, core);
            let file = File::open(&path).ok()?;
            let replay = match TraceReader::open(BufReader::new(file)).and_then(ReplaySource::new) {
                Ok(replay) => replay,
                Err(_) => {
                    // Bad header, CRC or count: move the evidence aside so
                    // the follow-up capture can rewrite the slot.
                    self.quarantine(&path);
                    return None;
                }
            };
            if replay.stats().ops != per_core_ops {
                // A valid file for a different run length can only appear
                // here through key tampering; treat it as corrupt.
                self.quarantine(&path);
                return None;
            }
            sources.push(replay);
        }
        let decode_s = t0.elapsed().as_secs_f64();
        let decoded_ops: u64 = sources.iter().map(|s| s.stats().ops).sum();
        let mut system = instrumented(spec, telemetry, slot);
        let mut dyns: Vec<&mut dyn OpSource> =
            sources.iter_mut().map(|s| s as &mut dyn OpSource).collect();
        let metrics = system.run_workload_from(&mut dyns, spec.lengths.warm, spec.lengths.measure);
        self.replayed.fetch_add(1, Ordering::Relaxed);
        let decode_mips = mops_per_s(decoded_ops, decode_s);
        Some(finish(
            system,
            slot,
            &metrics,
            RunSource::Replay,
            decode_mips,
        ))
    }

    /// Finds or builds the decoded arena for `key`. The per-core files are
    /// opened and their indexed op counts checked first; then the stream
    /// set's ops are reserved against the budget under the lock, so a
    /// decode in flight already counts, and at most one worker decodes a
    /// key. A stream being decoded, or one that does not fit, streams.
    fn arena_for(&self, dir: &Path, key: &str, n_cores: u32, per_core_ops: u64) -> ArenaOutcome {
        if let Some(outcome) = self.admit(key, n_cores, per_core_ops, None) {
            return outcome;
        }
        let mut readers = Vec::with_capacity(n_cores as usize);
        for core in 0..n_cores {
            let path = self.core_path(dir, key, core);
            let Ok(file) = File::open(&path) else {
                return ArenaOutcome::Missing;
            };
            match TraceReader::open(BufReader::new(file)) {
                // The index is checked before any decode reserves memory
                // for it: a valid file for a different run length can only
                // appear through key tampering.
                Ok(reader) if reader.total_ops() == per_core_ops => readers.push((path, reader)),
                Ok(_) | Err(_) => {
                    self.quarantine(&path);
                    return ArenaOutcome::Missing;
                }
            }
        }
        let mut cores = Vec::with_capacity(n_cores as usize);
        if let Some(outcome) = self.admit(key, n_cores, per_core_ops, Some(&mut cores)) {
            return outcome;
        }
        let t0 = Instant::now();
        for ((path, mut reader), ops) in readers.into_iter().zip(&mut cores) {
            if reader.decode_all_into(ops).is_err() {
                // Corrupt or truncated: give the reservation back,
                // quarantine and recapture.
                let mut cache = self.arenas.lock().unwrap();
                if let Some(entry) = cache.map.remove(key) {
                    cache.live_ops -= entry.ops;
                }
                drop(cache);
                self.quarantine(&path);
                return ArenaOutcome::Missing;
            }
        }
        let total_ops = per_core_ops * u64::from(n_cores);
        let arena = CachedArena {
            ops: Arc::new(cores),
            decode_mips: mops_per_s(total_ops, t0.elapsed().as_secs_f64()),
        };
        let mut cache = self.arenas.lock().unwrap();
        cache.decoded += 1;
        if let Some(entry) = cache.map.get_mut(key) {
            entry.arena = Some(arena.clone());
        }
        ArenaOutcome::Hit(arena)
    }

    /// The arena cache's verdict for `key` under the lock: a ready arena
    /// is a hit; a decode in flight, or the stream set's ops beyond what
    /// live arenas leave of the budget, streams. Otherwise `None` — and
    /// with `buffers`, the ops are booked, the key marked as decoding by
    /// the caller, and `buffers` given one cleared buffer per core: a
    /// pooled one where one is large enough, else a new one. Idle buffers
    /// not taken are dropped as far as the reservation needs their room.
    fn admit(
        &self,
        key: &str,
        n_cores: u32,
        per_core_ops: u64,
        buffers: Option<&mut Vec<Vec<TraceOp>>>,
    ) -> Option<ArenaOutcome> {
        let mut cache = self.arenas.lock().unwrap();
        if let Some(entry) = cache.map.get(key) {
            return Some(match &entry.arena {
                Some(arena) => ArenaOutcome::Hit(arena.clone()),
                None => ArenaOutcome::Stream,
            });
        }
        let total_ops = per_core_ops * u64::from(n_cores);
        if cache.live_ops + total_ops > self.arena_budget {
            return Some(ArenaOutcome::Stream);
        }
        let buffers = buffers?;
        // A reused buffer books its whole capacity.
        let mut reserved = 0;
        for _ in 0..n_cores {
            let snuggest = (0..cache.idle.len())
                .filter(|&i| cache.idle[i].capacity() as u64 >= per_core_ops)
                .min_by_key(|&i| cache.idle[i].capacity());
            let buffer = snuggest.map_or_else(Vec::new, |i| cache.idle.swap_remove(i));
            cache.idle_ops -= buffer.capacity() as u64;
            reserved += (buffer.capacity() as u64).max(per_core_ops);
            buffers.push(buffer);
        }
        if cache.live_ops + reserved > self.arena_budget {
            // Oversized pooled buffers would breach the budget: decode
            // into fresh ones.
            buffers.iter_mut().for_each(|b| *b = Vec::new());
            reserved = total_ops;
        }
        while cache.live_ops + reserved + cache.idle_ops > self.arena_budget {
            let dropped = cache.idle.pop().expect("live arenas fit the budget");
            cache.idle_ops -= dropped.capacity() as u64;
        }
        cache.live_ops += reserved;
        cache.peak_ops = cache.peak_ops.max(cache.live_ops);
        cache.map.insert(
            key.to_string(),
            ArenaEntry {
                ops: reserved,
                arena: None,
            },
        );
        None
    }

    /// Runs `spec` live, capturing the stream if this thread wins the
    /// claim for `key` and the capture files can be written.
    fn capture_or_live(
        &self,
        dir: &Path,
        spec: &RunSpec,
        key: &str,
        telemetry: Option<&TelemetryConfig>,
        slot: &mut SystemSlot,
    ) -> TracedRun {
        let _capture = ipsim_obs::spans().span("trace.capture");
        let claimed = self.claims.lock().unwrap().insert(key.to_string());
        if !claimed || fs::create_dir_all(dir).is_err() {
            // Someone else is already writing this stream (or the store
            // directory is unusable): plain live run.
            return live_run(spec, telemetry, slot);
        }

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
                    return live_run(spec, telemetry, slot);
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
        let mut system = instrumented(spec, telemetry, slot);
        let mut dyns: Vec<&mut dyn OpSource> =
            tees.iter_mut().map(|t| t as &mut dyn OpSource).collect();
        let metrics = system.run_workload_from(&mut dyns, spec.lengths.warm, spec.lengths.measure);
        let mut run = finish(system, slot, &metrics, RunSource::Capture, 0.0);

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

/// Draws `spec`'s system from `slot` with telemetry armed when a config
/// is given. ([`System::reset_cold`] disarms telemetry, so a reused
/// system never inherits instrumentation from its previous run.)
fn instrumented(
    spec: &RunSpec,
    telemetry: Option<&TelemetryConfig>,
    slot: &mut SystemSlot,
) -> System {
    let mut system = slot.take(spec);
    if let Some(config) = telemetry {
        system.enable_telemetry(config.clone());
    }
    system
}

/// Executes `spec` with plain live generation (no store involvement).
fn live_run(
    spec: &RunSpec,
    telemetry: Option<&TelemetryConfig>,
    slot: &mut SystemSlot,
) -> TracedRun {
    let mut system = instrumented(spec, telemetry, slot);
    let metrics = system.run_workload(&spec.workloads, spec.lengths.warm, spec.lengths.measure);
    finish(system, slot, &metrics, RunSource::Live, 0.0)
}

/// Packages a finished simulation as a [`TracedRun`] and returns its
/// system to `slot` for the next run.
fn finish(
    mut system: System,
    slot: &mut SystemSlot,
    metrics: &SystemMetrics,
    source: RunSource,
    decode_mips: f64,
) -> TracedRun {
    let run = TracedRun {
        summary: Summary::from_metrics(metrics),
        source,
        decode_mips,
        sim_mips: metrics.sim_mips(),
        sim_seconds: metrics.sim_wall_seconds,
        telemetry: system.take_telemetry(),
    };
    slot.put(system);
    run
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

    /// Reset-in-place must be invisible in results: cycling one slot
    /// through different systems and workloads — forcing both key hits
    /// (reset_cold reuse) and key misses (fresh build) — produces exactly
    /// the summaries fresh systems do, on live and replay paths alike.
    #[test]
    fn slot_reuse_matches_fresh_builds() {
        let dir = tmp_dir("slot");
        let store = TraceStore::at(&dir);
        let base = spec();
        let nl = base
            .clone()
            .prefetcher(ipsim_core::PrefetcherKind::NextLineTagged);
        let mut web = base.clone();
        web.workloads = ipsim_cpu::WorkloadSet::homogeneous(ipsim_trace::Workload::Web);

        // base → base: same system key, second run reuses via reset_cold.
        // base → nl: key miss, fresh build. nl → web(nl-less): miss again.
        // Interleave captures and replays so both paths go through slots.
        let sequence = [&base, &base, &nl, &web, &base, &nl];
        let mut slot = SystemSlot::new();
        for spec in sequence {
            let run = store.execute_in(spec, None, &mut slot);
            assert_eq!(
                run.summary,
                spec.execute(),
                "slot-reused run diverged from a fresh system for {}",
                spec.label()
            );
            assert!(run.sim_seconds > 0.0, "executed runs report kernel time");
        }
        assert!(store.replayed() > 0, "later runs replayed captured streams");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Telemetry must not leak across slot reuses: a telemetry run
    /// followed by a plain run on the same slot collects nothing the
    /// second time.
    #[test]
    fn slot_reuse_does_not_leak_telemetry() {
        let store = TraceStore::disabled();
        let spec = spec();
        let mut slot = SystemSlot::new();
        let with = store.execute_in(&spec, Some(&TelemetryConfig::default()), &mut slot);
        assert!(with.telemetry.is_some());
        let without = store.execute_in(&spec, None, &mut slot);
        assert!(without.telemetry.is_none(), "telemetry survived reset_cold");
        assert_eq!(with.summary, without.summary);
    }

    /// Replays small enough for the arena budget decode once and serve
    /// zero-copy; an over-budget store streams per-op instead. Both must
    /// match live results exactly.
    #[test]
    fn arena_and_streaming_replay_agree_with_live() {
        let dir = tmp_dir("arena");
        let spec = spec();
        let live = spec.execute();

        let store = TraceStore::at(&dir);
        assert_eq!(store.execute(&spec).source, RunSource::Capture);
        let arena = store.execute(&spec);
        assert_eq!(arena.source, RunSource::Replay);
        assert_eq!(arena.summary, live);
        assert!(
            store
                .arenas
                .lock()
                .unwrap()
                .map
                .contains_key(&spec.trace_key()),
            "a budget-sized stream set is cached in the arena"
        );
        // Replays after the first reuse the cached arena (and report the
        // decode throughput observed when it was built).
        let again = store.execute(&spec);
        assert_eq!(again.summary, live);
        assert_eq!(again.decode_mips, arena.decode_mips);

        // A zero budget disables arenas: same files, streaming decoder.
        let mut streaming_store = TraceStore::at(&dir);
        streaming_store.arena_budget = 0;
        let streaming = streaming_store.execute(&spec);
        assert_eq!(streaming.source, RunSource::Replay);
        assert_eq!(streaming.summary, live);
        assert!(
            streaming_store.arenas.lock().unwrap().map.is_empty(),
            "over-budget replays must not cache arenas"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// An announced stream's arena lives while its runs do and is gone,
    /// its ops returned to the budget, after the last one releases it.
    #[test]
    fn announced_arenas_are_dropped_after_the_last_release() {
        let dir = tmp_dir("release");
        let store = TraceStore::at(&dir);
        let spec = spec();
        let key = spec.trace_key();
        let ops = spec.lengths.warm + spec.lengths.measure;
        store.announce(&key, 3);

        assert_eq!(store.execute(&spec).source, RunSource::Capture);
        store.release(&key);
        assert_eq!(store.execute(&spec).source, RunSource::Replay);
        store.release(&key);
        assert!(
            store.arenas.lock().unwrap().map.contains_key(&key),
            "the arena lives while its stream has runs left"
        );
        assert_eq!(store.execute(&spec).source, RunSource::Replay);
        store.release(&key);
        {
            let cache = store.arenas.lock().unwrap();
            assert!(cache.map.is_empty(), "the last release drops the arena");
            assert_eq!(cache.live_ops, 0);
            assert!(cache.pending.is_empty());
        }
        assert_eq!((store.arenas_decoded(), store.arena_peak_ops()), (1, ops));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A released arena's buffers wait in the idle pool, counted against
    /// the budget, and the next equal-sized stream decodes into them
    /// instead of allocating.
    #[test]
    fn released_buffers_serve_the_next_decode() {
        let dir = tmp_dir("pool");
        let db = spec();
        let mut web = spec();
        web.workloads = WorkloadSet::homogeneous(Workload::Web);
        let ops = db.lengths.warm + db.lengths.measure;
        let store = TraceStore::at(&dir);
        assert_eq!(store.execute(&db).source, RunSource::Capture);
        assert_eq!(store.execute(&web).source, RunSource::Capture);
        store.announce(&db.trace_key(), 1);
        store.announce(&web.trace_key(), 1);

        assert_eq!(store.execute(&db).source, RunSource::Replay);
        store.release(&db.trace_key());
        let pooled = {
            let cache = store.arenas.lock().unwrap();
            assert_eq!((cache.live_ops, cache.idle.len()), (0, 1));
            assert!(cache.idle_ops >= ops && cache.idle_ops <= store.arena_budget);
            cache.idle[0].as_ptr()
        };

        let web_run = store.execute(&web);
        assert_eq!(
            (web_run.source, web_run.summary),
            (RunSource::Replay, web.execute())
        );
        {
            let cache = store.arenas.lock().unwrap();
            let arena = cache.map[&web.trace_key()].arena.as_ref().unwrap();
            assert_eq!(
                arena.ops[0].as_ptr(),
                pooled,
                "web decoded into db's buffer"
            );
            assert_eq!((cache.idle.len(), cache.idle_ops), (0, 0));
        }
        store.release(&web.trace_key());
        assert_eq!(store.arenas_decoded(), 2);
        assert_eq!(store.arena_peak_ops(), ops, "idle buffers are not live ops");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Idle buffers never make a run stream: a decode that needs their
    /// room drops them, and one too small to reuse is not kept beside a
    /// fresh buffer past the budget.
    #[test]
    fn idle_buffers_give_way_to_a_decode_that_needs_their_room() {
        let dir = tmp_dir("giveway");
        let full = spec();
        let mut half = spec();
        half.lengths = RunLengths {
            warm: 500,
            measure: 1_500,
        };
        let ops = full.lengths.warm + full.lengths.measure;
        let mut store = TraceStore::at(&dir);
        store.arena_budget = ops;
        assert_eq!(store.execute(&full).source, RunSource::Capture);
        assert_eq!(store.execute(&half).source, RunSource::Capture);
        store.announce(&half.trace_key(), 1);
        assert_eq!(store.execute(&half).source, RunSource::Replay);
        store.release(&half.trace_key());
        assert_eq!(store.arenas.lock().unwrap().idle.len(), 1);

        store.announce(&full.trace_key(), 1);
        let run = store.execute(&full);
        assert_eq!(
            (run.source, run.summary),
            (RunSource::Replay, full.execute())
        );
        let cache = store.arenas.lock().unwrap();
        assert!(
            cache.map[&full.trace_key()].arena.is_some(),
            "decoded, not streamed"
        );
        assert_eq!((cache.idle.len(), cache.live_ops), (0, ops));
        drop(cache);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Streams nobody announced keep their arena, and a stray release of
    /// one is a no-op.
    #[test]
    fn unannounced_arenas_are_retained() {
        let dir = tmp_dir("retain");
        let store = TraceStore::at(&dir);
        let spec = spec();
        let key = spec.trace_key();
        assert_eq!(store.execute(&spec).source, RunSource::Capture);
        assert_eq!(store.execute(&spec).source, RunSource::Replay);
        store.release(&key);
        assert_eq!(store.execute(&spec).source, RunSource::Replay);
        let cache = store.arenas.lock().unwrap();
        assert!(cache.map.contains_key(&key));
        assert_eq!(cache.live_ops, spec.lengths.warm + spec.lengths.measure);
        assert_eq!(cache.decoded, 1, "a retained arena is decoded once");
        drop(cache);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The budget bounds decoded ops live at once: a second stream that
    /// does not fit beside a held arena streams, and decodes once the
    /// first is released. A stream some worker is decoding is never
    /// decoded a second time — its other runs stream.
    #[test]
    fn the_budget_is_hard_and_one_key_decodes_once() {
        let dir = tmp_dir("budget");
        let db = spec();
        let mut web = spec();
        web.workloads = WorkloadSet::homogeneous(Workload::Web);
        let ops = db.lengths.warm + db.lengths.measure;
        let live = (db.execute(), web.execute());

        let mut store = TraceStore::at(&dir);
        store.arena_budget = ops;
        assert_eq!(store.execute(&db).source, RunSource::Capture);
        assert_eq!(store.execute(&web).source, RunSource::Capture);
        store.announce(&db.trace_key(), 1);
        store.announce(&web.trace_key(), 1);
        let db_run = store.execute(&db);
        let web_run = store.execute(&web);
        assert_eq!((db_run.summary, web_run.summary), live.clone());
        assert_eq!(web_run.source, RunSource::Replay);
        assert_eq!(store.arenas_decoded(), 1, "web did not fit beside db");
        store.release(&db.trace_key());
        store.release(&web.trace_key());
        assert_eq!(store.execute(&web).summary, live.1);
        assert_eq!(store.arenas_decoded(), 2, "web decodes once db is gone");
        assert_eq!(store.arena_peak_ops(), ops);

        // A decode in flight elsewhere: this run streams, no second arena.
        let store = TraceStore::at(&dir);
        store
            .arenas
            .lock()
            .unwrap()
            .map
            .insert(db.trace_key(), ArenaEntry { ops, arena: None });
        let streamed = store.execute(&db);
        assert_eq!(streamed.source, RunSource::Replay);
        assert_eq!(streamed.summary, live.0);
        assert_eq!(store.arenas_decoded(), 0);
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
        assert_eq!((store.quarantined(), store.arenas_decoded()), (1, 0));
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
