//! The full system: N cores over a shared memory system, plus the builder
//! and the workload-assignment helper.

use ipsim_cache::InstallPolicy;
use ipsim_core::PrefetcherKind;
use ipsim_prefetch::{Scheme, SchemeCounters, ZooPlan};
use ipsim_telemetry::{
    CoreTracer, SampleRow, Sampler, TelemetryConfig, TelemetryRun, ZooSchemeRow,
};
use ipsim_trace::{Program, TraceWalker, Workload};
use ipsim_types::{ConfigError, SystemConfig, TraceOp};

use crate::core_model::Core;
use crate::limit::LimitSpec;
use crate::memsys::MemSystem;
use crate::metrics::SystemMetrics;

use ipsim_types::config::MAX_SCHED_QUANTUM;

/// Anything that can feed a core one instruction at a time.
///
/// This is `ipsim_stream::TraceSource` re-exported under its historical
/// name: the same trait drives live walkers, capture tees and trace
/// replay, so anything the harness wires up plugs straight into
/// [`System::run`].
pub use ipsim_stream::TraceSource as OpSource;

/// Which workload each core runs.
///
/// * [`WorkloadSet::homogeneous`] — every core runs the same application
///   (same binary, different transaction mixes), the paper's per-app CMP
///   configuration;
/// * [`WorkloadSet::mixed`] — one application per core, the paper's
///   multiprogrammed "Mix".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSet {
    /// Workload for core `i` (`per_core[i % per_core.len()]`).
    pub per_core: Vec<Workload>,
    /// Seed for static program synthesis (one program per distinct
    /// workload).
    pub program_seed: u64,
    /// Base seed for per-core walkers.
    pub walker_seed: u64,
}

impl WorkloadSet {
    /// Every core runs `workload`.
    pub fn homogeneous(workload: Workload) -> WorkloadSet {
        WorkloadSet {
            per_core: vec![workload],
            program_seed: 0x5EED_0001,
            walker_seed: 0x5EED_1001,
        }
    }

    /// The paper's multiprogrammed mix: DB, TPC-W, jApp and Web, one per
    /// core.
    pub fn mixed() -> WorkloadSet {
        WorkloadSet {
            per_core: Workload::ALL.to_vec(),
            program_seed: 0x5EED_0001,
            walker_seed: 0x5EED_1001,
        }
    }

    /// Display name ("DB", "Mixed", …).
    pub fn name(&self) -> String {
        if self.per_core.len() == 1 {
            self.per_core[0].name().to_string()
        } else {
            "Mixed".to_string()
        }
    }

    /// The workload core `i` runs.
    pub fn workload_for_core(&self, core: u32) -> Workload {
        self.per_core[core as usize % self.per_core.len()]
    }

    /// Synthesises one program per *distinct* workload across the first
    /// `n_cores` cores (cores running the same app share the binary, hence
    /// share code lines in the L2).
    pub fn programs(&self, n_cores: u32) -> Vec<(Workload, Program)> {
        let mut distinct: Vec<Workload> = Vec::new();
        for c in 0..n_cores {
            let w = self.workload_for_core(c);
            if !distinct.contains(&w) {
                distinct.push(w);
            }
        }
        distinct
            .into_iter()
            .map(|w| (w, w.build_program(self.program_seed)))
            .collect()
    }

    /// The walker that feeds core `core`, over programs built by
    /// [`WorkloadSet::programs`].
    ///
    /// This is *the* definition of a core's instruction stream: capture in
    /// the harness and live generation in [`System::run_workload`] both
    /// build walkers here, which is what guarantees a stored trace replays
    /// the exact stream a live run would generate.
    pub fn walker<'p>(&self, programs: &'p [(Workload, Program)], core: u32) -> TraceWalker<'p> {
        let w = self.workload_for_core(core);
        let prog = &programs
            .iter()
            .find(|(pw, _)| *pw == w)
            .expect("program built for workload")
            .1;
        TraceWalker::new(
            prog,
            w.profile(),
            core,
            self.walker_seed ^ (core as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    }
}

/// Builds a [`System`].
///
/// # Examples
///
/// ```
/// use ipsim_cpu::SystemBuilder;
/// use ipsim_core::PrefetcherKind;
/// use ipsim_cache::InstallPolicy;
///
/// let system = SystemBuilder::cmp4()
///     .prefetcher(PrefetcherKind::discontinuity_default())
///     .install_policy(InstallPolicy::BypassL2UntilUseful)
///     .build()?;
/// assert_eq!(system.n_cores(), 4);
/// # Ok::<(), ipsim_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    config: SystemConfig,
    scheme: Scheme,
    policy: InstallPolicy,
    limit: Option<LimitSpec>,
}

impl SystemBuilder {
    /// Starts from an explicit configuration.
    pub fn new(config: SystemConfig) -> SystemBuilder {
        SystemBuilder {
            config,
            scheme: Scheme::default(),
            policy: InstallPolicy::InstallBoth,
            limit: None,
        }
    }

    /// The paper's single-core baseline (private 2 MB L2, 10 GB/s).
    pub fn single_core() -> SystemBuilder {
        SystemBuilder::new(SystemConfig::single_core())
    }

    /// The paper's 4-way CMP (shared 2 MB L2, 20 GB/s).
    pub fn cmp4() -> SystemBuilder {
        SystemBuilder::new(SystemConfig::cmp4())
    }

    /// Sets the per-core prefetch scheme; the last scheme setter wins.
    pub fn scheme(mut self, scheme: Scheme) -> SystemBuilder {
        self.scheme = scheme;
        self
    }

    /// Sets the per-core instruction prefetcher ([`Scheme::Single`]).
    pub fn prefetcher(self, kind: PrefetcherKind) -> SystemBuilder {
        self.scheme(Scheme::Single(kind))
    }

    /// Runs a prefetcher zoo (every scheme in `plan`, side by side with
    /// per-scheme attribution) on each core ([`Scheme::Zoo`]).
    pub fn zoo(self, plan: ZooPlan) -> SystemBuilder {
        self.scheme(Scheme::Zoo(plan))
    }

    /// Sets the L2 install policy for instruction prefetches.
    pub fn install_policy(mut self, policy: InstallPolicy) -> SystemBuilder {
        self.policy = policy;
        self
    }

    /// Enables a limit-study run (perfect elimination of chosen miss
    /// classes).
    pub fn limit(mut self, spec: LimitSpec) -> SystemBuilder {
        self.limit = Some(spec);
        self
    }

    /// Replaces the L1 instruction-cache geometry (Figure 1 sweeps).
    pub fn l1i_cache(mut self, cache: ipsim_types::CacheConfig) -> SystemBuilder {
        self.config.core.l1i = cache;
        self
    }

    /// Replaces the shared L2 geometry (Figure 2 sweeps).
    pub fn l2_cache(mut self, cache: ipsim_types::CacheConfig) -> SystemBuilder {
        self.config.mem.l2 = cache;
        self
    }

    /// Access to the full configuration for less common overrides.
    pub fn config_mut(&mut self) -> &mut SystemConfig {
        &mut self.config
    }

    /// Builds the system.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the configuration fails validation
    /// (see [`SystemConfig::validate`]).
    pub fn build(self) -> Result<System, ConfigError> {
        self.config.validate()?;
        let cores = (0..self.config.n_cores)
            .map(|id| Core::with_zoo(id, &self.config.core, self.scheme.build(), self.limit))
            .collect();
        Ok(System {
            cores,
            mem: MemSystem::new(&self.config.mem, self.policy),
            // The engine build recipe is kept so `reset_cold` can hand
            // every core a freshly built engine without the caller.
            scheme: self.scheme,
            config: self.config,
            telemetry: None,
        })
    }
}

/// Interval-sampling state, present only while telemetry is enabled.
#[derive(Debug)]
struct TelemetryState {
    config: TelemetryConfig,
    sampler: Sampler,
}

/// N cores over one shared memory system.
#[derive(Debug)]
pub struct System {
    cores: Vec<Core>,
    mem: MemSystem,
    config: SystemConfig,
    /// Engine build recipe (see [`SystemBuilder::build`]): what
    /// [`System::reset_cold`] rebuilds per-core engines from.
    scheme: Scheme,
    telemetry: Option<TelemetryState>,
}

impl System {
    /// Number of cores.
    pub fn n_cores(&self) -> u32 {
        self.cores.len() as u32
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The shared memory system (diagnostics / tests).
    pub fn mem(&self) -> &MemSystem {
        &self.mem
    }

    /// Turns telemetry collection on: every core gets a lifecycle event
    /// collector and the scheduler starts interval sampling. Simulated
    /// behaviour — metrics, figures, cycle counts — is identical with or
    /// without it (guarded by the golden-hash and determinism tests).
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) {
        for core in &mut self.cores {
            core.set_tracer(Some(Box::new(CoreTracer::new(&config))));
        }
        let executed: Vec<u64> = self.cores.iter().map(Core::executed).collect();
        self.telemetry = Some(TelemetryState {
            sampler: Sampler::new(config.interval, &executed),
            config,
        });
    }

    /// Whether telemetry collection is on.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_some()
    }

    /// Drains everything telemetry collected over the current
    /// measurement window. Collection stays enabled (and empty) after
    /// the call; returns `None` when telemetry was never enabled.
    ///
    /// A final snapshot of each core is appended to the samples so even
    /// a window shorter than one interval yields one row per core.
    pub fn take_telemetry(&mut self) -> Option<TelemetryRun> {
        let state = self.telemetry.as_mut()?;
        let mut samples = state.sampler.take_rows();
        for (i, core) in self.cores.iter().enumerate() {
            samples.push(Self::sample_core(i, core, &self.mem));
        }
        let cores = self
            .cores
            .iter_mut()
            .map(|c| {
                c.tracer_mut()
                    .expect("telemetry enabled on every core")
                    .take()
            })
            .collect();
        let interval = state.config.interval;
        let zoo = self.zoo_scheme_rows();
        Some(TelemetryRun {
            interval,
            cores,
            samples,
            zoo,
        })
    }

    /// Per-scheme zoo counters for every core, `(core, label, counters)`
    /// in (core, slot) order; empty unless the system was built from a
    /// [`ZooPlan`] (a directly configured scheme runs as a zoo of one, but
    /// reports no rows, so its artifacts carry no zoo table).
    pub fn zoo_scheme_stats(&self) -> Vec<(u32, String, SchemeCounters)> {
        if self.scheme.plan().is_none() {
            return Vec::new();
        }
        let mut rows = Vec::new();
        for (i, core) in self.cores.iter().enumerate() {
            for (label, counters) in core.zoo().scheme_stats() {
                rows.push((i as u32, label, counters));
            }
        }
        rows
    }

    fn zoo_scheme_rows(&self) -> Vec<ZooSchemeRow> {
        if self.scheme.plan().is_none() {
            return Vec::new();
        }
        let mut rows = Vec::new();
        for (i, core) in self.cores.iter().enumerate() {
            for (slot, (label, c)) in core.zoo().scheme_stats().into_iter().enumerate() {
                rows.push(ZooSchemeRow {
                    core: i as u32,
                    slot: slot as u32,
                    scheme: label,
                    generated: c.generated,
                    issued: c.issued,
                    filled: c.filled,
                    useful: c.useful,
                    late: c.late,
                    evicted_used: c.evicted_used,
                    evicted_unused: c.evicted_unused,
                });
            }
        }
        rows
    }

    /// Snapshots one core's cumulative window counters (plus the shared
    /// L2's) into a sample row.
    fn sample_core(index: usize, core: &Core, mem: &MemSystem) -> SampleRow {
        let m = core.metrics();
        let l2 = mem.stats();
        SampleRow {
            core: index as u32,
            instrs: m.instructions,
            cycles: m.cycles,
            line_fetches: m.line_fetches,
            l1i_misses: m.l1i_misses.total(),
            l1d_misses: m.l1d_misses,
            pf_issued: m.prefetch.issued,
            pf_useful: m.prefetch.useful,
            pf_late: m.prefetch.late,
            pf_queue: core.pf_queue_waiting() as u64,
            l2_instr_misses: l2.l2_instr_misses.total(),
            l2_prefetch_misses: l2.l2_prefetch_misses,
        }
    }

    /// Runs every core for `instrs_per_core` further instructions, feeding
    /// core `i` from `sources[i]`. Cores are interleaved smallest-clock
    /// first, so shared-resource contention is deterministic.
    ///
    /// # Panics
    ///
    /// Panics unless `sources.len()` equals the core count.
    pub fn run(&mut self, sources: &mut [&mut dyn OpSource], instrs_per_core: u64) {
        assert_eq!(
            sources.len(),
            self.cores.len(),
            "need exactly one op source per core"
        );
        let targets: Vec<u64> = self
            .cores
            .iter()
            .map(|c| c.executed() + instrs_per_core)
            .collect();
        // Ops are pulled a quantum at a time through one virtual call,
        // then dispatched to the core with static calls — identical
        // per-core op order and identical quantum-granular interleaving to
        // the old per-op loop, minus the per-op vtable traffic. Sources
        // that hold decoded ops in memory serve a borrowed slice through
        // `next_slice` (zero copies); everything else is copied into the
        // staging buffer through `next_block`.
        let sched_quantum = self.config.sched_quantum;
        let mut block = [TraceOp {
            pc: ipsim_types::Addr(0),
            kind: ipsim_types::instr::OpKind::Other,
        }; MAX_SCHED_QUANTUM as usize];
        let single_core = self.cores.len() == 1;
        loop {
            // Pick the unfinished core with the smallest local clock. With
            // one core the pick is trivially core 0 until it finishes.
            let i = if single_core {
                if self.cores[0].executed() >= targets[0] {
                    break;
                }
                0
            } else {
                let mut next: Option<usize> = None;
                for (i, core) in self.cores.iter().enumerate() {
                    if core.executed() < targets[i]
                        && next.is_none_or(|n| core.clock() < self.cores[n].clock())
                    {
                        next = Some(i);
                    }
                }
                let Some(i) = next else {
                    break;
                };
                i
            };
            let core = &mut self.cores[i];
            let quantum = sched_quantum.min(targets[i] - core.executed()) as usize;
            match sources[i].next_slice(quantum) {
                Some(ops) => core.step_block(ops, &mut self.mem),
                None => {
                    let ops = &mut block[..quantum];
                    sources[i].next_block(ops);
                    core.step_block(ops, &mut self.mem);
                }
            }
            // Interval sampling at quantum granularity: one never-taken
            // branch when telemetry is off, two loads and a compare when
            // it is on but no threshold was crossed.
            if let Some(state) = &mut self.telemetry {
                let executed = self.cores[i].executed();
                if state.sampler.due(i, executed) {
                    let row = Self::sample_core(i, &self.cores[i], &self.mem);
                    state.sampler.record(executed, row);
                }
            }
        }
    }

    /// Builds walkers for `workloads`, warms the system for `warm_instrs`
    /// per core, then measures for `measure_instrs` per core and returns
    /// the metrics. This is the main experiment entry point.
    pub fn run_workload(
        &mut self,
        workloads: &WorkloadSet,
        warm_instrs: u64,
        measure_instrs: u64,
    ) -> SystemMetrics {
        let programs = workloads.programs(self.n_cores());
        let mut walkers: Vec<TraceWalker<'_>> = (0..self.n_cores())
            .map(|c| workloads.walker(&programs, c))
            .collect();
        let mut sources: Vec<&mut dyn OpSource> =
            walkers.iter_mut().map(|w| w as &mut dyn OpSource).collect();
        self.run_workload_from(&mut sources, warm_instrs, measure_instrs)
    }

    /// Warms for `warm_instrs` and measures for `measure_instrs` per core,
    /// feeding core `i` from `sources[i]`. [`System::run_workload`] is this
    /// over freshly-built walkers; the harness calls it directly with
    /// capture tees or replay sources instead.
    ///
    /// Each core consumes exactly `warm_instrs + measure_instrs` ops from
    /// its source, in an order fixed per core regardless of how the
    /// scheduler interleaves cores — which is why one captured trace per
    /// core replays identically under any system configuration.
    pub fn run_workload_from(
        &mut self,
        sources: &mut [&mut dyn OpSource],
        warm_instrs: u64,
        measure_instrs: u64,
    ) -> SystemMetrics {
        if warm_instrs > 0 {
            self.run(sources, warm_instrs);
        }
        self.reset_stats();
        let t0 = std::time::Instant::now();
        self.run(sources, measure_instrs);
        let wall = t0.elapsed().as_secs_f64();
        let mut metrics = self.metrics();
        metrics.sim_wall_seconds = wall;
        metrics
    }

    /// Resets all measurement counters; caches, predictors and prefetcher
    /// state stay warm.
    pub fn reset_stats(&mut self) {
        for core in &mut self.cores {
            core.reset_stats();
        }
        self.mem.reset_stats();
        if let Some(state) = &mut self.telemetry {
            let executed: Vec<u64> = self.cores.iter().map(Core::executed).collect();
            state.sampler.reset(&executed);
        }
    }

    /// Restores the state of a freshly built system while reusing every
    /// allocation: cores are reset in place (with freshly built prefetch
    /// engines from the stored recipe), the memory system is emptied, and
    /// telemetry is disarmed. A run on a reset system is bit-identical to
    /// a run on a newly built one — the harness's run-reuse seam depends
    /// on it, and a reuse-vs-fresh test enforces it.
    pub fn reset_cold(&mut self) {
        for core in &mut self.cores {
            core.reset_cold(self.scheme.build());
        }
        self.mem.reset_cold();
        self.telemetry = None;
    }

    /// Test hook: forces every core's `step_block` down the exact
    /// per-instruction path (see `Core::set_force_slow_path`).
    #[doc(hidden)]
    pub fn set_force_slow_path(&mut self, force: bool) {
        for core in &mut self.cores {
            core.set_force_slow_path(force);
        }
    }

    /// Metrics over the current measurement window.
    pub fn metrics(&self) -> SystemMetrics {
        SystemMetrics {
            cores: self.cores.iter().map(|c| c.metrics()).collect(),
            mem: self.mem.stats().clone(),
            bus_transfers: self.mem.bus_transfers(),
            bus_queue_cycles: self.mem.bus().queue_cycles(),
            sim_wall_seconds: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_set_names_and_assignment() {
        let h = WorkloadSet::homogeneous(Workload::Db);
        assert_eq!(h.name(), "DB");
        assert_eq!(h.workload_for_core(0), Workload::Db);
        assert_eq!(h.workload_for_core(3), Workload::Db);

        let m = WorkloadSet::mixed();
        assert_eq!(m.name(), "Mixed");
        assert_eq!(m.workload_for_core(0), Workload::Db);
        assert_eq!(m.workload_for_core(3), Workload::Web);
    }

    #[test]
    fn builder_validates() {
        let mut b = SystemBuilder::single_core();
        b.config_mut().core.issue_width = 0;
        assert!(b.build().is_err());
        assert!(SystemBuilder::cmp4().build().is_ok());
    }

    #[test]
    fn small_run_produces_consistent_metrics() {
        let mut sys = SystemBuilder::single_core().build().unwrap();
        let m = sys.run_workload(&WorkloadSet::homogeneous(Workload::Web), 2_000, 10_000);
        assert_eq!(m.instructions(), 10_000);
        assert!(m.ipc() > 0.0 && m.ipc() < 3.0, "ipc {}", m.ipc());
        assert!(m.l1i_miss_per_instr() > 0.0);
        assert_eq!(m.cores.len(), 1);
    }

    #[test]
    fn zoo_system_reports_per_scheme_stats() {
        let plan = ZooPlan::parse("nl+disc").unwrap();
        let mut sys = SystemBuilder::single_core().zoo(plan).build().unwrap();
        sys.enable_telemetry(TelemetryConfig::default());
        sys.run_workload(&WorkloadSet::homogeneous(Workload::Web), 2_000, 10_000);
        let stats = sys.zoo_scheme_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].1, "nl");
        assert_eq!(stats[1].1, "disc");
        assert!(stats.iter().any(|(_, _, c)| c.issued > 0));
        let run = sys.take_telemetry().unwrap();
        assert_eq!(run.zoo.len(), 2);
        assert_eq!(run.zoo[0].scheme, "nl");
        assert_eq!(run.zoo[1].slot, 1);
        for (row, (_, _, c)) in run.zoo.iter().zip(sys.zoo_scheme_stats()) {
            assert_eq!(row.issued, c.issued);
            assert_eq!(row.useful, c.useful);
        }
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let mut sys = SystemBuilder::cmp4().build().unwrap();
            let m = sys.run_workload(&WorkloadSet::mixed(), 2_000, 5_000);
            (
                m.instructions(),
                m.cores.iter().map(|c| c.cycles).collect::<Vec<_>>(),
                m.l1i_miss_breakdown().total(),
                m.mem.l2_instr_misses.total(),
            )
        };
        assert_eq!(run(), run());
    }
}
