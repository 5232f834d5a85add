//! Property-based tests for the timing model: determinism, metric sanity
//! and monotonicity across arbitrary small configurations.

use ipsim_cache::InstallPolicy;
use ipsim_core::PrefetcherKind;
use ipsim_cpu::{SystemBuilder, WorkloadSet};
use ipsim_prefetch::ZooPlan;
use ipsim_trace::Workload;
use ipsim_types::SystemConfig;
use proptest::prelude::*;

fn any_workload() -> impl Strategy<Value = Workload> {
    prop_oneof![
        Just(Workload::Db),
        Just(Workload::TpcW),
        Just(Workload::JApp),
        Just(Workload::Web),
    ]
}

fn any_prefetcher() -> impl Strategy<Value = PrefetcherKind> {
    prop_oneof![
        Just(PrefetcherKind::None),
        Just(PrefetcherKind::NextLineOnMiss),
        Just(PrefetcherKind::NextLineTagged),
        Just(PrefetcherKind::NextNLineTagged { n: 4 }),
        Just(PrefetcherKind::discontinuity_default()),
        Just(PrefetcherKind::discontinuity_2nl()),
        Just(PrefetcherKind::WrongPath { next_line: true }),
        Just(PrefetcherKind::Markov {
            table_entries: 1024,
            ahead: 4
        }),
    ]
}

/// No plan (the drawn `PrefetcherKind` runs as a zoo of one), a zoo of
/// one built from a plan, and the bake-off's seven-scheme zoo.
fn any_zoo_plan() -> impl Strategy<Value = Option<&'static str>> {
    prop_oneof![
        Just(None),
        Just(Some("disc")),
        Just(Some("nl+nnl+disc+target+stream+mana+pmap")),
    ]
}

fn any_policy() -> impl Strategy<Value = InstallPolicy> {
    prop_oneof![
        Just(InstallPolicy::InstallBoth),
        Just(InstallPolicy::BypassL2UntilUseful),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any (workload, prefetcher, policy, seed) combination runs to
    /// completion with sane metrics, and re-running it reproduces the
    /// result exactly.
    #[test]
    fn runs_are_sane_and_deterministic(
        w in any_workload(),
        kind in any_prefetcher(),
        policy in any_policy(),
        seed in 0u64..1000,
    ) {
        let run = || {
            let mut ws = WorkloadSet::homogeneous(w);
            ws.walker_seed = seed;
            let mut system = SystemBuilder::new(SystemConfig::cmp4())
                .prefetcher(kind)
                .install_policy(policy)
                .build()
                .expect("valid config");
            let m = system.run_workload(&ws, 50_000, 150_000);
            // Sanity: instruction counts exact, IPC within physical bounds,
            // rates within [0, 1], accuracy within [0, 1].
            prop_assert_eq!(m.instructions(), 4 * 150_000);
            let ipc = m.ipc();
            prop_assert!(ipc > 0.0 && ipc <= 12.0, "ipc {}", ipc);
            for rate in [
                m.l1i_miss_per_instr(),
                m.l2_instr_miss_per_instr(),
                m.l2_data_miss_per_instr(),
                m.l1d_miss_per_instr(),
            ] {
                prop_assert!((0.0..1.0).contains(&rate), "rate {}", rate);
            }
            let acc = m.prefetch_accuracy();
            prop_assert!((0.0..=1.0).contains(&acc), "accuracy {}", acc);
            // Useful prefetches never exceed issued ones.
            let pf = m.prefetch();
            prop_assert!(pf.useful <= pf.issued);
            prop_assert!(pf.issued <= pf.probes);
            prop_assert!(pf.queued <= pf.generated);
            Ok((
                m.cores.iter().map(|c| c.cycles).collect::<Vec<_>>(),
                m.l1i_miss_breakdown().total(),
                m.bus_transfers,
            ))
        };
        let a = run()?;
        let b = run()?;
        prop_assert_eq!(a, b, "same configuration must reproduce exactly");
    }

    /// The line-granular fast path in `Core::step_block` must be a pure
    /// optimisation: any configuration run with the fast path forced off
    /// produces bit-identical metrics — per-core cycles, every counter,
    /// every breakdown — and bit-identical telemetry. Exercised across
    /// workloads, prefetchers, zoo plans, policies, seeds and scheduler
    /// quanta (the quantum bounds how many ops a batch can cover).
    #[test]
    fn fast_path_is_bit_identical_to_per_op_stepping(
        w in any_workload(),
        kind in any_prefetcher(),
        plan in any_zoo_plan(),
        policy in any_policy(),
        seed in 0u64..1000,
        quantum in prop_oneof![Just(1u64), Just(3), Just(16), Just(64)],
        telemetry in prop_oneof![Just(false), Just(true)],
    ) {
        let run = |force_slow: bool| {
            let mut ws = WorkloadSet::homogeneous(w);
            ws.walker_seed = seed;
            let mut config = SystemConfig::cmp4();
            config.sched_quantum = quantum;
            let mut builder = SystemBuilder::new(config)
                .prefetcher(kind)
                .install_policy(policy);
            if let Some(plan) = plan {
                builder = builder.zoo(ZooPlan::parse(plan).expect("plan parses"));
            }
            let mut system = builder.build().expect("valid config");
            system.set_force_slow_path(force_slow);
            if telemetry {
                system.enable_telemetry(ipsim_telemetry::TelemetryConfig {
                    interval: 10_000,
                    max_events_per_core: 4_096,
                });
            }
            let mut m = system.run_workload(&ws, 20_000, 60_000);
            m.sim_wall_seconds = 0.0; // host timing, not simulation state
            (
                format!("{m:?}"),
                format!("{:?}", system.take_telemetry()),
                system.zoo_scheme_stats(),
            )
        };
        let fast = run(false);
        let slow = run(true);
        prop_assert_eq!(&fast.0, &slow.0, "metrics diverged");
        prop_assert_eq!(&fast.1, &slow.1, "telemetry diverged");
        prop_assert_eq!(&fast.2, &slow.2, "per-scheme counters diverged");
    }

    /// Prefetching never makes the L1I miss *stall* situation absurd: the
    /// prefetched run retires the same instructions in no more than ~1.5x
    /// the baseline cycles (prefetchers can lose a little to bandwidth, but
    /// a blow-up signals an accounting bug).
    #[test]
    fn prefetching_never_blows_up_runtime(
        w in any_workload(),
        kind in any_prefetcher(),
    ) {
        let cycles = |kind| {
            let mut system = SystemBuilder::new(SystemConfig::cmp4())
                .prefetcher(kind)
                .build()
                .expect("valid config");
            let m = system.run_workload(&WorkloadSet::homogeneous(w), 50_000, 150_000);
            m.cores.iter().map(|c| c.cycles).max().unwrap()
        };
        let base = cycles(PrefetcherKind::None);
        let with = cycles(kind);
        prop_assert!(
            (with as f64) < base as f64 * 1.5,
            "{:?}: {} vs baseline {}",
            kind, with, base
        );
    }
}
