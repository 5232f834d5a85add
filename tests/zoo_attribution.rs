//! Property tests for the zoo's per-scheme attribution: under arbitrary
//! workloads, seeds, install policies and scheme mixes, the per-scheme
//! counters must sum to the core's aggregate prefetch statistics and to
//! the telemetry's exact lifecycle counts — no event lost, none
//! double-credited — and the telemetry artifact rows must mirror the
//! in-process stats exactly.

use ipsim::cache::InstallPolicy;
use ipsim::cpu::{SystemBuilder, WorkloadSet};
use ipsim::telemetry::{PfEventKind, TelemetryConfig};
use ipsim::trace::Workload;
use ipsim::zoo::ZooPlan;
use proptest::prelude::*;

/// The README's zoo table must document every registered scheme and all
/// of its knobs — adding a scheme without documenting it fails here.
#[test]
fn readme_zoo_table_lists_every_registered_scheme() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md readable");
    for def in ipsim::zoo::registry() {
        let row = readme
            .lines()
            .find(|l| l.starts_with(&format!("| `{}` |", def.name)))
            .unwrap_or_else(|| panic!("README zoo table has no row for scheme `{}`", def.name));
        for knob in def.knobs {
            assert!(
                row.contains(&format!("`{}`", knob.name)),
                "README row for `{}` does not mention knob `{}`",
                def.name,
                knob.name
            );
        }
    }
}

fn any_workload() -> impl Strategy<Value = Workload> {
    prop_oneof![
        Just(Workload::Db),
        Just(Workload::TpcW),
        Just(Workload::JApp),
        Just(Workload::Web),
    ]
}

fn any_policy() -> impl Strategy<Value = InstallPolicy> {
    prop_oneof![
        Just(InstallPolicy::InstallBoth),
        Just(InstallPolicy::BypassL2UntilUseful),
    ]
}

/// Multi-scheme plans mixing legacy ports, natives, and knobbed variants —
/// the interleavings the attribution layer has to keep straight.
fn any_plan() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("nl+disc"),
        Just("nnl+stream"),
        Just("nl+nnl+disc+target"),
        Just("disc:ahead=2+mana+pmap"),
        Just("nl+nnl+disc+target+stream+mana+pmap"),
        Just("mana:degree=4,region_lines=16+pmap:depth=2+nl"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For every scheme mix: Σ per-scheme counters == aggregate counters
    /// and telemetry lifecycle counts, telemetry rows mirror the
    /// in-process stats, and the whole thing is deterministic.
    #[test]
    fn scheme_counters_sum_to_aggregates(
        w in any_workload(),
        policy in any_policy(),
        plan_text in any_plan(),
        seed in 0u64..1000,
    ) {
        let plan = ZooPlan::parse(plan_text).expect("plan parses");
        let run = || {
            let mut ws = WorkloadSet::homogeneous(w);
            ws.walker_seed = seed;
            let mut system = SystemBuilder::cmp4()
                .zoo(plan.clone())
                .install_policy(policy)
                .build()
                .expect("valid config");
            system.enable_telemetry(TelemetryConfig::default());
            let metrics = system.run_workload(&ws, 30_000, 80_000);
            let stats = system.zoo_scheme_stats();
            let telemetry = system.take_telemetry().expect("telemetry enabled");
            (metrics, stats, telemetry)
        };
        let (metrics, stats, telemetry) = run();

        // Every core hosts the full plan.
        let n_cores = 4usize;
        prop_assert_eq!(stats.len(), n_cores * plan.specs().len());

        // The sum property: per-scheme counters account for the aggregate
        // pipeline counters exactly, under arbitrary interleavings.
        let pf = metrics.prefetch();
        let sum = |f: fn(&ipsim::zoo::SchemeCounters) -> u64| -> u64 {
            stats.iter().map(|(_, _, c)| f(c)).sum()
        };
        prop_assert_eq!(sum(|c| c.generated), pf.generated, "generated");
        prop_assert_eq!(sum(|c| c.issued), pf.issued, "issued");
        prop_assert_eq!(sum(|c| c.useful), pf.useful, "useful");
        prop_assert_eq!(sum(|c| c.late), pf.late, "late");
        // Per-scheme sanity. Counters reset at the measurement-window
        // boundary while attributions persist, so a line issued during
        // warm-up may fill/use/evict during measurement — `filled` can
        // legitimately exceed `issued` within the window. Only `late`,
        // incremented strictly alongside `useful`, admits an invariant.
        for (core, label, c) in &stats {
            prop_assert!(c.late <= c.useful, "core {core} {label}: late {} > useful {}", c.late, c.useful);
        }

        // The lifecycle stages the aggregate statistics do not count sum
        // to the telemetry's exact per-component counts, which the same
        // `reset_stats` windows.
        let components = telemetry.aggregate_components();
        let exact = |kind: PfEventKind| -> u64 { components.iter().map(|c| c.get(kind)).sum() };
        prop_assert_eq!(sum(|c| c.filled), exact(PfEventKind::Fill), "filled");
        prop_assert_eq!(sum(|c| c.evicted_used), exact(PfEventKind::EvictUsed), "evicted_used");
        prop_assert_eq!(
            sum(|c| c.evicted_unused),
            exact(PfEventKind::EvictUnused),
            "evicted_unused"
        );

        // Telemetry rows are the same stats, row for row.
        prop_assert_eq!(telemetry.zoo.len(), stats.len());
        for (row, (core, label, c)) in telemetry.zoo.iter().zip(&stats) {
            prop_assert_eq!(row.core, *core);
            prop_assert_eq!(&row.scheme, label);
            prop_assert_eq!(row.generated, c.generated);
            prop_assert_eq!(row.issued, c.issued);
            prop_assert_eq!(row.filled, c.filled);
            prop_assert_eq!(row.useful, c.useful);
            prop_assert_eq!(row.late, c.late);
            prop_assert_eq!(row.evicted_used, c.evicted_used);
            prop_assert_eq!(row.evicted_unused, c.evicted_unused);
        }

        // And all of it is deterministic.
        let (metrics2, stats2, _) = run();
        prop_assert_eq!(metrics.instructions(), metrics2.instructions());
        prop_assert_eq!(metrics.prefetch(), metrics2.prefetch());
        prop_assert_eq!(stats, stats2);
    }
}
