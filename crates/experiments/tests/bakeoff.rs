//! Zoo equivalence and bake-off pipeline tests.
//!
//! The equivalence half pins the registry's porting guarantee: every
//! paper mechanism built from a registry spec simulates *byte-identically*
//! to the same mechanism configured directly as a `PrefetcherKind` — the
//! registry spelling and the enum spelling name the same engine, and the
//! per-scheme attribution observes the pipeline, it never steers it. The bake-off half drives the full
//! artifact → `render_bakeoff` pipeline on tiny windows and checks the
//! table is complete and deterministic.

use ipsim_cache::InstallPolicy;
use ipsim_core::PrefetcherKind;
use ipsim_cpu::WorkloadSet;
use ipsim_experiments::bakeoff::{bakeoff_specs, render_bakeoff, BAKEOFF_PLAN};
use ipsim_experiments::{RunLengths, RunSpec, Summary};
use ipsim_harness::TelemetrySink;
use ipsim_prefetch::ZooPlan;
use ipsim_telemetry::TelemetryConfig;
use ipsim_trace::Workload;
use ipsim_types::SystemConfig;

fn lengths() -> RunLengths {
    RunLengths {
        warm: 5_000,
        measure: 15_000,
    }
}

/// Runs a spec with telemetry, writes its artifact, returns the summary.
fn run_with_artifacts(spec: &RunSpec, sink: &TelemetrySink) -> Summary {
    let mut system = spec.build_system();
    system.enable_telemetry(sink.config().clone());
    let metrics = system.run_workload(&spec.workloads, spec.lengths.warm, spec.lengths.measure);
    let run = system.take_telemetry().expect("telemetry enabled");
    sink.write(spec, &run).expect("artifact write");
    Summary::from_metrics(&metrics)
}

#[test]
fn zoo_hosted_paper_schemes_match_their_direct_engines() {
    // Every registry entry backed by a `PrefetcherKind`, at its defaults
    // and at each non-default mode, must build the kind it names.
    for (zoo_spec, kind) in [
        ("nl", PrefetcherKind::NextLineTagged),
        ("nl:mode=0", PrefetcherKind::NextLineAlways),
        ("nl:mode=1", PrefetcherKind::NextLineOnMiss),
        ("nl:mode=2", PrefetcherKind::NextLineTagged),
        ("nnl", PrefetcherKind::NextNLineTagged { n: 4 }),
        ("lookahead", PrefetcherKind::Lookahead { n: 4 }),
        ("disc", PrefetcherKind::discontinuity_default()),
        (
            "disc:min_confidence=2",
            PrefetcherKind::DiscontinuityGated {
                table_entries: 8192,
                ahead: 4,
                min_confidence: 2,
            },
        ),
        (
            "target",
            PrefetcherKind::Target {
                table_entries: 4096,
            },
        ),
        (
            "wrong_path:next_line=0",
            PrefetcherKind::WrongPath { next_line: false },
        ),
        (
            "wrong_path:next_line=1",
            PrefetcherKind::WrongPath { next_line: true },
        ),
        (
            "markov",
            PrefetcherKind::Markov {
                table_entries: 8192,
                ahead: 4,
            },
        ),
    ] {
        for policy in [
            InstallPolicy::InstallBoth,
            InstallPolicy::BypassL2UntilUseful,
        ] {
            let base = RunSpec::new(
                SystemConfig::cmp4(),
                WorkloadSet::homogeneous(Workload::Web),
                lengths(),
            )
            .policy(policy);
            let direct = base.clone().prefetcher(kind).execute();
            let hosted = base
                .clone()
                .zoo(ZooPlan::parse(zoo_spec).unwrap())
                .execute();
            assert_eq!(
                format!("{direct:?}"),
                format!("{hosted:?}"),
                "zoo[{zoo_spec}] vs direct {} under {policy:?} diverged",
                kind.label()
            );
        }
    }
}

#[test]
fn bakeoff_renders_a_complete_deterministic_table() {
    let base = std::env::temp_dir().join(format!("ipsim-bakeoff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let config = TelemetryConfig {
        interval: 5_000,
        max_events_per_core: 16_384,
    };

    let render_once = |tag: &str| -> String {
        let sink = TelemetrySink::at(base.join(tag), config.clone());
        let specs = bakeoff_specs(lengths());
        let summaries: Vec<Summary> = specs.iter().map(|s| run_with_artifacts(s, &sink)).collect();
        let mut it = summaries.into_iter();
        render_bakeoff(&sink, &specs, move |_| {
            it.next().expect("one summary per spec")
        })
        .expect("bake-off renders")
    };

    let table = render_once("a");
    // Every workload column and every contender scheme appears.
    for workload in ["DB", "TPC-W", "jApp", "Web", "Mixed"] {
        assert!(table.contains(workload), "missing {workload}:\n{table}");
    }
    let schemes: Vec<&str> = BAKEOFF_PLAN.split('+').collect();
    assert!(schemes.len() >= 6, "bake-off must cover ≥6 schemes");
    for scheme in &schemes {
        let rows = table
            .lines()
            .filter(|l| l.split_whitespace().any(|w| w == *scheme))
            .count();
        assert_eq!(rows, 5, "scheme {scheme} missing rows:\n{table}");
    }

    // Re-simulating from scratch reproduces the table byte-for-byte.
    let again = render_once("b");
    assert_eq!(table, again, "bake-off table is not deterministic");

    let _ = std::fs::remove_dir_all(&base);
}
