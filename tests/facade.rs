//! Facade-level tests: the public API paths shown in the crate docs'
//! quickstart (which the README points to) and the examples must keep
//! working.

use ipsim::cache::InstallPolicy;
use ipsim::cpu::{Core, MemSystem, SystemBuilder, WorkloadSet};
use ipsim::prefetch::{FetchEvent, PrefetchEngine, PrefetchRequest, PrefetcherKind};
use ipsim::trace::{TraceWalker, Workload};
use ipsim::types::SystemConfig;

#[test]
fn readme_quickstart_path_works() {
    let workload = WorkloadSet::homogeneous(Workload::Web);
    let mut baseline = SystemBuilder::cmp4().build().unwrap();
    let base = baseline.run_workload(&workload, 20_000, 100_000);
    let mut system = SystemBuilder::cmp4()
        .prefetcher(PrefetcherKind::discontinuity_default())
        .install_policy(InstallPolicy::BypassL2UntilUseful)
        .build()
        .unwrap();
    let metrics = system.run_workload(&workload, 20_000, 100_000);
    assert!(metrics.l1i_miss_per_instr() < base.l1i_miss_per_instr());
    assert!(metrics.speedup_over(&base) > 1.0);
}

#[test]
fn custom_engines_plug_into_cores() {
    #[derive(Debug, Default)]
    struct CountingEngine {
        events: u64,
    }
    impl PrefetchEngine for CountingEngine {
        fn on_fetch(&mut self, ev: &FetchEvent, out: &mut Vec<PrefetchRequest>) {
            self.events += 1;
            if ev.miss {
                out.push(PrefetchRequest::sequential(ev.line.next()));
            }
        }
        fn name(&self) -> &'static str {
            "counting"
        }
    }

    let config = SystemConfig::single_core();
    let program = Workload::Web.build_program(1);
    let mut walker = TraceWalker::new(&program, Workload::Web.profile(), 0, 2);
    let mut core = Core::with_engine(0, &config.core, Box::new(CountingEngine::default()), None);
    let mut mem = MemSystem::new(&config.mem, InstallPolicy::InstallBoth);
    for _ in 0..100_000 {
        core.step(walker.next_op(), &mut mem);
    }
    assert_eq!(core.prefetcher_name(), "counting");
    let m = core.metrics();
    assert!(m.prefetch.generated > 0, "custom engine saw fetch events");
    assert!(
        m.prefetch.issued > 0,
        "custom engine's requests were issued"
    );
}

#[test]
fn every_public_prefetcher_kind_runs_end_to_end() {
    let kinds = [
        PrefetcherKind::None,
        PrefetcherKind::NextLineAlways,
        PrefetcherKind::NextLineOnMiss,
        PrefetcherKind::NextLineTagged,
        PrefetcherKind::NextNLineTagged { n: 2 },
        PrefetcherKind::Lookahead { n: 4 },
        PrefetcherKind::discontinuity_default(),
        PrefetcherKind::discontinuity_2nl(),
        PrefetcherKind::DiscontinuityGated {
            table_entries: 1024,
            ahead: 4,
            min_confidence: 2,
        },
        PrefetcherKind::Target {
            table_entries: 1024,
        },
        PrefetcherKind::WrongPath { next_line: true },
        PrefetcherKind::Markov {
            table_entries: 1024,
            ahead: 4,
        },
    ];
    let workload = WorkloadSet::homogeneous(Workload::Web);
    for kind in kinds {
        let mut system = SystemBuilder::single_core()
            .prefetcher(kind)
            .build()
            .unwrap();
        let m = system.run_workload(&workload, 20_000, 60_000);
        assert_eq!(m.instructions(), 60_000, "{}", kind.label());
        assert!(m.ipc() > 0.0, "{}", kind.label());
    }
}
