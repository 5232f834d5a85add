//! A [`WorkloadRun`] stepped in slices of any size steps its system
//! exactly as one `run_workload` call does: the scheduler's pick depends
//! only on core state, so stopping and resuming at quantum boundaries —
//! the warm→measure boundary included — changes nothing.

use ipsim_cache::InstallPolicy;
use ipsim_core::PrefetcherKind;
use ipsim_cpu::{OpSource, SystemBuilder, SystemMetrics, WorkloadRun, WorkloadSet};
use ipsim_trace::Workload;

const WARM: u64 = 20_000;
const MEASURE: u64 = 50_000;

/// Every simulated quantity of `m`, host timing excluded.
fn simulated(mut m: SystemMetrics) -> String {
    m.sim_wall_seconds = 0.0;
    format!("{m:?}")
}

/// Runs `builder`'s system over `workloads` in slices of `per_turn`
/// quanta. Returns the metrics and whether some slice began in the
/// warm-up and ended measuring.
fn sliced(
    builder: &SystemBuilder,
    workloads: &WorkloadSet,
    per_turn: u64,
) -> (SystemMetrics, bool) {
    let mut system = builder.clone().build().unwrap();
    let programs = workloads.programs(system.n_cores());
    let mut walkers: Vec<_> = (0..system.n_cores())
        .map(|c| workloads.walker(&programs, c))
        .collect();
    let mut sources: Vec<&mut dyn OpSource> =
        walkers.iter_mut().map(|w| w as &mut dyn OpSource).collect();
    let mut run = WorkloadRun::new(&system, WARM, MEASURE);
    let mut straddled = false;
    loop {
        let warming = !run.measuring();
        let mut quanta = per_turn;
        let done = run.advance(&mut system, &mut sources, &mut quanta);
        straddled |= warming && run.measuring() && system.metrics().instructions() > 0;
        if let Some(metrics) = done {
            return (metrics, straddled);
        }
        assert_eq!(quanta, 0, "an unfinished slice spends its whole budget");
    }
}

fn assert_slices_match_one_run(builder: SystemBuilder, workloads: WorkloadSet) {
    let mut whole = builder.clone().build().unwrap();
    let want = simulated(whole.run_workload(&workloads, WARM, MEASURE));
    for per_turn in [1, 7, 4_096] {
        let (got, straddled) = sliced(&builder, &workloads, per_turn);
        assert!(got.sim_wall_seconds > 0.0, "measured slices are timed");
        assert_eq!(simulated(got), want, "{per_turn} quanta per turn diverged");
        if per_turn > 1 {
            assert!(
                straddled,
                "{per_turn} quanta per turn: no slice crossed into measuring"
            );
        }
    }
}

#[test]
fn single_core_slices_match_one_run() {
    assert_slices_match_one_run(
        SystemBuilder::single_core(),
        WorkloadSet::homogeneous(Workload::Db),
    );
}

#[test]
fn cmp4_discontinuity_bypass_slices_match_one_run() {
    assert_slices_match_one_run(
        SystemBuilder::cmp4()
            .prefetcher(PrefetcherKind::discontinuity_default())
            .install_policy(InstallPolicy::BypassL2UntilUseful),
        WorkloadSet::mixed(),
    );
}
