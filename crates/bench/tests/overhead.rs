//! Guard: disabled instrumentation must be (almost) free.
//!
//! - **Telemetry hooks.** Each kernel hook is one never-taken `Option`
//!   branch while telemetry is off. That cannot be told apart from a
//!   hook-free build at runtime, so the guard bounds it from above: the
//!   hooked side enables telemetry with a zero-size event buffer and an
//!   unreachable sampling interval, which makes every hook *taken* —
//!   branch, call and exact counter bump — without the buffering. The
//!   disabled path does a strict subset of that work, so if the hooked
//!   side is within the bound, so is the disabled path. It runs the
//!   flagship configuration (discontinuity prefetcher, the noisiest
//!   event source).
//! - **[`ipsim_obs`] hooks.** With `ipsim_obs::set_enabled(false)` every
//!   counter, gauge, histogram and span call must collapse to one relaxed
//!   atomic load. The hooked side fires a full hook bundle every 1 000
//!   instructions — hundreds per sample, where the harness fires a handful
//!   per *run* — so a regression in the disabled path (say, a registry
//!   lock on the hot side of the flag check) is amplified past the bound.
//!
//! Both use one method, [`paired_floor_pct`]: interleaved plain/hooked
//! samples over identical instruction streams, and the estimator is the
//! floor over pairs of the hooked/plain ratio. The two halves of a pair
//! run in lockstep, alternating [`SLICE`]-instruction slices, so
//! machine-wide noise (frequency scaling, a co-tenant waking up) hits both
//! alike, while a genuine hook regression shifts every pair; a slice in
//! which either side was preempted is dropped from both. Rounds repeat (up
//! to 4×) until the bound holds. The bound is `IPSIM_BENCH_TOLERANCE`
//! percent (default 3), the knob that also widens `bench_snapshot
//! --check`; widen it on noisy machines.
//!
//! One test runs both guards in sequence so their timed samples never
//! overlap. It owns its process (integration-test binary) because it flips
//! the process-global obs enabled flag.

use std::time::Instant;

use ipsim_cache::InstallPolicy;
use ipsim_core::PrefetcherKind;
use ipsim_cpu::{System, SystemBuilder};
use ipsim_obs::{Counter, Gauge, Histogram, SpanRecorder};
use ipsim_telemetry::TelemetryConfig;
use ipsim_trace::{Program, TraceWalker, Workload};

/// Instructions per side of a paired sample (~tens of ms: timer and
/// scheduler jitter stay well under the few-percent effect measured).
const INSTRS: u64 = 400_000;

/// Instructions per lockstep slice; the obs guard's hooked side fires one
/// hook bundle per slice.
const SLICE: u64 = 1_000;

/// Default overhead bound, percent.
const DEFAULT_MAX_PCT: f64 = 3.0;

/// A slice this many times slower than its side's median was preempted:
/// a context switch lands whole in one ~100 µs slice and would swamp the
/// pair, so that slice index is dropped from both sides.
const PREEMPTED: f64 = 5.0;

/// One side of a paired sample: a fresh system and a fresh (identically
/// seeded) walker, so both sides simulate the same instruction stream.
struct Side<'p> {
    system: System,
    walker: TraceWalker<'p>,
    /// The telemetry guard's hooked side: telemetry armed.
    telemetry: bool,
    /// The obs guard's hooked side: a disabled hook bundle per slice.
    obs: Option<ObsBundle>,
}

/// A counter/gauge/histogram/span bundle, fired after every slice.
struct ObsBundle {
    counter: Counter,
    gauge: Gauge,
    hist: Histogram,
    spans: &'static SpanRecorder,
}

impl<'p> Side<'p> {
    fn new(prog: &'p Program, system: System, telemetry: bool, obs: Option<ObsBundle>) -> Self {
        let walker = TraceWalker::new(prog, Workload::Web.profile(), 0, 5);
        Side {
            system,
            walker,
            telemetry,
            obs,
        }
    }

    /// The telemetry guard measures the flagship configuration
    /// (discontinuity prefetcher, the noisiest event source).
    fn telemetry(prog: &'p Program, hooks: bool) -> Self {
        let mut system = SystemBuilder::single_core()
            .prefetcher(PrefetcherKind::discontinuity_default())
            .install_policy(InstallPolicy::BypassL2UntilUseful)
            .build()
            .unwrap();
        if hooks {
            // Hooks on, buffering off: every event takes the branch and
            // bumps its exact counter, nothing is stored, and the sampler
            // never fires. This is a strict superset of the disabled
            // path's work.
            system.enable_telemetry(TelemetryConfig {
                interval: u64::MAX,
                max_events_per_core: 0,
            });
        }
        Side::new(prog, system, hooks, None)
    }

    /// Both obs sides run the kernel in the same slices, so the slicing
    /// overhead is common-mode; only the hooked side fires the bundle.
    fn obs(prog: &'p Program, hooks: bool) -> Self {
        let m = ipsim_obs::metrics();
        let obs = hooks.then(|| ObsBundle {
            counter: m.counter("ipsim_bench_obs_guard_total", &[]),
            gauge: m.gauge("ipsim_bench_obs_guard_depth", &[]),
            hist: m.histogram("ipsim_bench_obs_guard_micros", &[]),
            spans: ipsim_obs::spans(),
        });
        Side::new(
            prog,
            SystemBuilder::single_core().build().unwrap(),
            false,
            obs,
        )
    }

    /// Runs slice `i` of `INSTRS / SLICE`.
    fn slice(&mut self, i: u64) {
        self.system.run(&mut [&mut self.walker], SLICE);
        if let Some(b) = &self.obs {
            let _span = b.spans.span("bench.obs_guard");
            b.counter.inc();
            b.gauge.add(1);
            b.hist.observe(i);
        }
    }

    /// Checks, once all slices ran, that the side did the work it claims.
    fn check(mut self) {
        assert_eq!(self.system.metrics().instructions(), INSTRS);
        if self.telemetry {
            let run = self.system.take_telemetry().expect("telemetry was enabled");
            assert!(
                run.cores[0].dropped > 1_000,
                "the hooked side must actually exercise the hooks ({} events seen)",
                run.cores[0].dropped
            );
        }
    }
}

/// Runs `make(false)` and `make(true)` in alternating slices and returns
/// their wall times in seconds over the slices neither side was preempted
/// in. The side that goes first alternates too, so neither systematically
/// inherits the other's warm host caches.
fn paired_sample<'p>(make: &mut impl FnMut(bool) -> Side<'p>) -> (f64, f64) {
    let mut sides = [make(false), make(true)];
    let mut times = [Vec::new(), Vec::new()];
    for i in 0..INSTRS / SLICE {
        let first = (i % 2) as usize;
        for k in [first, 1 - first] {
            let t0 = Instant::now();
            sides[k].slice(i);
            times[k].push(t0.elapsed().as_secs_f64());
        }
    }
    let [plain, hooked] = sides;
    plain.check();
    hooked.check();
    let cut = times.each_ref().map(|t| {
        let mut sorted = t.clone();
        sorted.sort_by(f64::total_cmp);
        PREEMPTED * sorted[sorted.len() / 2]
    });
    times[0]
        .iter()
        .zip(&times[1])
        .filter(|(a, b)| **a <= cut[0] && **b <= cut[1])
        .fold((0.0, 0.0), |(plain, hooked), (a, b)| {
            (plain + a, hooked + b)
        })
}

/// Overhead of the hooked side over the plain side in percent, as the
/// floor over interleaved pairs of their ratio. `make(hooks)` builds one
/// side of a pair; one warm-up pair runs first. Stops after the first
/// round (of `reps` pairs) that lands within `max_pct`.
fn paired_floor_pct<'p>(
    what: &str,
    max_pct: f64,
    reps: u32,
    mut make: impl FnMut(bool) -> Side<'p>,
) -> f64 {
    paired_sample(&mut make);
    let (mut plain_floor, mut hooked_floor) = (f64::INFINITY, f64::INFINITY);
    let mut ratio = f64::INFINITY;
    let mut overhead_pct = f64::INFINITY;
    for round in 0..4 {
        for _ in 0..reps {
            let (plain, hooked) = paired_sample(&mut make);
            plain_floor = plain_floor.min(plain);
            hooked_floor = hooked_floor.min(hooked);
            ratio = ratio.min(hooked / plain);
        }
        overhead_pct = (ratio - 1.0) * 100.0;
        eprintln!(
            "{what} overhead (round {round}): plain floor {:.3} ms, hooked floor {:.3} ms, \
             paired floor {overhead_pct:+.2}%, bound {max_pct}%",
            plain_floor * 1e3,
            hooked_floor * 1e3,
        );
        if overhead_pct <= max_pct {
            break;
        }
    }
    overhead_pct
}

fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[test]
fn disabled_hook_overhead_is_bounded() {
    let max_pct = env_or("IPSIM_BENCH_TOLERANCE", DEFAULT_MAX_PCT);
    let reps: u32 = env_or("IPSIM_BENCH_REPS", 9);
    let prog = Workload::Web.build_program(1);

    let telemetry_pct = paired_floor_pct("telemetry hook", max_pct, reps, |hooks| {
        Side::telemetry(&prog, hooks)
    });
    assert!(
        telemetry_pct <= max_pct,
        "telemetry hooks cost {telemetry_pct:.2}% (> {max_pct}%); the disabled path is a \
         strict subset of this — widen with IPSIM_BENCH_TOLERANCE on noisy machines"
    );

    ipsim_obs::set_enabled(false);
    let obs_pct = paired_floor_pct("disabled obs hook", max_pct, reps, |hooks| {
        Side::obs(&prog, hooks)
    });
    // The hooks must be live code taking the disabled path, not
    // optimised out: nothing may have been recorded.
    assert_eq!(
        ipsim_obs::metrics()
            .counter("ipsim_bench_obs_guard_total", &[])
            .get(),
        0,
        "disabled counters must not advance"
    );
    assert_eq!(
        ipsim_obs::spans().completed().len(),
        0,
        "disabled spans must not record"
    );
    assert!(
        obs_pct <= max_pct,
        "disabled obs hooks cost {obs_pct:.2}% (> {max_pct}%) at 100x+ real call density \
         — widen with IPSIM_BENCH_TOLERANCE on noisy machines"
    );
}
