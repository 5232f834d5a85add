//! Machine-readable kernel-throughput snapshot: `BENCH_sim_kernel.json`.
//!
//! This is the workspace's one micro-benchmark harness: every bench is
//! defined here, timed with hand-rolled min-of-N sampling, and written as
//! one line of a JSON file so the simulator's perf trajectory is diffable
//! and CI-checkable. The entries split a run's cost by layer:
//!
//! - `system/*`: whole-system runs (walker, core, caches, prefetcher),
//!   and the trace store's cohort replay of three CMP-4 runs, and of
//!   eight single-core runs, over one stream;
//! - `trace/*`: synthesis of the DB program, the largest of the four, in
//!   ns per basic block, and the live walker over the four Mixed
//!   programs, in ns per op;
//! - `cache/*`: the set-associative cache's hit, miss+fill and probe
//!   paths, at L1 and L2 scale;
//! - `prefetch/*`: engine `on_fetch`, the prefetch queue and the
//!   recent-fetch filter;
//! - `units/*`: branch unit, TLB, MSHR and bus;
//! - `telemetry/*`: the two large lifecycle-trace sinks, JSONL and the
//!   Chrome trace, in ns per event.
//!
//! Stream-codec costs are reported per layer by perfbench's `--trace 1`
//! breakdown (`stream.*`), beside its own walker probe (`trace.*`).
//!
//! ```text
//! cargo run --release -p ipsim-bench --bin bench_snapshot            # regenerate
//! cargo run --release -p ipsim-bench --bin bench_snapshot -- --check # compare
//! ```
//!
//! `--check` re-measures and fails (exit 1) when any `system/*` bench is
//! more than `IPSIM_BENCH_TOLERANCE` percent (default 10) slower than the
//! committed snapshot; the other layers are recorded, not gated. The
//! snapshot path defaults to `BENCH_sim_kernel.json` and can be redirected
//! with `--out PATH` or the `IPSIM_BENCH_BASELINE` environment variable
//! (`--out` wins) — useful for comparing against an alternate baseline
//! without moving files. An unknown argument or a `--out` without a path
//! exits 2 before anything is measured, so a typo never overwrites the
//! committed snapshot. The min-of-N estimator is deliberate: minima track
//! the code's floor and are far less sensitive to scheduler noise than
//! means, which is what a regression gate needs. A `"baseline"` block in
//! the JSON (pre-optimisation reference numbers, written by hand once) is
//! preserved verbatim across regenerations.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use ipsim_cache::{FillKind, InstallPolicy, Mshr, SetAssocCache};
use ipsim_core::{
    DiscontinuityConfig, DiscontinuityPrefetcher, FetchEvent, NextNLinePrefetcher, PrefetchEngine,
    PrefetchQueue, PrefetchRequest, PrefetcherKind, RecentFetchFilter,
};
use ipsim_cpu::{BranchUnit, Bus, OpSource, System, SystemBuilder, Tlb, WorkloadSet};
use ipsim_harness::{RunLengths, RunSpec, SystemSlot, TraceStore};
use ipsim_obs::json::{self, Json};
use ipsim_stream::{ArenaSource, TraceSource};
use ipsim_telemetry::sink::{write_chrome_trace, write_events_jsonl};
use ipsim_telemetry::{CoreTrace, PfComponent, PfEvent, PfEventKind, TelemetryRun};
use ipsim_trace::{TraceWalker, Workload};
use ipsim_types::config::{BranchConfig, TlbConfig};
use ipsim_types::instr::CtiClass;
use ipsim_types::{Addr, CacheConfig, LineAddr, OpKind, Rng64, TraceOp};

/// Default snapshot path, relative to the workspace root (`cargo run`'s
/// working directory).
const DEFAULT_PATH: &str = "BENCH_sim_kernel.json";

/// Environment override for the snapshot path.
const BASELINE_ENV: &str = "IPSIM_BENCH_BASELINE";

const USAGE: &str = "usage: bench_snapshot [--check] [--quick] [--out PATH] [--help]
  (no flags)  re-measure and rewrite the snapshot (its \"baseline\" block is kept)
  --check     re-measure and exit 1 if a system/* bench is more than
              IPSIM_BENCH_TOLERANCE percent (default 10) slower than the snapshot
  --quick     5 samples per bench instead of 9 (IPSIM_BENCH_REPS overrides both)
  --out PATH  snapshot path (default: $IPSIM_BENCH_BASELINE, else BENCH_sim_kernel.json)
  --help, -h  print this usage and exit";

/// Instructions per sample for the system benches.
const INSTRS: u64 = 100_000;

/// Operations per sample for the cache, prefetch and unit micro-benches.
const MICRO_OPS: u64 = 1_000_000;

/// Instructions per sample for the straight-line fast-path bench: ten
/// replays of a 100k-op buffer, so first-touch misses on the 256-line
/// footprint vanish into the noise. The buffer is kept host-L2-resident
/// (like the kernel-only bench's) so the sample times the simulation
/// kernel, not host-memory streaming of the op buffer.
const STRAIGHT_INSTRS: u64 = 1_000_000;

/// Ops in the straight-line buffer; one sample replays it
/// `STRAIGHT_INSTRS / STRAIGHT_BUF` times.
const STRAIGHT_BUF: u64 = 100_000;

/// A straight-line instruction stream walking a 16 KiB (256-line) code
/// footprint and wrapping: after first touch everything is L1I-resident,
/// so the line-granular fast path covers 15 of every 16 instructions.
fn straightline_ops(n: u64) -> Vec<TraceOp> {
    let span = 256 * 64;
    (0..n)
        .map(|i| TraceOp {
            pc: Addr(0x0040_0000 + (i * 4) % span),
            kind: OpKind::Other,
        })
        .collect()
}

/// Default allowed slowdown for `--check`, percent.
const DEFAULT_TOLERANCE_PCT: f64 = 10.0;

/// Rejects a bad command line before anything is measured.
fn usage_error(err: &str) -> ! {
    eprintln!("bench_snapshot: {err}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let (mut check, mut quick, mut out) = (false, false, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--check" => check = true,
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(path) if !path.starts_with("--") => out = Some(path),
                _ => usage_error("--out needs a path"),
            },
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    let path = out
        .or_else(|| std::env::var(BASELINE_ENV).ok().filter(|v| !v.is_empty()))
        .unwrap_or_else(|| DEFAULT_PATH.to_string());

    let reps = std::env::var("IPSIM_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 5 } else { 9 });

    eprintln!("bench_snapshot: {reps} samples per bench (min-of-N)...");
    let results = run_all(reps);
    for r in &results {
        eprintln!(
            "  {:<40} {:>9.3} ms  {:>7.1} ns/op",
            r.name,
            r.min_ms,
            r.ns_per_op()
        );
    }

    if check {
        std::process::exit(check_against(&path, &results));
    }
    let baseline = std::fs::read_to_string(&path)
        .ok()
        .and_then(|old| extract_baseline_block(&old));
    std::fs::write(&path, render(&results, baseline.as_deref())).expect("write snapshot");
    eprintln!("bench_snapshot: wrote {path}");
}

/// One measured bench: the minimum over N samples.
struct BenchResult {
    name: &'static str,
    ops: u64,
    min_ms: f64,
}

impl BenchResult {
    fn ns_per_op(&self) -> f64 {
        self.min_ms * 1e6 / self.ops as f64
    }
}

/// Times `body` (one full sample of `ops` operations per call) `reps`
/// times after two warm-up calls and keeps the minimum.
fn bench<F: FnMut()>(name: &'static str, ops: u64, reps: u32, mut body: F) -> BenchResult {
    for _ in 0..2 {
        body();
    }
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        body();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    BenchResult {
        name,
        ops,
        min_ms: best,
    }
}

/// A micro-bench of [`MICRO_OPS`] ops: each sample builds fresh state
/// with `setup` and calls the op it returns on `0..MICRO_OPS`; the results
/// are summed and kept live so the work cannot be optimised away.
fn micro<F: FnMut(u64) -> u64>(
    name: &'static str,
    reps: u32,
    mut setup: impl FnMut() -> F,
) -> BenchResult {
    bench(name, MICRO_OPS, reps, || {
        let mut op = setup();
        black_box((0..MICRO_OPS).fold(0u64, |sum, i| sum.wrapping_add(op(i))));
    })
}

/// Serves a pre-generated op buffer, cycling — isolates the simulation
/// kernel from walker generation cost.
struct SliceSource<'a> {
    ops: &'a [TraceOp],
    pos: usize,
}

impl OpSource for SliceSource<'_> {
    fn next_op(&mut self) -> TraceOp {
        let op = self.ops[self.pos];
        self.pos = (self.pos + 1) % self.ops.len();
        op
    }

    fn next_block(&mut self, out: &mut [TraceOp]) {
        for slot in out {
            *slot = self.ops[self.pos];
            self.pos += 1;
            if self.pos == self.ops.len() {
                self.pos = 0;
            }
        }
    }
}

/// Every bench, layer by layer, in snapshot order.
fn run_all(reps: u32) -> Vec<BenchResult> {
    let mut results = system_benches(reps);
    results.push(trace_bench(reps));
    results.push(walk_bench(reps));
    results.extend(cache_benches(reps));
    results.extend(prefetch_benches(reps));
    results.extend(unit_benches(reps));
    results.extend(telemetry_benches(reps));
    results
}

/// Runs a single-core `system` for [`INSTRS`] from `source` and checks
/// that it retired all of them.
fn run_100k(mut system: System, source: &mut dyn OpSource) {
    system.run(&mut [source], INSTRS);
    assert!(system.metrics().instructions() == INSTRS);
}

fn system_benches(reps: u32) -> Vec<BenchResult> {
    let prog = Workload::Web.build_program(1);
    let profile = Workload::Web.profile();
    let web_walker = |core| TraceWalker::new(&prog, profile.clone(), core, 5);
    let single = || SystemBuilder::single_core().build().unwrap();
    let mut walker = web_walker(0);
    let ops: Vec<TraceOp> = (0..INSTRS)
        .map(|_| TraceSource::next_op(&mut walker))
        .collect();
    let straight = straightline_ops(STRAIGHT_BUF);

    vec![
        bench("system/single_core_baseline_100k", INSTRS, reps, || {
            run_100k(single(), &mut web_walker(0));
        }),
        // The same stream pre-generated, so the sample times the kernel,
        // not the walker.
        bench("system/single_core_kernel_only_100k", INSTRS, reps, || {
            run_100k(single(), &mut SliceSource { ops: &ops, pos: 0 });
        }),
        // Zero-copy replay of the same kernel-only stream: `System::run`
        // pulls borrowed slices straight from the arena instead of copying
        // blocks into a staging buffer — what the harness's arena replay
        // path sees on a realistic instruction mix.
        bench("system/single_core_arena_replay_100k", INSTRS, reps, || {
            run_100k(single(), &mut ArenaSource::new(ops.as_slice()));
        }),
        // Straight-line fetch in an L1I-resident footprint, served
        // zero-copy: the line-granular fast path's best case (one tag
        // probe per line, fifteen O(1) advances). This is the bench the
        // fast-path win is gated on. The scheduler quantum is opened to its
        // maximum — exact for a single core (no interleaving to perturb)
        // and the intended configuration for batch replays of decoded
        // arenas.
        bench(
            "system/single_core_straightline_1m",
            STRAIGHT_INSTRS,
            reps,
            || {
                let mut config = ipsim_types::SystemConfig::single_core();
                config.sched_quantum = ipsim_types::config::MAX_SCHED_QUANTUM;
                let mut system = SystemBuilder::new(config).build().unwrap();
                for _ in 0..STRAIGHT_INSTRS / STRAIGHT_BUF {
                    system.run(
                        &mut [&mut ArenaSource::new(straight.as_slice())],
                        STRAIGHT_BUF,
                    );
                }
                assert!(system.metrics().instructions() == STRAIGHT_INSTRS);
            },
        ),
        // The baseline run with telemetry armed: guards the "no regression
        // with telemetry on" half of the fast-path contract (the fast path
        // must not fire-and-miss sampler boundaries, and the telemetry
        // guard checks must stay off the hot path).
        bench("system/single_core_telemetry_100k", INSTRS, reps, || {
            let mut system = single();
            system.enable_telemetry(ipsim_telemetry::TelemetryConfig {
                interval: 10_000,
                max_events_per_core: 4_096,
            });
            run_100k(system, &mut web_walker(0));
        }),
        // The baseline run with live [`ipsim_obs`] spans at far above
        // harness density: one span every 1 000 instructions (the harness
        // opens a handful per run). The gap to `single_core_baseline_100k`
        // bounds what spans cost when enabled; `tests/overhead.rs` guards
        // the disabled path.
        bench("system/single_core_obs_100k", INSTRS, reps, || {
            let spans = ipsim_obs::spans();
            let mut system = single();
            let mut walker = web_walker(0);
            for _ in 0..INSTRS / 1_000 {
                let _span = spans.span("bench.obs");
                system.run(&mut [&mut walker], 1_000);
            }
            assert!(system.metrics().instructions() == INSTRS);
        }),
        bench(
            "system/single_core_discontinuity_100k",
            INSTRS,
            reps,
            || {
                let system = SystemBuilder::single_core()
                    .prefetcher(PrefetcherKind::discontinuity_default())
                    .install_policy(InstallPolicy::BypassL2UntilUseful)
                    .build()
                    .unwrap();
                run_100k(system, &mut web_walker(0));
            },
        ),
        bench("system/cmp4_baseline_100k_per_core", INSTRS, reps, || {
            let mut system = SystemBuilder::cmp4().build().unwrap();
            let mut walkers: Vec<TraceWalker<'_>> = (0..4).map(web_walker).collect();
            let mut sources: Vec<&mut dyn OpSource> =
                walkers.iter_mut().map(|w| w as &mut dyn OpSource).collect();
            system.run(&mut sources, INSTRS / 4);
        }),
        // The paper's flagship configuration: four cores sharing the
        // discontinuity prefetcher's L2 with bypass, the runs where a
        // figure sweep's time goes.
        bench(
            "system/cmp4_discontinuity_100k_per_core",
            INSTRS,
            reps,
            || {
                let mut system = SystemBuilder::cmp4()
                    .prefetcher(PrefetcherKind::discontinuity_default())
                    .install_policy(InstallPolicy::BypassL2UntilUseful)
                    .build()
                    .unwrap();
                let mut walkers: Vec<TraceWalker<'_>> = (0..4).map(web_walker).collect();
                let mut sources: Vec<&mut dyn OpSource> =
                    walkers.iter_mut().map(|w| w as &mut dyn OpSource).collect();
                system.run(&mut sources, INSTRS / 4);
            },
        ),
        cohort_cmp4_bench(reps),
        cohort_single_bench(reps),
    ]
}

/// Three CMP-4 runs at 1, 2 and 4 MB of L2 over one captured Web stream
/// ([`INSTRS`] ops, a quarter per core), replayed as one trace-store
/// cohort: the window decodes the stream once and the three systems take
/// turns over it.
fn cohort_cmp4_bench(reps: u32) -> BenchResult {
    let lengths = RunLengths {
        warm: 0,
        measure: INSTRS / 4,
    };
    let specs = [1u64, 2, 4].map(|mb| {
        let mut config = ipsim_types::SystemConfig::cmp4();
        config.mem.l2 = CacheConfig::new(mb << 20, 4, 64).expect("valid geometry");
        RunSpec::new(config, WorkloadSet::homogeneous(Workload::Web), lengths)
    });
    cohort_bench("system/cohort_replay_cmp4_x3", &specs, reps)
}

/// Eight single-core runs over one captured Web stream ([`INSTRS`] ops),
/// the most a bounded cohort holds: L2 at 1, 2, 4 and 8 MB, each with no
/// prefetcher and with the discontinuity prefetcher under bypass, as the
/// sweep's single-core streams mix inert and prefetching members.
fn cohort_single_bench(reps: u32) -> BenchResult {
    let lengths = RunLengths {
        warm: 0,
        measure: INSTRS,
    };
    let specs: Vec<RunSpec> = [1u64, 2, 4, 8]
        .iter()
        .flat_map(|mb| {
            let mut config = ipsim_types::SystemConfig::single_core();
            config.mem.l2 = CacheConfig::new(mb << 20, 4, 64).expect("valid geometry");
            let spec = RunSpec::new(config, WorkloadSet::homogeneous(Workload::Web), lengths);
            let prefetching = spec
                .clone()
                .prefetcher(PrefetcherKind::discontinuity_default())
                .policy(InstallPolicy::BypassL2UntilUseful);
            [spec, prefetching]
        })
        .collect();
    cohort_bench("system/cohort_replay_single_x8", &specs, reps)
}

/// Replays `specs`, which share one stream, as one trace-store cohort.
/// One sample is the whole cohort — system builds, decode and every
/// simulation — so ns/op is per simulated instruction of all its runs.
fn cohort_bench(name: &'static str, specs: &[RunSpec], reps: u32) -> BenchResult {
    let dir = std::env::temp_dir().join(format!("ipsim-bench-cohort-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = TraceStore::at(&dir);
    store.execute(&specs[0]);
    let members: Vec<&RunSpec> = specs.iter().collect();
    let result = bench(name, members.len() as u64 * INSTRS, reps, || {
        let mut finished = 0;
        store.execute_cohort(&members, None, &mut SystemSlot::new(), &mut |_, run| {
            let run = run.expect("cohort member runs");
            assert!(run.summary.instructions == INSTRS);
            finished += 1;
        });
        assert!(finished == members.len());
    });
    assert!(store.captured() == 1 && store.detached() == 0);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Synthesis of the DB program, timed per basic block built.
fn trace_bench(reps: u32) -> BenchResult {
    let blocks = Workload::Db.build_program(1).n_blocks();
    bench("trace/build_program_db", u64::from(blocks), reps, || {
        black_box(Workload::Db.build_program(1));
    })
}

/// The live walker over the four Mixed programs: `next_block` a CMP-4
/// scheduling quantum at a time, round-robin over the cores as a live
/// Mixed run pulls them, in ns per op.
fn walk_bench(reps: u32) -> BenchResult {
    let set = WorkloadSet::mixed();
    let programs = set.programs(4);
    let quantum = ipsim_types::SystemConfig::cmp4().sched_quantum as usize;
    let mut walkers: Vec<TraceWalker> = (0..4).map(|c| set.walker(&programs, c)).collect();
    let mut out = vec![
        TraceOp {
            pc: Addr(0),
            kind: OpKind::Other
        };
        quantum
    ];
    let turns = MICRO_OPS as usize / quantum;
    bench(
        "trace/walk_mixed_1m",
        (turns * quantum) as u64,
        reps,
        || {
            let mut sum = 0u64;
            for turn in 0..turns {
                walkers[turn % 4].next_block(&mut out);
                sum = sum.wrapping_add(out[quantum - 1].pc.0);
            }
            black_box(sum);
        },
    )
}

fn cache_benches(reps: u32) -> Vec<BenchResult> {
    let mut warm_l1 = SetAssocCache::new(CacheConfig::default_l1());
    for l in 0..512u64 {
        warm_l1.fill(LineAddr(l), FillKind::Demand);
    }
    vec![
        bench("cache/hit_path_1m", MICRO_OPS, reps, || {
            let mut sum = 0u64;
            for i in 0..MICRO_OPS {
                sum += u64::from(warm_l1.access(LineAddr(i % 512)).is_hit());
            }
            assert!(sum == MICRO_OPS);
        }),
        bench("cache/miss_and_fill_1m", MICRO_OPS, reps, || {
            let mut cache = SetAssocCache::new(CacheConfig::default_l1());
            let mut rng = Rng64::new(1);
            for _ in 0..MICRO_OPS {
                let line = LineAddr(rng.next_u64() & 0xFFFF);
                if !cache.access(line).is_hit() {
                    cache.fill(line, FillKind::Demand);
                }
            }
        }),
        // The prefetch filter's side-effect-free lookup: half the probes
        // land in the resident 512 lines, half miss.
        micro("cache/probe", reps, || {
            let (cache, mut rng) = (&warm_l1, Rng64::new(2));
            move |_| u64::from(cache.probe(LineAddr(rng.next_u64() & 0x3FF)))
        }),
        // Miss and fill at L2 geometry over a 1M-line footprint: the set
        // index and victim search at the shared cache's scale.
        micro("cache/l2_scale_access", reps, || {
            let mut cache = SetAssocCache::new(CacheConfig::default_l2());
            let mut rng = Rng64::new(3);
            move |_| {
                let line = LineAddr(rng.next_u64() & 0xF_FFFF);
                let hit = cache.access(line).is_hit();
                if !hit {
                    cache.fill(line, FillKind::Demand);
                }
                u64::from(hit)
            }
        }),
    ]
}

/// A plausible fetch stream: mostly sequential advances with occasional
/// jumps, ~20% misses.
fn synthetic_events(n: usize) -> Vec<FetchEvent> {
    let mut rng = Rng64::new(7);
    let mut prev = None;
    (0..n)
        .map(|_| {
            let line = if rng.chance(0.15) {
                LineAddr(1000 + rng.range(4096))
            } else {
                prev.unwrap_or(LineAddr(1000)).next()
            };
            let miss = rng.chance(0.2);
            let first_use_of_prefetch = rng.chance(0.15);
            let prev_line = prev.replace(line);
            FetchEvent {
                line,
                miss,
                first_use_of_prefetch,
                prev_line,
            }
        })
        .collect()
}

/// Op `i` is one `on_fetch` of `events[i % len]`; returns the requests made.
fn on_fetch<'a>(
    events: &'a [FetchEvent],
    mut engine: impl PrefetchEngine + 'a,
) -> impl FnMut(u64) -> u64 + 'a {
    let mut out = Vec::with_capacity(16);
    move |i| {
        out.clear();
        engine.on_fetch(&events[i as usize % events.len()], &mut out);
        out.len() as u64
    }
}

fn prefetch_benches(reps: u32) -> Vec<BenchResult> {
    let events = synthetic_events(4096);
    vec![
        micro("prefetch/next_4_line_on_fetch", reps, || {
            on_fetch(&events, NextNLinePrefetcher::new(4))
        }),
        micro("prefetch/discontinuity_on_fetch", reps, || {
            on_fetch(
                &events,
                DiscontinuityPrefetcher::new(DiscontinuityConfig::default()),
            )
        }),
        micro("prefetch/queue_push_pop", reps, || {
            let mut queue = PrefetchQueue::new(32);
            let mut rng = Rng64::new(9);
            move |_| {
                queue.push(PrefetchRequest::sequential(LineAddr(rng.range(256))));
                u64::from(queue.pop_issue().is_some())
            }
        }),
        micro("prefetch/filter_record_contains", reps, || {
            let mut filter = RecentFetchFilter::new(32);
            let mut rng = Rng64::new(11);
            move |_| {
                filter.record(LineAddr(rng.range(128)));
                u64::from(filter.contains(LineAddr(rng.range(128))))
            }
        }),
    ]
}

/// A control-transfer op of `class` at `pc`.
fn cti(pc: u64, class: CtiClass, taken: bool, target: u64) -> TraceOp {
    TraceOp {
        pc: Addr(pc),
        kind: OpKind::Cti {
            class,
            taken,
            target: Addr(target),
        },
    }
}

fn unit_benches(reps: u32) -> Vec<BenchResult> {
    let branch_unit = || BranchUnit::new(&BranchConfig::default(), 16);
    vec![
        micro("units/branch_cond", reps, || {
            let mut unit = branch_unit();
            let mut rng = Rng64::new(3);
            move |_| {
                let pc = 0x1000 + rng.range(256) * 4;
                u64::from(unit.process(&cti(pc, CtiClass::CondBranch, rng.chance(0.6), 0x4000)))
            }
        }),
        // One op is a call/return pair through the return-address stack.
        micro("units/branch_call_return", reps, || {
            let mut unit = branch_unit();
            let call = cti(0x1000, CtiClass::Call, true, 0x9000);
            let ret = cti(0x9100, CtiClass::Return, true, 0x1004);
            move |_| u64::from(unit.process(&call) + unit.process(&ret))
        }),
        micro("units/tlb_access", reps, || {
            let mut tlb = Tlb::new(&TlbConfig::paper());
            let mut rng = Rng64::new(5);
            move |_| tlb.access(Addr(rng.range(1 << 24)))
        }),
        // Inserts outpace retirement 40:1 against 16 entries, so most
        // inserts find the MSHR full: the steady state under a miss burst.
        micro("units/mshr_insert_retire", reps, || {
            let mut mshr = Mshr::new(16);
            let mut done = Vec::with_capacity(16);
            move |i| {
                let now = (i + 1) * 10;
                mshr.insert(LineAddr(i + 1), now + 400, true);
                done.clear();
                mshr.retire_ready_into(now, &mut done);
                done.len() as u64
            }
        }),
        micro("units/bus_request", reps, || {
            let mut bus = Bus::new(9.6);
            move |i| bus.request((i + 1) * 25, 400)
        }),
    ]
}

/// A lifecycle trace of [`MICRO_OPS`] events over four cores: cycles
/// climbing by a few hundred per event and lines drawn from a 16 MiB code
/// footprint, as a bake-off run's buffers hold them.
fn synthetic_telemetry() -> TelemetryRun {
    let mut rng = Rng64::new(13);
    let per_core = MICRO_OPS / 4;
    let cores = (0..4)
        .map(|_| {
            let mut cycle = 0;
            let events = (0..per_core)
                .map(|_| {
                    cycle += rng.range(400);
                    PfEvent {
                        cycle,
                        line: LineAddr(0x40_0000 + rng.range(1 << 18)),
                        component: PfComponent::ALL[rng.range(3) as usize],
                        kind: PfEventKind::ALL[rng.range(12) as usize],
                    }
                })
                .collect();
            CoreTrace {
                events,
                ..CoreTrace::default()
            }
        })
        .collect();
    TelemetryRun {
        interval: 100_000,
        cores,
        ..TelemetryRun::default()
    }
}

/// The sinks over [`synthetic_telemetry`], one op per event. The output
/// `Vec` is reused across samples, so the lines time formatting, not the
/// page faults of a fresh buffer.
fn telemetry_benches(reps: u32) -> Vec<BenchResult> {
    let run = synthetic_telemetry();
    let mut out = Vec::new();
    vec![
        bench("telemetry/write_events_jsonl", MICRO_OPS, reps, || {
            out.clear();
            write_events_jsonl(&mut out, &run).expect("writing into memory cannot fail");
            black_box(&out);
        }),
        bench("telemetry/write_chrome_trace", MICRO_OPS, reps, || {
            out.clear();
            write_chrome_trace(&mut out, &run).expect("writing into memory cannot fail");
            black_box(&out);
        }),
    ]
}

/// Renders the snapshot JSON. `baseline` is the raw `"baseline": {...}`
/// block from a previous snapshot, carried forward verbatim.
fn render(results: &[BenchResult], baseline: Option<&str>) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"ipsim-bench-snapshot v1\",\n");
    out.push_str(
        "  \"note\": \"min-of-N hand-timed samples; regenerate with \
         `cargo run --release -p ipsim-bench --bin bench_snapshot` on a quiet machine; \
         `--check` gates system/* at IPSIM_BENCH_TOLERANCE (default 10%)\",\n",
    );
    out.push_str("  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"ops\": {}, \"min_ms\": {:.3}, \"ns_per_op\": {:.1}}}{}",
            r.name,
            r.ops,
            r.min_ms,
            r.ns_per_op(),
            if i + 1 == results.len() { "" } else { "," },
        );
    }
    out.push_str("  ]");
    if let Some(block) = baseline {
        out.push_str(",\n  \"baseline\": ");
        out.push_str(block);
    }
    out.push_str("\n}\n");
    out
}

/// Extracts the raw `"baseline"` object from a snapshot this tool wrote
/// (stable formatting: the block runs to the first line that is exactly
/// `  }`). Returns `None` when the file has no baseline block.
fn extract_baseline_block(json: &str) -> Option<String> {
    let start = json.find("\"baseline\": ")? + "\"baseline\": ".len();
    let rest = &json[start..];
    let end = rest.find("\n  }")? + "\n  }".len();
    Some(rest[..end].to_string())
}

/// Pulls `(name, min_ms)` pairs out of a snapshot's `"benches"` array;
/// empty when the text is not a snapshot.
fn extract_benches(text: &str) -> Vec<(String, f64)> {
    let doc = json::parse(text).unwrap_or(Json::Null);
    let benches = doc
        .get("benches")
        .and_then(Json::as_arr)
        .unwrap_or_default();
    benches
        .iter()
        .filter_map(|b| {
            Some((
                b.get("name")?.as_str()?.to_string(),
                b.get("min_ms")?.as_num()?,
            ))
        })
        .collect()
}

/// The top-level `"commit"` and `"method"` of a snapshot's baseline
/// block, if it has one (its follow-up sub-blocks carry their own).
fn baseline_provenance(text: &str) -> Option<(String, String)> {
    let doc = json::parse(text).ok()?;
    let baseline = doc.get("baseline")?;
    let field = |key| Some(baseline.get(key)?.as_str()?.to_string());
    Some((field("commit")?, field("method")?))
}

/// Compares fresh `results` against the committed snapshot at `path`.
/// Returns the process exit code: 0 on pass, 1 on regression or a missing
/// / unreadable snapshot. A regressed bench prints the band it had to
/// land in, and the failure footer names where the committed numbers
/// came from (baseline commit + measurement method) so the reader can
/// judge whether the comparison is even meaningful on this machine.
fn check_against(path: &str, results: &[BenchResult]) -> i32 {
    let tolerance_pct = std::env::var("IPSIM_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_TOLERANCE_PCT);
    let Ok(committed_text) = std::fs::read_to_string(path) else {
        eprintln!("bench_snapshot: no committed snapshot at {path}");
        return 1;
    };
    let committed = extract_benches(&committed_text);
    if committed.is_empty() {
        eprintln!("bench_snapshot: {path} has no readable benches");
        return 1;
    }
    let mut failed = false;
    for r in results.iter().filter(|r| r.name.starts_with("system/")) {
        let Some((_, committed_ms)) = committed.iter().find(|(n, _)| n == r.name) else {
            eprintln!("  {:<40} not in committed snapshot (new bench?)", r.name);
            continue;
        };
        let allowed_ms = committed_ms * (1.0 + tolerance_pct / 100.0);
        let delta_pct = (r.min_ms / committed_ms - 1.0) * 100.0;
        if delta_pct > tolerance_pct {
            failed = true;
            eprintln!(
                "  {:<40} committed {:>8.3} ms, now {:>8.3} ms ({:+.1}%) REGRESSED \
                 [band: <= {:.3} ms at {}% tolerance]",
                r.name, committed_ms, r.min_ms, delta_pct, allowed_ms, tolerance_pct,
            );
        } else {
            eprintln!(
                "  {:<40} committed {:>8.3} ms, now {:>8.3} ms ({:+.1}%) ok",
                r.name, committed_ms, r.min_ms, delta_pct,
            );
        }
    }
    if failed {
        eprintln!(
            "bench_snapshot: system/* throughput regressed more than {tolerance_pct}% \
             vs {path} (set IPSIM_BENCH_TOLERANCE to widen on noisy machines)"
        );
        match baseline_provenance(&committed_text) {
            Some((commit, method)) => {
                eprintln!("  committed numbers: snapshot at {path}, baseline commit {commit}");
                eprintln!("  baseline method: {method}");
            }
            None => {
                eprintln!("  committed numbers: snapshot at {path} (no baseline provenance block)")
            }
        }
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = include_str!("../../../../BENCH_sim_kernel.json");

    fn sample_results() -> Vec<BenchResult> {
        [
            ("system/a_100k", 100_000, 3.75),
            ("cache/b_1m", 1_000_000, 12.125),
        ]
        .into_iter()
        .map(|(name, ops, min_ms)| BenchResult { name, ops, min_ms })
        .collect()
    }

    #[test]
    fn render_round_trips_every_bench() {
        let results = sample_results();
        let parsed = extract_benches(&render(&results, None));
        let expected: Vec<_> = results
            .iter()
            .map(|r| (r.name.to_string(), r.min_ms))
            .collect();
        assert_eq!(parsed, expected);
    }

    #[test]
    fn rerender_keeps_the_baseline_block_byte_for_byte() {
        let block = extract_baseline_block(COMMITTED).expect("committed baseline block");
        let rerendered = render(&sample_results(), Some(&block));
        assert_eq!(
            extract_baseline_block(&rerendered).as_deref(),
            Some(block.as_str())
        );
        assert!(COMMITTED.ends_with(&format!("\"baseline\": {block}\n}}\n")));
    }

    #[test]
    fn baseline_provenance_reads_the_committed_snapshot() {
        let (commit, method) = baseline_provenance(COMMITTED).unwrap();
        assert_eq!(commit, "b7b4dc6");
        assert!(method.starts_with("interleaved A/B against a pre-PR worktree build"));
    }
}
