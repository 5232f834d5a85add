//! Direct timing tests: hand-crafted instruction streams through one
//! `Core` + `MemSystem`, asserting the cycle accounting the whole
//! reproduction rests on.

use ipsim_cache::InstallPolicy;
use ipsim_core::PrefetcherKind;
use ipsim_cpu::{Core, MemSystem};
use ipsim_prefetch::Zoo;
use ipsim_types::instr::{CtiClass, OpKind, TraceOp};
use ipsim_types::{Addr, CoreConfig, MemConfig, SystemConfig};

fn parts(prefetcher: PrefetcherKind, policy: InstallPolicy) -> (Core, MemSystem) {
    let config = SystemConfig::single_core();
    (
        Core::new(0, &config.core, prefetcher, None),
        MemSystem::new(&config.mem, policy),
    )
}

fn plain(pc: u64) -> TraceOp {
    TraceOp {
        pc: Addr(pc),
        kind: OpKind::Other,
    }
}

/// A straight-line run of `n` instructions starting at `pc`.
fn straight(pc: u64, n: u64) -> Vec<TraceOp> {
    (0..n).map(|i| plain(pc + 4 * i)).collect()
}

#[test]
fn sequential_code_costs_one_memory_miss_per_line() {
    let (mut core, mut mem) = parts(PrefetcherKind::None, InstallPolicy::InstallBoth);
    // 64 instructions = 4 lines of cold code: 4 memory misses.
    for op in straight(0x1000, 64) {
        core.step(op, &mut mem);
    }
    let m = core.metrics();
    assert_eq!(m.l1i_misses.total(), 4);
    assert_eq!(mem.stats().l2_instr_misses.total(), 4);
    // Each miss stalls for ~(400 memory + transfer) cycles.
    assert!(m.cycles > 4 * 400, "cycles {}", m.cycles);
    // Re-running the same code is nearly free (cache-resident).
    let before = core.metrics().cycles;
    for op in straight(0x1000, 64) {
        core.step(op, &mut mem);
    }
    let delta = core.metrics().cycles - before;
    assert!(delta < 64, "warm rerun cost {delta} cycles");
}

#[test]
fn issue_width_sets_the_warm_ipc() {
    let (mut core, mut mem) = parts(PrefetcherKind::None, InstallPolicy::InstallBoth);
    // Warm the line first.
    for op in straight(0x1000, 16) {
        core.step(op, &mut mem);
    }
    core.reset_stats();
    for _ in 0..10 {
        for op in straight(0x1000, 16) {
            core.step(op, &mut mem);
        }
    }
    let m = core.metrics();
    let ipc = m.ipc();
    // 3-wide issue: warm straight-line code runs at IPC ≈ 3 (the cycle
    // accumulator rounds at instruction boundaries, hence the slack).
    assert!((2.5..=3.1).contains(&ipc), "warm IPC {ipc}");
}

#[test]
fn sequential_prefetching_overlaps_cold_stream_latency() {
    // On an endless *cold* sequential stream, next-line prefetching cannot
    // eliminate the miss events (the demand is only one line behind), but
    // a 4-line window keeps 4 fills in flight, cutting per-line stall to
    // roughly a quarter of the memory latency.
    let run = |kind| {
        let (mut core, mut mem) = parts(kind, InstallPolicy::InstallBoth);
        for op in straight(0x4_0000, 2048) {
            core.step(op, &mut mem);
        }
        (core.metrics().cycles, core.metrics().prefetch)
    };
    let (base_cycles, _) = run(PrefetcherKind::None);
    let (n4l_cycles, pf) = run(PrefetcherKind::NextNLineTagged { n: 4 });
    assert!(
        (n4l_cycles as f64) < base_cycles as f64 * 0.55,
        "next-4-line {n4l_cycles} vs baseline {base_cycles} cycles"
    );
    // The coverage on this stream is all late-but-useful merges.
    assert!(pf.useful > 0 && pf.late > 0, "prefetch stats {pf:?}");
}

#[test]
fn discontinuity_learns_a_repeating_jump() {
    let (mut core, mut mem) = parts(
        PrefetcherKind::discontinuity_default(),
        InstallPolicy::InstallBoth,
    );
    // A loop: 32 instructions at A, jump to B (far away), 32 instructions
    // at B, jump back to A. The second traversal should find B prefetched.
    let jump = |pc: u64, target: u64| TraceOp {
        pc: Addr(pc),
        kind: OpKind::Cti {
            class: CtiClass::UncondBranch,
            taken: true,
            target: Addr(target),
        },
    };
    let a = 0x1_0000u64;
    let b = 0x9_0000u64;
    let lap = |core: &mut Core, mem: &mut MemSystem| {
        for op in straight(a, 31) {
            core.step(op, mem);
        }
        core.step(jump(a + 31 * 4, b), mem);
        for op in straight(b, 31) {
            core.step(op, mem);
        }
        core.step(jump(b + 31 * 4, a), mem);
    };
    // First lap: everything cold.
    lap(&mut core, &mut mem);
    let cold = core.metrics().l1i_misses.total();
    assert!(cold >= 4, "cold lap misses {cold}");
    // Subsequent laps: all lines resident (tiny footprint), no misses.
    core.reset_stats();
    for _ in 0..3 {
        lap(&mut core, &mut mem);
    }
    assert_eq!(core.metrics().l1i_misses.total(), 0);
}

#[test]
fn data_misses_overlap_but_instruction_misses_do_not() {
    // Two runs: one with 8 independent cold loads, one with 8 cold
    // instruction lines. Same number of memory accesses; the load run
    // must cost far fewer cycles thanks to the MLP window.
    let (mut core, mut mem) = parts(PrefetcherKind::None, InstallPolicy::InstallBoth);
    for op in straight(0x1000, 16) {
        core.step(op, &mut mem); // warm the code line
    }
    core.reset_stats();
    for i in 0..8u64 {
        core.step(
            TraceOp {
                pc: Addr(i * 4 % 64 + 0x1000),
                kind: OpKind::Load {
                    addr: Addr(0x10_0000_0000 + i * 64),
                },
            },
            &mut mem,
        );
    }
    // Let the window drain.
    for _ in 0..200 {
        core.step(plain(0x1000), &mut mem);
    }
    let load_cycles = core.metrics().cycles;

    let (mut core2, mut mem2) = parts(PrefetcherKind::None, InstallPolicy::InstallBoth);
    for op in straight(0x80_0000, 8 * 16) {
        core2.step(op, &mut mem2); // 8 cold lines, fetched serially
    }
    let instr_cycles = core2.metrics().cycles;
    assert!(
        load_cycles * 2 < instr_cycles,
        "loads {load_cycles} vs instruction fetches {instr_cycles}"
    );
}

#[test]
fn branch_mispredictions_cost_pipeline_restarts() {
    let (mut core, mut mem) = parts(PrefetcherKind::None, InstallPolicy::InstallBoth);
    // Warm two lines so only branch penalties remain.
    for op in straight(0x1000, 32) {
        core.step(op, &mut mem);
    }
    core.reset_stats();
    // A conditional branch with a random-looking pattern: gshare cannot
    // learn pure alternation-with-jitter immediately; expect some
    // mispredict cycles, far fewer once trained on a fixed pattern.
    let branch = |taken| TraceOp {
        pc: Addr(0x1000),
        kind: OpKind::Cti {
            class: CtiClass::CondBranch,
            taken,
            target: Addr(0x1040),
        },
    };
    for i in 0..400u32 {
        core.step(branch(i % 2 == 0), &mut mem);
        core.step(plain(if i % 2 == 0 { 0x1040 } else { 0x1004 }), &mut mem);
    }
    let m = core.metrics();
    assert!(m.branch.cond_branches == 400);
    // Alternation is learnable: after warm-up the mispredict rate is low.
    assert!(
        m.branch.cond_mispredict_rate() < 0.2,
        "mispredict rate {}",
        m.branch.cond_mispredict_rate()
    );
}

#[test]
fn bypass_policy_keeps_useless_prefetches_out_of_l2() {
    let run = |policy| {
        let (mut core, mut mem) = parts(PrefetcherKind::NextNLineTagged { n: 4 }, policy);
        // One isolated miss per distant region: the prefetcher fetches 4
        // lines ahead, none of which are ever used.
        for region in 0..64u64 {
            let base = 0x10_0000 + region * 0x10_000;
            for op in straight(base, 8) {
                core.step(op, &mut mem);
            }
            // Drain in-flight prefetch fills so they install.
            for op in straight(base, 8) {
                core.step(op, &mut mem);
            }
        }
        mem.l2().resident_lines()
    };
    let installed = run(InstallPolicy::InstallBoth);
    let bypassed = run(InstallPolicy::BypassL2UntilUseful);
    assert!(
        bypassed < installed,
        "bypass {bypassed} lines vs install {installed} lines in L2"
    );
}

#[test]
fn core_metrics_reset_cleanly() {
    let (mut core, mut mem) = parts(PrefetcherKind::None, InstallPolicy::InstallBoth);
    for op in straight(0x1000, 100) {
        core.step(op, &mut mem);
    }
    assert!(core.metrics().instructions == 100);
    core.reset_stats();
    let m = core.metrics();
    assert_eq!(m.instructions, 0);
    assert_eq!(m.cycles, 0);
    assert_eq!(m.l1i_misses.total(), 0);
    assert_eq!(m.l1d_accesses, 0);
}

#[test]
fn memconfig_bandwidth_affects_serial_miss_cost() {
    // Same miss sequence under generous vs starved bandwidth: starved
    // bandwidth must take longer overall (queueing).
    let run = |bytes_per_cycle: f64| {
        let config = SystemConfig::single_core();
        let mem_config = MemConfig {
            offchip_bytes_per_cycle: bytes_per_cycle,
            ..config.mem
        };
        let core_config = CoreConfig { ..config.core };
        let mut core = Core::new(
            0,
            &core_config,
            PrefetcherKind::NextNLineTagged { n: 4 },
            None,
        );
        let mut mem = MemSystem::new(&mem_config, InstallPolicy::InstallBoth);
        for op in straight(0x40_0000, 2048) {
            core.step(op, &mut mem);
        }
        core.metrics().cycles
    };
    let fast = run(64.0);
    let slow = run(0.5);
    assert!(slow > fast, "slow {slow} vs fast {fast}");
}

#[test]
fn prefetch_attribution_stays_bounded_over_long_runs() {
    // Regression test for the unbounded `pf_sources` map: attribution
    // entries must be reclaimed when their line is used or evicted, so the
    // live count can never exceed l1i_lines + mshr_entries no matter how
    // long the run is or how aggressively the prefetcher fires. Drive a
    // code footprint far larger than the L1I with a discontinuity-heavy
    // walk so lines are constantly prefetched, filled and evicted.
    let config = SystemConfig::single_core();
    let bound = config.core.l1i.lines() as usize + config.core.mshrs as usize;
    let mut core = Core::new(
        0,
        &config.core,
        PrefetcherKind::Discontinuity {
            table_entries: 128,
            ahead: 4,
        },
        None,
    );
    let mut mem = MemSystem::new(&config.mem, InstallPolicy::InstallBoth);

    // Deterministic jumpy walk across a 4 MiB footprint (the L1I is 64 KiB).
    let mut x = 0xDEAD_BEEFu64;
    let mut pc = 0x10_0000u64;
    for i in 0..200_000u64 {
        if i % 12 == 0 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            pc = 0x10_0000 + (x % 0x40_0000) / 4 * 4;
        }
        core.step(plain(pc), &mut mem);
        pc += 4;
        let (live, slots) = core.pf_attribution_usage();
        assert!(
            live <= bound,
            "attribution leak: {live} live > bound {bound}"
        );
        assert!(live <= slots);
    }
    let (live, _) = core.pf_attribution_usage();
    assert!(
        live > 0,
        "walk never left an in-flight/resident attribution"
    );
}

/// A jumpy walk over a 4 MiB footprint whose every twelfth instruction is
/// a conditional branch to a pseudo-random target, taken or not: enough
/// misses, discontinuities and branch history for a prefetching core to
/// prefetch, attribute and evict.
fn branchy_walk(n: u64) -> Vec<TraceOp> {
    let mut x = 0x5EED_0001u64;
    let mut pc = 0x10_0000u64;
    (0..n)
        .map(|i| {
            if i % 12 != 11 {
                pc += 4;
                return plain(pc - 4);
            }
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let taken = x >> 63 == 1;
            let target = 0x10_0000 + (x % 0x40_0000) / 4 * 4;
            let op = TraceOp {
                pc: Addr(pc),
                kind: OpKind::Cti {
                    class: CtiClass::CondBranch,
                    taken,
                    target: Addr(target),
                },
            };
            pc = if taken { target } else { pc + 4 };
            op
        })
        .collect()
}

#[test]
fn reset_cold_sizes_the_attribution_table_for_the_new_zoo() {
    let config = SystemConfig::single_core();
    let disc = || PrefetcherKind::Discontinuity {
        table_entries: 128,
        ahead: 4,
    };
    let ops = branchy_walk(60_000);
    // Everything a run leaves observable: metrics, clock, and the
    // attribution table's live entries and slots.
    let run = |mut core: Core| {
        let mut mem = MemSystem::new(&config.mem, InstallPolicy::BypassL2UntilUseful);
        for &op in &ops {
            core.step(op, &mut mem);
        }
        (
            format!("{:?}", core.metrics()),
            core.clock(),
            core.pf_attribution_usage(),
        )
    };
    // A core that has already run, so `reset_cold` has state to undo.
    let used = |prefetcher| {
        let (mut core, mut mem) = parts(prefetcher, InstallPolicy::InstallBoth);
        for &op in &ops[..20_000] {
            core.step(op, &mut mem);
        }
        core
    };

    let inert = Core::new(0, &config.core, PrefetcherKind::None, None);
    assert_eq!(inert.pf_attribution_usage(), (0, 0), "inert core has slots");
    let fresh_inert = run(inert);
    assert_eq!(fresh_inert.2, (0, 0));
    let fresh_live = run(Core::new(0, &config.core, disc(), None));
    assert!(fresh_live.2 .0 > 0 && fresh_live.2 .1 > 0);

    let mut core = used(PrefetcherKind::None);
    core.reset_cold(Zoo::single(disc().build()));
    assert_eq!(run(core), fresh_live, "inert core reset to a live zoo");

    let mut core = used(disc());
    core.reset_cold(Zoo::single(PrefetcherKind::None.build()));
    assert_eq!(core.pf_attribution_usage(), (0, 0));
    assert_eq!(run(core), fresh_inert, "live core reset to an inert zoo");

    let mut core = used(disc());
    core.reset_cold(Zoo::single(disc().build()));
    assert_eq!(run(core), fresh_live, "live core reset to a live zoo");
}
