//! The trace walker: executes a static [`Program`] stochastically, emitting
//! a self-consistent dynamic instruction stream.

use ipsim_types::instr::{CtiClass, OpKind, TraceOp};
use ipsim_types::Rng64;

use crate::data::DataGen;
use crate::profile::WorkloadProfile;
use crate::program::{FuncId, Program, WalkKind};

/// A position within the program: function, block, instruction-in-block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pos {
    func: u32,
    block: u32,
    instr: u32,
}

/// Walks a [`Program`], yielding one [`TraceOp`] per call.
///
/// The walker maintains a call stack (calls push their return position,
/// returns pop it) and models a transaction-processing server: whenever the
/// stack empties and the current function returns, control transfers to the
/// entry of the next transaction, sampled from the program's popularity
/// distribution. The stream is therefore infinite and *self-consistent*:
/// each op's PC follows from the previous op (`+4` or the taken target).
///
/// # Examples
///
/// ```
/// use ipsim_trace::{TraceWalker, Workload};
///
/// let prog = Workload::Db.build_program(1);
/// let mut w = TraceWalker::new(&prog, Workload::Db.profile(), 0, 99);
/// let a = w.next_op();
/// let b = w.next_op();
/// assert_eq!(b.pc, a.next_pc());
/// ```
#[derive(Debug, Clone)]
pub struct TraceWalker<'p> {
    prog: &'p Program,
    rng: Rng64,
    data: DataGen,
    stack: Vec<Pos>,
    pos: Pos,
    /// Start address and length of the block `pos` points into, cached so
    /// body instructions (the common case) need no program indexing.
    /// Maintained by [`TraceWalker::goto_pos`]; purely an access-path
    /// cache, the emitted stream is unchanged.
    cur_start: ipsim_types::Addr,
    cur_n: u32,
    trap_prob: f64,
    load_frac: f64,
    store_frac: f64,
    max_depth: usize,
    /// Trip-count cap state: the backward branch currently being iterated
    /// and how many consecutive times it has been taken.
    loop_site: Pos,
    loop_takes: u32,
    /// Remaining instruction budget of the current transaction; when it
    /// runs out, calls stop opening frames and the stack drains to the
    /// dispatch loop.
    txn_budget: i64,
    txn_len_mean: f64,
    /// The current transaction's service: a window of popularity-adjacent
    /// functions (`[service_base, service_base + service_span)` in rank
    /// space) that phase dispatches stay inside.
    service_base: u32,
    service_span: u32,
    /// Phase index within the current transaction; phases visit the
    /// service's functions in popularity/layout order (transactions
    /// execute their operator pipeline in order, and link-time layout
    /// places those functions adjacently — the reason sequential misses
    /// dominate the paper's breakdown).
    phase_cursor: u32,
}

/// Maximum consecutive takes of one backward branch before it is forced
/// not-taken. Real loops have finite trip counts; without a cap, nested
/// high-probability loop branches occasionally trap the walker inside a
/// single function for millions of instructions, collapsing the
/// instruction footprint.
const LOOP_TRIP_CAP: u32 = 24;

impl<'p> TraceWalker<'p> {
    /// Creates a walker over `prog` for simulated core `core_id`.
    ///
    /// `core_id` selects a disjoint data region (private heap); `seed`
    /// drives all dynamic decisions, so distinct seeds model distinct
    /// transaction mixes over the same binary.
    pub fn new(prog: &'p Program, profile: WorkloadProfile, core_id: u32, seed: u64) -> Self {
        let mut rng = Rng64::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(core_id as u64));
        let data = DataGen::new(
            core_id,
            profile.data_footprint_lines,
            profile.data_hot_lines,
            profile.data_warm_lines,
            profile.data_hot_prob,
            profile.data_warm_prob,
            rng.next_u64(),
        );
        let mut walker = TraceWalker {
            prog,
            rng,
            data,
            stack: Vec::with_capacity(profile.max_call_depth as usize + 1),
            pos: Pos {
                func: 0,
                block: 0,
                instr: 0,
            },
            cur_start: ipsim_types::Addr(0),
            cur_n: 0,
            trap_prob: profile.trap_prob,
            load_frac: profile.load_frac,
            store_frac: profile.store_frac,
            max_depth: profile.max_call_depth as usize,
            loop_site: Pos {
                func: u32::MAX,
                block: 0,
                instr: 0,
            },
            loop_takes: 0,
            txn_budget: profile.txn_len_mean.max(1.0) as i64,
            txn_len_mean: profile.txn_len_mean.max(1.0),
            service_base: 0,
            service_span: profile.service_span,
            phase_cursor: 0,
        };
        walker.start_transaction();
        let entry = walker.next_phase();
        walker.goto_pos(Pos {
            func: entry.0,
            block: 0,
            instr: 0,
        });
        walker
    }

    /// Moves to `pos` and refreshes the cached block geometry.
    #[inline]
    fn goto_pos(&mut self, pos: Pos) {
        let block = self.prog.walk_block(pos.func, pos.block);
        self.cur_start = self.prog.block_start(pos.func, block);
        self.cur_n = block.n_instrs();
        self.pos = pos;
    }

    /// Samples the next transaction's instruction budget (exponential with
    /// the profile's mean, clamped to `[64, max(64, 16 × mean)]` to avoid
    /// degenerate extremes; a mean under 4 pins every budget at 64).
    fn sample_txn_budget(&mut self) -> i64 {
        let u = self.rng.f64().max(1e-9);
        let len = -u.ln() * self.txn_len_mean;
        len.clamp(64.0, (self.txn_len_mean * 16.0).max(64.0)) as i64
    }

    /// Starts a new transaction: samples its service window (centred on a
    /// popularity rank drawn from the dispatch tiers) and its budget.
    fn start_transaction(&mut self) {
        self.txn_budget = self.sample_txn_budget();
        let n = self.prog.n_regular();
        let span = self.service_span.min(n);
        let center = self.prog.dispatch_rank(&mut self.rng);
        self.service_base = center.saturating_sub(span / 2).min(n - span);
        self.phase_cursor = 0;
    }

    /// The entry function for the next phase of the current transaction:
    /// the service's functions, visited in layout order (wrapping).
    fn next_phase(&mut self) -> FuncId {
        let rank = self.service_base + self.phase_cursor % self.service_span;
        self.phase_cursor = (self.phase_cursor + 1) % self.service_span;
        self.prog.function_at_rank(rank)
    }

    /// Current call-stack depth (diagnostics / tests).
    pub fn stack_depth(&self) -> usize {
        self.stack.len()
    }

    /// Emits the next dynamic instruction.
    pub fn next_op(&mut self) -> TraceOp {
        self.txn_budget -= 1;
        let prog = self.prog;
        let pc = self
            .cur_start
            .offset(self.pos.instr as u64 * ipsim_types::instr::INSTR_BYTES);

        if self.pos.instr + 1 < self.cur_n {
            // Body instruction (the common case — served entirely from the
            // cached block geometry): possibly a trap, else
            // load/store/other.
            if self.may_trap() && self.rng.chance(self.trap_prob) {
                return self.take_trap(pc);
            }
            let kind = self.body_kind();
            self.pos.instr += 1;
            return TraceOp { pc, kind };
        }

        // Terminator slot: one flat walk-table record holds everything the
        // dispatch needs.
        let block = *prog.walk_block(self.pos.func, self.pos.block);
        match block.kind() {
            WalkKind::FallThrough => {
                let kind = self.body_kind();
                self.goto_pos(Pos {
                    func: self.pos.func,
                    block: self.pos.block + 1,
                    instr: 0,
                });
                TraceOp { pc, kind }
            }
            WalkKind::CondBranch => {
                let target = block.target();
                let mut taken = self.rng.chance(block.prob() as f64);
                if target <= self.pos.block {
                    // Backward branch: enforce the trip-count cap.
                    let here = self.pos;
                    if self.loop_site == here {
                        if taken {
                            self.loop_takes += 1;
                            if self.loop_takes >= LOOP_TRIP_CAP {
                                taken = false;
                                self.loop_takes = 0;
                            }
                        } else {
                            self.loop_takes = 0;
                        }
                    } else {
                        self.loop_site = here;
                        self.loop_takes = taken as u32;
                    }
                }
                let target_addr =
                    prog.block_start(self.pos.func, prog.walk_block(self.pos.func, target));
                let next_block = if taken { target } else { self.pos.block + 1 };
                self.goto_pos(Pos {
                    func: self.pos.func,
                    block: next_block,
                    instr: 0,
                });
                TraceOp {
                    pc,
                    kind: OpKind::Cti {
                        class: CtiClass::CondBranch,
                        taken,
                        target: target_addr,
                    },
                }
            }
            WalkKind::UncondBranch => {
                let target = block.target();
                let target_addr =
                    prog.block_start(self.pos.func, prog.walk_block(self.pos.func, target));
                self.goto_pos(Pos {
                    func: self.pos.func,
                    block: target,
                    instr: 0,
                });
                TraceOp {
                    pc,
                    kind: OpKind::Cti {
                        class: CtiClass::UncondBranch,
                        taken: true,
                        target: target_addr,
                    },
                }
            }
            WalkKind::Call => self.enter(pc, block.callee(), CtiClass::Call),
            WalkKind::IndirectCall => {
                let callee = self.pick_weighted(prog.callees(&block));
                self.enter(pc, callee, CtiClass::Jump)
            }
            WalkKind::Return => {
                let (target_pos, class) = match self.stack.pop() {
                    Some(p) => (p, CtiClass::Return),
                    None => {
                        // The driver loop: while the transaction budget
                        // lasts, dispatch the next phase within the same
                        // service; afterwards, start a new transaction.
                        if self.txn_budget <= 0 {
                            self.start_transaction();
                        }
                        let f = self.next_phase();
                        (
                            Pos {
                                func: f.0,
                                block: 0,
                                instr: 0,
                            },
                            CtiClass::Jump,
                        )
                    }
                };
                self.goto_pos(target_pos);
                let target = self
                    .cur_start
                    .offset(target_pos.instr as u64 * ipsim_types::instr::INSTR_BYTES);
                TraceOp {
                    pc,
                    kind: OpKind::Cti {
                        class,
                        taken: true,
                        target,
                    },
                }
            }
        }
    }

    /// `true` when the walker is in a state where a body instruction may
    /// trap (regular code, stack has room, traps configured). Invariant
    /// across a run of body instructions — no frames open or close.
    #[inline]
    fn may_trap(&self) -> bool {
        self.pos.func < self.prog.n_regular
            && self.stack.len() < self.max_depth
            && self.trap_prob > 0.0
    }

    /// Takes a trap at `pc` (the trap chance has already been drawn):
    /// pushes the resume frame and transfers to a sampled handler.
    fn take_trap(&mut self, pc: ipsim_types::Addr) -> TraceOp {
        let handler = self.prog.trap_handler(&mut self.rng);
        self.stack.push(Pos {
            func: self.pos.func,
            block: self.pos.block,
            instr: self.pos.instr + 1,
        });
        let target = self.prog.entry_addr(handler);
        self.goto_pos(Pos {
            func: handler.0,
            block: 0,
            instr: 0,
        });
        TraceOp {
            pc,
            kind: OpKind::Cti {
                class: CtiClass::Trap,
                taken: true,
                target,
            },
        }
    }

    /// Fills `out` with the next ops of the stream — behaviourally
    /// identical to calling [`TraceWalker::next_op`] once per slot (same
    /// RNG draw sequence, same stream), but runs of body instructions are
    /// emitted from a tight loop with the per-block state (start address,
    /// trap eligibility) hoisted out.
    pub fn next_block(&mut self, out: &mut [TraceOp]) {
        let n = out.len();
        let mut i = 0;
        'refill: while i < n {
            if self.pos.instr + 1 >= self.cur_n {
                // Terminator (or single-slot block): general path.
                out[i] = self.next_op();
                i += 1;
                continue;
            }
            let may_trap = self.may_trap();
            let mut instr = self.pos.instr;
            let mut pc = self
                .cur_start
                .offset(instr as u64 * ipsim_types::instr::INSTR_BYTES);
            while i < n && instr + 1 < self.cur_n {
                self.txn_budget -= 1;
                if may_trap && self.rng.chance(self.trap_prob) {
                    self.pos.instr = instr;
                    out[i] = self.take_trap(pc);
                    i += 1;
                    continue 'refill;
                }
                out[i] = TraceOp {
                    pc,
                    kind: self.body_kind(),
                };
                i += 1;
                instr += 1;
                pc = pc.offset(ipsim_types::instr::INSTR_BYTES);
            }
            self.pos.instr = instr;
        }
    }

    /// Enters `callee` from a call-class terminator at `pc`; when the stack
    /// is at maximum depth, or the transaction budget is exhausted (the
    /// transaction is winding down), the call site degrades to a plain
    /// instruction.
    fn enter(&mut self, pc: ipsim_types::Addr, callee: FuncId, class: CtiClass) -> TraceOp {
        if self.stack.len() >= self.max_depth || self.txn_budget <= 0 {
            let kind = self.body_kind();
            self.goto_pos(Pos {
                func: self.pos.func,
                block: self.pos.block + 1,
                instr: 0,
            });
            return TraceOp { pc, kind };
        }
        self.stack.push(Pos {
            func: self.pos.func,
            block: self.pos.block + 1,
            instr: 0,
        });
        let target = self.prog.entry_addr(callee);
        self.goto_pos(Pos {
            func: callee.0,
            block: 0,
            instr: 0,
        });
        TraceOp {
            pc,
            kind: OpKind::Cti {
                class,
                taken: true,
                target,
            },
        }
    }

    fn body_kind(&mut self) -> OpKind {
        let r = self.rng.f64();
        if r < self.load_frac {
            OpKind::Load {
                addr: self.data.next_addr(),
            }
        } else if r < self.load_frac + self.store_frac {
            OpKind::Store {
                addr: self.data.next_addr(),
            }
        } else {
            OpKind::Other
        }
    }

    fn pick_weighted(&mut self, callees: &[(FuncId, f32)]) -> FuncId {
        let total: f32 = callees.iter().map(|(_, w)| *w).sum();
        let mut r = self.rng.f64() as f32 * total;
        for (c, w) in callees {
            if r < *w {
                return *c;
            }
            r -= w;
        }
        callees[callees.len() - 1].0
    }
}

impl Iterator for TraceWalker<'_> {
    type Item = TraceOp;

    /// The stream is infinite; `next` always returns `Some`.
    fn next(&mut self) -> Option<TraceOp> {
        Some(self.next_op())
    }
}

/// The walker is the *live* instruction source: wrapping it in an
/// `ipsim_stream::Tee` captures a run to disk, and a stored capture
/// replays through `ipsim_stream::ReplaySource` as an identical stream.
impl ipsim_stream::TraceSource for TraceWalker<'_> {
    fn next_op(&mut self) -> TraceOp {
        TraceWalker::next_op(self)
    }

    fn next_block(&mut self, out: &mut [TraceOp]) {
        // Generate a quantum's worth of ops behind a single virtual call,
        // with runs of body instructions served from the batched loop.
        TraceWalker::next_block(self, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Workload;
    use crate::ProgramBuilder;
    use ipsim_types::LineSize;
    use std::collections::HashSet;

    fn walker(prog: &Program, w: Workload, seed: u64) -> TraceWalker<'_> {
        TraceWalker::new(prog, w.profile(), 0, seed)
    }

    #[test]
    fn stream_is_self_consistent() {
        let prog = Workload::TpcW.build_program(1);
        let mut w = walker(&prog, Workload::TpcW, 2);
        let mut prev = w.next_op();
        for _ in 0..200_000 {
            let op = w.next_op();
            assert_eq!(op.pc, prev.next_pc(), "stream broke after {prev:?}");
            prev = op;
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let prog = Workload::Web.build_program(1);
        let mut a = walker(&prog, Workload::Web, 7);
        let mut b = walker(&prog, Workload::Web, 7);
        for _ in 0..20_000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let prog = Workload::Web.build_program(1);
        let mut a = walker(&prog, Workload::Web, 1);
        let mut b = walker(&prog, Workload::Web, 2);
        let diverged = (0..10_000).any(|_| a.next_op() != b.next_op());
        assert!(diverged);
    }

    #[test]
    fn stack_depth_never_exceeds_max() {
        let prog = Workload::JApp.build_program(1);
        let max = Workload::JApp.profile().max_call_depth as usize;
        let mut w = walker(&prog, Workload::JApp, 3);
        for _ in 0..200_000 {
            w.next_op();
            assert!(w.stack_depth() <= max);
        }
    }

    #[test]
    fn cti_mix_is_plausible() {
        let prog = Workload::Db.build_program(1);
        let mut w = walker(&prog, Workload::Db, 4);
        let n = 300_000;
        let mut cond = 0u32;
        let mut calls = 0u32;
        let mut returns = 0u32;
        let mut traps = 0u32;
        for _ in 0..n {
            if let OpKind::Cti { class, .. } = w.next_op().kind {
                match class {
                    CtiClass::CondBranch => cond += 1,
                    CtiClass::Call | CtiClass::Jump => calls += 1,
                    CtiClass::Return => returns += 1,
                    CtiClass::Trap => traps += 1,
                    _ => {}
                }
            }
        }
        // Small basic blocks => conditional branches every handful of
        // instructions; calls/returns roughly balance.
        assert!(cond as f64 / n as f64 > 0.02, "cond {cond}");
        assert!(calls > 0 && returns > 0);
        // Calls outnumber returns somewhat: each phase function's own
        // top-level return is emitted as a dispatch Jump, not a Return.
        let ratio = calls as f64 / returns as f64;
        assert!((0.5..3.0).contains(&ratio), "call/return ratio {ratio}");
        // Traps at ~4e-6 per body instruction over 300k ops: a handful.
        assert!(traps < 50, "traps {traps}");
    }

    #[test]
    fn instruction_footprint_is_large() {
        let prog = Workload::Db.build_program(1);
        let mut w = walker(&prog, Workload::Db, 5);
        let ls = LineSize::default();
        let mut lines = HashSet::new();
        for _ in 0..2_000_000 {
            lines.insert(w.next_op().pc.line(ls));
        }
        // Touched code must exceed the 32 KB L1I (512 lines) by a wide
        // margin for the paper's miss rates to be reproducible.
        assert!(lines.len() > 4_000, "touched {} lines", lines.len());
    }

    #[test]
    fn loads_and_stores_present_with_data_addresses() {
        let prog = Workload::Web.build_program(1);
        let mut w = walker(&prog, Workload::Web, 6);
        let mut loads = 0;
        let mut stores = 0;
        for _ in 0..50_000 {
            match w.next_op().kind {
                OpKind::Load { addr } => {
                    loads += 1;
                    assert!(addr.0 >= (1 << 32));
                }
                OpKind::Store { addr } => {
                    stores += 1;
                    assert!(addr.0 >= (1 << 32));
                }
                _ => {}
            }
        }
        assert!(loads > 5_000, "loads {loads}");
        assert!(stores > 1_000, "stores {stores}");
        assert!(loads > stores);
    }

    #[test]
    fn next_block_matches_next_op_stream() {
        let prog = Workload::Db.build_program(1);
        // Block sizes that straddle basic-block boundaries in different
        // ways; 200k ops is enough to hit traps, deep calls and dispatch.
        for block in [1usize, 7, 16, 64] {
            let mut by_op = walker(&prog, Workload::Db, 11);
            let mut by_block = walker(&prog, Workload::Db, 11);
            let mut buf = vec![
                TraceOp {
                    pc: ipsim_types::Addr(0),
                    kind: OpKind::Other
                };
                block
            ];
            for round in 0..200_000 / block {
                by_block.next_block(&mut buf);
                for (k, got) in buf.iter().enumerate() {
                    let want = by_op.next_op();
                    assert_eq!(*got, want, "block={block} round={round} slot={k}");
                }
            }
        }
    }

    #[test]
    fn short_transactions_are_walkable() {
        // Any mean >= 1 is a valid profile; under 4 the budget's upper
        // clamp (16 × mean) would fall below its floor of 64.
        for mean in [1.0, 2.0, 3.9] {
            let mut profile = Workload::Web.profile();
            profile.txn_len_mean = mean;
            profile.assert_valid();
            let prog = ProgramBuilder::new(profile.clone(), 1).build();
            let mut w = TraceWalker::new(&prog, profile, 0, 2);
            let mut prev = w.next_op();
            for _ in 0..20_000 {
                let op = w.next_op();
                assert_eq!(op.pc, prev.next_pc());
                prev = op;
            }
        }
    }

    #[test]
    fn iterator_interface_matches_next_op() {
        let prog = Workload::Web.build_program(1);
        let mut a = walker(&prog, Workload::Web, 9);
        let b = walker(&prog, Workload::Web, 9);
        let collected: Vec<_> = b.take(100).collect();
        for op in collected {
            assert_eq!(op, a.next_op());
        }
    }
}
