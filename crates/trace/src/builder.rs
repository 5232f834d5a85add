//! Deterministic synthesis of a static [`Program`] from a
//! [`WorkloadProfile`].

use ipsim_types::instr::INSTR_BYTES;
use ipsim_types::{Addr, Rng64};

use crate::profile::WorkloadProfile;
use crate::program::{FuncId, Program, TierSampler, WalkBlock};
use crate::program::{COUNT_BITS, FIELD_BITS, OFFSET_BITS};

/// Base address of synthesised code (keeps PC 0 invalid).
const CODE_BASE: u64 = 0x1_0000;
/// Cap on a function's blocks beyond its first (at most 64 in all).
const MAX_BLOCKS: u64 = 63;
/// Cap on a block's instructions beyond its first (at most 32 in all).
const MAX_BLOCK_INSTRS: u64 = 31;
/// First block index at which call sites may appear.
const MIN_CALL_BLOCK: u32 = 2;
/// Upper bound on blocks per trap handler (at least 2).
const MAX_HANDLER_BLOCKS: u64 = 4;
/// Upper bound on instructions per trap-handler block (at least 2).
const MAX_HANDLER_BLOCK_INSTRS: u64 = 7;

// The caps fit the packed block record: every block's offset within its
// function, its instruction count and its branch target.
const _: () = assert!((MAX_BLOCKS + 1) * (MAX_BLOCK_INSTRS + 1) <= 1 << OFFSET_BITS);
const _: () = assert!(MAX_HANDLER_BLOCKS * MAX_HANDLER_BLOCK_INSTRS <= 1 << OFFSET_BITS);
const _: () = assert!(MAX_BLOCK_INSTRS + 1 < 1 << COUNT_BITS);
const _: () = assert!(MAX_BLOCKS < 1 << FIELD_BITS);

/// The highest code address (exclusive) any program built from `p` can
/// reach, whatever the seed: every function at its block and instruction
/// caps. [`WorkloadProfile::assert_valid`] keeps it within the 32-bit
/// entry addresses of the program's function table.
pub(crate) fn max_code_end(p: &WorkloadProfile) -> u64 {
    let per_fn = (MAX_BLOCKS + 1) * (MAX_BLOCK_INSTRS + 1) * INSTR_BYTES;
    let per_handler = MAX_HANDLER_BLOCKS * MAX_HANDLER_BLOCK_INSTRS * INSTR_BYTES;
    CODE_BASE + p.n_functions as u64 * per_fn + p.n_trap_handlers as u64 * per_handler
}

/// Builds a synthetic static program from a profile and a seed.
///
/// The same `(profile, seed)` pair always produces an identical program, so
/// several simulated cores can share "the same binary" and experiments are
/// reproducible.
///
/// # Examples
///
/// ```
/// use ipsim_trace::{ProgramBuilder, Workload};
///
/// let prog = ProgramBuilder::new(Workload::Web.profile(), 1).build();
/// assert!(prog.code_bytes() > 500_000);
/// prog.validate().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    profile: WorkloadProfile,
    seed: u64,
}

impl ProgramBuilder {
    /// Creates a builder.
    ///
    /// # Panics
    ///
    /// Panics if the profile's probabilities are inconsistent (see
    /// [`WorkloadProfile::assert_valid`]).
    pub fn new(profile: WorkloadProfile, seed: u64) -> ProgramBuilder {
        profile.assert_valid();
        ProgramBuilder { profile, seed }
    }

    /// Synthesises the program.
    pub fn build(&self) -> Program {
        let p = &self.profile;
        let mut rng = Rng64::new(self.seed);
        let n = p.n_functions;

        // Popularity permutation: identity = hot functions first in the
        // address space (ideal link-time layout); each slot is perturbed
        // with probability (1 - layout_quality).
        let mut by_rank: Vec<FuncId> = (0..n).map(FuncId).collect();
        for r in 0..n as usize {
            if !rng.chance(p.layout_quality) {
                let other = rng.range(n as u64) as usize;
                by_rank.swap(r, other);
            }
        }

        let call_targets = TierSampler {
            hot: p.code_hot_fns,
            warm: p.code_warm_fns,
            total: n,
            hot_prob: p.call_hot_prob,
            warm_prob: p.call_warm_prob,
        };
        let dispatch = TierSampler {
            hot: p.code_hot_fns,
            warm: p.code_warm_fns,
            total: n,
            hot_prob: p.dispatch_hot_prob,
            warm_prob: p.dispatch_warm_prob,
        };
        let p_blocks = 1.0 / (1.0 + p.blocks_per_fn_mean);
        let p_instrs = 1.0 / (1.0 + p.instrs_per_block_mean);

        let n_funcs = (n + p.n_trap_handlers) as usize;
        let mut table = Table {
            cursor: CODE_BASE as u32,
            walk: Vec::new(),
            func_base: Vec::with_capacity(n_funcs),
            func_start: Vec::with_capacity(n_funcs),
        };
        let mut indirect = Vec::new();

        for _ in 0..n {
            let nb = 1 + rng.geometric(p_blocks, MAX_BLOCKS) as u32;
            table.open_function();
            for b in 0..nb {
                let ni = 1 + rng.geometric(p_instrs, MAX_BLOCK_INSTRS) as u32;
                let term = if b == nb - 1 {
                    WalkBlock::RETURN
                } else {
                    self.draw_terminator(&mut rng, b, nb, &by_rank, &call_targets, &mut indirect)
                };
                table.push(term, ni);
            }
        }

        // Trap handlers: short straight-line functions at the top of the
        // code segment (far from regular code, like kernel trap vectors).
        for _ in 0..p.n_trap_handlers {
            let nb = 2 + rng.range(MAX_HANDLER_BLOCKS - 1) as u32;
            table.open_function();
            for b in 0..nb {
                let ni = 2 + rng.range(MAX_HANDLER_BLOCK_INSTRS - 1) as u32;
                let term = if b == nb - 1 {
                    WalkBlock::RETURN
                } else {
                    WalkBlock::FALL_THROUGH
                };
                table.push(term, ni);
            }
        }
        let Table {
            cursor,
            mut walk,
            func_base,
            func_start,
        } = table;
        walk.shrink_to_fit();
        indirect.shrink_to_fit();

        let program = Program {
            walk,
            func_base,
            func_start,
            indirect,
            code_start: Addr(CODE_BASE),
            code_bytes: cursor as u64 - CODE_BASE,
            n_regular: n,
            by_rank,
            dispatch,
        };
        debug_assert_eq!(program.validate(), Ok(()));
        program
    }

    /// Chooses the terminator for non-final block `b` of `nb`.
    fn draw_terminator(
        &self,
        rng: &mut Rng64,
        b: u32,
        nb: u32,
        by_rank: &[FuncId],
        popularity: &TierSampler,
        indirect: &mut Vec<(FuncId, f32)>,
    ) -> WalkBlock {
        let p = &self.profile;
        let r = rng.f64();
        let mut acc = p.cond_branch_frac;
        if r < acc {
            return self.draw_cond_branch(rng, b, nb);
        }
        acc += p.uncond_branch_frac;
        if r < acc {
            // Unconditional branches go forward (a `goto` past some
            // blocks, often to a merge point or cleanup code well ahead).
            let skip = 2 + rng.geometric(1.0 / (1.0 + p.fwd_skip_mean), 16);
            let target = (b + skip as u32).min(nb - 1);
            return WalkBlock::uncond_branch(target);
        }
        acc += p.call_frac;
        if r < acc {
            // Call sites do not appear in a function's first blocks
            // (prologue and setup code precede the first call in real
            // functions). This also gives a prefetcher probing at function
            // entry enough lead time to cover an L2-resident callee.
            if b < MIN_CALL_BLOCK {
                return WalkBlock::FALL_THROUGH;
            }
            let callee = by_rank[popularity.sample(rng) as usize];
            return WalkBlock::call(callee);
        }
        acc += p.indirect_call_frac;
        if r < acc && b < MIN_CALL_BLOCK {
            return WalkBlock::FALL_THROUGH;
        }
        if r < acc {
            let n_targets = 2 + rng.range(3) as u32;
            let at = indirect.len() as u32;
            for _ in 0..n_targets {
                let callee = by_rank[popularity.sample(rng) as usize];
                indirect.push((callee, 0.2 + rng.f64() as f32 * 0.8));
            }
            return WalkBlock::indirect_call(at, n_targets);
        }
        acc += p.early_return_frac;
        if r < acc {
            return WalkBlock::RETURN;
        }
        WalkBlock::FALL_THROUGH
    }

    fn draw_cond_branch(&self, rng: &mut Rng64, b: u32, nb: u32) -> WalkBlock {
        let p = &self.profile;
        if rng.chance(p.cond_fwd_frac) {
            if rng.chance(p.rare_branch_frac) {
                // A rarely-taken guard (error/slow path): far-away cold
                // target, taken only occasionally — when it fires, the
                // target line has almost always left the caches. These are
                // the taken-forward branch misses of the paper's Figure 3.
                let skip = 2 + rng.geometric(1.0 / (1.0 + p.fwd_skip_mean * 2.0), 24);
                let target = (b + skip as u32).min(nb - 1);
                return WalkBlock::cond_branch(target, (0.05 + rng.f64() * 0.17) as f32);
            }
            let skip = 1 + rng.geometric(1.0 / (1.0 + (p.fwd_skip_mean - 1.0).max(0.0)), 12);
            WalkBlock::cond_branch((b + skip as u32).min(nb - 1), jitter(rng, p.fwd_taken_prob))
        } else {
            let span = 1 + rng.geometric(1.0 / (1.0 + (p.bwd_span_mean - 1.0).max(0.0)), 12);
            // Loop-continuation probability is capped: nested loops multiply
            // expected trip counts, and uncapped jitter produces functions
            // that trap the walker for millions of instructions.
            WalkBlock::cond_branch(
                b.saturating_sub(span as u32),
                jitter(rng, p.bwd_taken_prob).min(0.72),
            )
        }
    }
}

/// The program table under construction: blocks are appended in layout
/// order, each function opening at the current code cursor.
struct Table {
    /// Address of the next block's first instruction.
    cursor: u32,
    walk: Vec<WalkBlock>,
    func_base: Vec<u32>,
    func_start: Vec<u32>,
}

impl Table {
    /// Opens the next function at the cursor.
    fn open_function(&mut self) {
        self.func_base.push(self.walk.len() as u32);
        self.func_start.push(self.cursor);
    }

    /// Lays `ending` out as the open function's next block, `n_instrs`
    /// long, at the cursor.
    fn push(&mut self, ending: WalkBlock, n_instrs: u32) {
        let entry = *self.func_start.last().expect("a function is open");
        let offset = (self.cursor - entry) / INSTR_BYTES as u32;
        self.walk.push(ending.at(offset, n_instrs));
        self.cursor += n_instrs * INSTR_BYTES as u32;
    }
}

/// Adds ±0.15 of per-site variation to a mean probability, clamped to
/// (0.02, 0.98) so no branch is perfectly biased.
fn jitter(rng: &mut Rng64, mean: f64) -> f32 {
    let v = mean + (rng.f64() - 0.5) * 0.3;
    v.clamp(0.02, 0.98) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Workload;
    use crate::program::WalkKind;

    #[test]
    fn build_is_deterministic() {
        let a = ProgramBuilder::new(Workload::Db.profile(), 9).build();
        let b = ProgramBuilder::new(Workload::Db.profile(), 9).build();
        assert!(a == b, "same profile and seed built different programs");
    }

    #[test]
    fn different_seeds_differ() {
        let a = ProgramBuilder::new(Workload::Web.profile(), 1).build();
        let b = ProgramBuilder::new(Workload::Web.profile(), 2).build();
        assert_ne!(a.code_bytes(), b.code_bytes());
    }

    #[test]
    fn all_presets_validate() {
        for w in Workload::ALL {
            let prog = w.build_program(3);
            prog.validate().unwrap();
            assert_eq!(
                prog.n_functions(),
                w.profile().n_functions + w.profile().n_trap_handlers
            );
            assert!(max_code_end(&w.profile()) > prog.code_start().0 + prog.code_bytes());
        }
    }

    #[test]
    fn code_footprints_are_multi_megabyte() {
        for w in Workload::ALL {
            let prog = w.build_program(4);
            assert!(
                prog.code_bytes() > 1 << 20,
                "{} code {} too small",
                w.name(),
                prog.code_bytes()
            );
        }
        let japp = Workload::JApp.build_program(4);
        let web = Workload::Web.build_program(4);
        assert!(japp.code_bytes() > web.code_bytes());
    }

    #[test]
    fn mean_block_and_function_sizes_track_profile() {
        let prof = Workload::Db.profile();
        let prog = ProgramBuilder::new(prof.clone(), 5).build();
        let regular = &prog.walk[..prog.func_base[prog.n_regular() as usize] as usize];
        let total_instrs: u64 = regular.iter().map(|b| b.n_instrs() as u64).sum();
        let mean_blocks = regular.len() as f64 / prog.n_regular() as f64;
        let mean_instrs = total_instrs as f64 / regular.len() as f64;
        assert!(
            (mean_blocks - (1.0 + prof.blocks_per_fn_mean)).abs() < 0.8,
            "mean blocks {mean_blocks}"
        );
        assert!(
            (mean_instrs - (1.0 + prof.instrs_per_block_mean)).abs() < 0.6,
            "mean instrs {mean_instrs}"
        );
    }

    #[test]
    fn trap_handlers_are_straight_line() {
        let prog = Workload::Web.build_program(6);
        let handlers = &prog.walk[prog.func_base[prog.n_regular() as usize] as usize..];
        let returns = handlers
            .iter()
            .filter(|b| b.kind() == WalkKind::Return)
            .count();
        assert_eq!(returns as u32, prog.n_functions() - prog.n_regular());
        assert!(handlers
            .iter()
            .all(|b| matches!(b.kind(), WalkKind::FallThrough | WalkKind::Return)));
        assert_eq!(handlers.last().map(|b| b.kind()), Some(WalkKind::Return));
    }

    #[test]
    fn indirect_call_sites_own_disjoint_candidate_runs() {
        let prog = Workload::JApp.build_program(7);
        let mut next = 0;
        for b in prog
            .walk
            .iter()
            .filter(|b| b.kind() == WalkKind::IndirectCall)
        {
            let (at, n) = b.candidates();
            assert_eq!(at, next, "candidate runs are laid out in site order");
            assert!((2..=4).contains(&n));
            next += n;
        }
        assert!(next > 0);
        assert_eq!(next as usize, prog.indirect.len());
    }

    /// The ending `ending` laid out where block `at` of `prog` sits.
    fn relaid(prog: &Program, at: usize, ending: WalkBlock) -> WalkBlock {
        let b = prog.walk[at];
        ending.at(b.offset(), b.n_instrs())
    }

    #[test]
    fn validate_rejects_what_the_walker_cannot_follow() {
        let good = Workload::Web.build_program(8);
        let first = |kind: WalkKind| good.walk.iter().position(|b| b.kind() == kind).unwrap();

        let mut bad = good.clone();
        let branch = first(WalkKind::UncondBranch);
        bad.walk[branch] = relaid(&good, branch, WalkBlock::uncond_branch(64));
        assert!(bad.validate().unwrap_err().contains("bad target"));

        let mut bad = good.clone();
        let last_of_fn0 = bad.func_base[1] as usize - 1;
        bad.walk[last_of_fn0] = relaid(&good, last_of_fn0, WalkBlock::FALL_THROUGH);
        assert!(bad.validate().unwrap_err().contains("does not return"));

        let mut bad = good.clone();
        let (fall, b) = (good.walk.iter().enumerate())
            .find(|(_, b)| b.kind() == WalkKind::FallThrough && b.offset() > 0)
            .unwrap();
        bad.walk[fall] = WalkBlock::FALL_THROUGH.at(b.offset() + 1, b.n_instrs());
        assert!(bad.validate().unwrap_err().contains("cursor"));

        let mut bad = good.clone();
        bad.func_start[1] += INSTR_BYTES as u32;
        assert!(bad.validate().unwrap_err().contains("cursor"));

        let mut bad = good.clone();
        let site = first(WalkKind::IndirectCall);
        let stray = WalkBlock::indirect_call(good.indirect.len() as u32, 2);
        bad.walk[site] = relaid(&good, site, stray);
        assert!(bad.validate().unwrap_err().contains("no callees"));

        let mut bad = good.clone();
        let handler_entry = bad.func_base[bad.n_regular() as usize] as usize;
        bad.walk[handler_entry] = relaid(&good, handler_entry, WalkBlock::call(FuncId(0)));
        assert!(bad.validate().unwrap_err().contains("straight-line"));
    }

    #[test]
    fn the_largest_function_round_trips_through_the_packed_record() {
        // Every block at the instruction cap, every branch aimed at the
        // last block: the widest offset, count and target the caps allow.
        let nb = MAX_BLOCKS as u32 + 1;
        let ni = MAX_BLOCK_INSTRS as u32 + 1;
        let last = nb - 1;
        let mut table = Table {
            cursor: CODE_BASE as u32,
            walk: Vec::new(),
            func_base: Vec::new(),
            func_start: Vec::new(),
        };
        table.open_function();
        let prob = 0.3f32;
        for b in 0..nb {
            let ending = match b % 3 {
                _ if b == last => WalkBlock::RETURN,
                0 => WalkBlock::cond_branch(last, prob),
                1 => WalkBlock::uncond_branch(last),
                _ => WalkBlock::call(FuncId(0)),
            };
            table.push(ending, ni);
        }
        for (b, block) in table.walk.iter().enumerate() {
            let b = b as u32;
            assert_eq!(
                (block.offset(), block.n_instrs()),
                (b * ni, ni),
                "block {b}"
            );
            match block.kind() {
                WalkKind::CondBranch => assert_eq!((block.target(), block.prob()), (last, prob)),
                WalkKind::UncondBranch => assert_eq!(block.target(), last),
                WalkKind::Call => assert_eq!(block.callee(), FuncId(0)),
                kind => assert!(b == last && kind == WalkKind::Return, "block {b}: {kind:?}"),
            }
        }
        assert_eq!(table.walk[last as usize].offset(), last * ni);
        let code_bytes = (table.cursor as u64) - CODE_BASE;
        assert_eq!(code_bytes, (nb * ni) as u64 * INSTR_BYTES);
        let program = Program {
            walk: table.walk,
            func_base: table.func_base,
            func_start: table.func_start,
            indirect: Vec::new(),
            code_start: Addr(CODE_BASE),
            code_bytes,
            n_regular: 1,
            by_rank: vec![FuncId(0)],
            dispatch: TierSampler {
                hot: 1,
                warm: 0,
                total: 1,
                hot_prob: 1.0,
                warm_prob: 0.0,
            },
        };
        program.validate().unwrap();
        let entry = program.entry_addr(FuncId(0));
        let last_block = program.walk_block(0, last);
        assert_eq!(
            program.block_start(0, last_block),
            entry.offset((last * ni) as u64 * INSTR_BYTES)
        );
    }

    #[test]
    #[should_panic(expected = "32-bit addresses")]
    fn profiles_whose_code_could_outgrow_the_table_are_rejected() {
        let mut prof = Workload::Db.profile();
        prof.n_functions = 600_000;
        ProgramBuilder::new(prof, 1);
    }
}
