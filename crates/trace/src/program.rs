//! The static synthetic program: one flat table of 8-byte basic-block
//! records, laid out contiguously in a flat address space.

use ipsim_types::instr::INSTR_BYTES;
use ipsim_types::{Addr, Rng64};

/// Three-tier popularity sampler over function ranks: a small uniform hot
/// tier (the L1I-scale working set), a warm tier (L2-scale) and a cold
/// tail. Mirrors the data generator's locality hierarchy and gives the
/// workload profiles direct, well-behaved knobs over working-set sizes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TierSampler {
    pub(crate) hot: u32,
    pub(crate) warm: u32,
    pub(crate) total: u32,
    pub(crate) hot_prob: f64,
    pub(crate) warm_prob: f64,
}

impl TierSampler {
    /// Draws a popularity rank (0 = hottest region).
    pub(crate) fn sample(&self, rng: &mut Rng64) -> u32 {
        let r = rng.f64();
        if r < self.hot_prob {
            rng.range(self.hot as u64) as u32
        } else if r < self.hot_prob + self.warm_prob {
            self.hot + rng.range(self.warm as u64) as u32
        } else {
            let cold = self.total - self.hot - self.warm;
            if cold == 0 {
                rng.range(self.total as u64) as u32
            } else {
                self.hot + self.warm + rng.range(cold as u64) as u32
            }
        }
    }
}

/// Identifies a function by its layout position (function 0 sits at the
/// lowest code address).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

/// How a basic block ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum WalkKind {
    /// The block simply continues into the next block (the "terminator"
    /// slot holds an ordinary instruction).
    FallThrough,
    /// A conditional PC-relative branch to block `target` of the same
    /// function, taken with probability `prob` on each dynamic execution.
    CondBranch,
    /// An unconditional PC-relative branch to block `target`.
    UncondBranch,
    /// A direct call of function `callee`; execution resumes at the next
    /// block on return. Direct call targets are embedded in the
    /// instruction, the property that makes most discontinuities
    /// single-target.
    Call,
    /// An indirect call (SPARC `jmpl`) through a register: one of the
    /// weighted `candidates` (an offset into the program's candidate
    /// table and a count), chosen per dynamic execution.
    IndirectCall,
    /// Return to the caller.
    Return,
}

/// Bit widths of a [`WalkBlock`]'s packed `head` word, low bits first:
/// the block's offset from its function's entry in instructions, its
/// instruction count, its ending, and a 12-bit field read by ending.
pub(crate) const OFFSET_BITS: u32 = 11;
pub(crate) const COUNT_BITS: u32 = 6;
const KIND_BITS: u32 = 3;
pub(crate) const FIELD_BITS: u32 = 12;
const COUNT_SHIFT: u32 = OFFSET_BITS;
const KIND_SHIFT: u32 = COUNT_SHIFT + COUNT_BITS;
const FIELD_SHIFT: u32 = KIND_SHIFT + KIND_BITS;
const _: () = assert!(FIELD_SHIFT + FIELD_BITS == u32::BITS);
const _: () = assert!((WalkKind::Return as u32) < 1 << KIND_BITS);

/// `WalkKind` by its 3-bit code; codes past `Return` are never written.
const KINDS: [WalkKind; 1 << KIND_BITS] = [
    WalkKind::FallThrough,
    WalkKind::CondBranch,
    WalkKind::UncondBranch,
    WalkKind::Call,
    WalkKind::IndirectCall,
    WalkKind::Return,
    WalkKind::Return,
    WalkKind::Return,
];

/// One basic block: `n_instrs` instructions at `offset` instructions past
/// its function's entry (`Program::func_start`), the last being the
/// terminator. Everything the walker's dispatch loop needs, in 8 bytes
/// with no nested indirection:
///
/// * `head` packs the offset, the instruction count, the ending and a
///   12-bit field: a branch's target block within the same function, or
///   an indirect call's candidate count;
/// * `arg` holds, by ending, a conditional branch's `f32` taken
///   probability (its bits), a direct call's callee function, or an
///   indirect call's offset into the candidate table.
///
/// The builder's caps (`MAX_BLOCKS`, `MAX_BLOCK_INSTRS`) are tied to the
/// widths by `const` assertions, so every field of every built program
/// fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WalkBlock {
    head: u32,
    arg: u32,
}

const _: () = assert!(std::mem::size_of::<WalkBlock>() == 8);

impl WalkBlock {
    /// A block ending in `kind` with its 12-bit `field` and `arg` word,
    /// not yet laid out (see [`WalkBlock::at`]).
    const fn ending(kind: WalkKind, field: u32, arg: u32) -> WalkBlock {
        WalkBlock {
            head: (kind as u32) << KIND_SHIFT | field << FIELD_SHIFT,
            arg,
        }
    }

    /// A block that falls through into the next one.
    pub(crate) const FALL_THROUGH: WalkBlock = WalkBlock::ending(WalkKind::FallThrough, 0, 0);
    /// A block that returns to its caller.
    pub(crate) const RETURN: WalkBlock = WalkBlock::ending(WalkKind::Return, 0, 0);

    /// A conditional branch to block `target`, taken with probability
    /// `prob`.
    pub(crate) fn cond_branch(target: u32, prob: f32) -> WalkBlock {
        debug_assert!(target < 1 << FIELD_BITS);
        WalkBlock::ending(WalkKind::CondBranch, target, prob.to_bits())
    }

    /// An unconditional branch to block `target`.
    pub(crate) fn uncond_branch(target: u32) -> WalkBlock {
        debug_assert!(target < 1 << FIELD_BITS);
        WalkBlock::ending(WalkKind::UncondBranch, target, 0)
    }

    /// A direct call of `callee`.
    pub(crate) fn call(callee: FuncId) -> WalkBlock {
        WalkBlock::ending(WalkKind::Call, 0, callee.0)
    }

    /// An indirect call through the `n` candidates at offset `at` of the
    /// candidate table.
    pub(crate) fn indirect_call(at: u32, n: u32) -> WalkBlock {
        debug_assert!(n < 1 << FIELD_BITS);
        WalkBlock::ending(WalkKind::IndirectCall, n, at)
    }

    /// This ending, laid out as a block of `n_instrs` at `offset`
    /// instructions past its function's entry.
    pub(crate) fn at(self, offset: u32, n_instrs: u32) -> WalkBlock {
        debug_assert!(offset < 1 << OFFSET_BITS);
        debug_assert!((1..1 << COUNT_BITS).contains(&n_instrs));
        WalkBlock {
            head: self.head | offset | n_instrs << COUNT_SHIFT,
            ..self
        }
    }

    /// How the block ends.
    #[inline]
    pub(crate) fn kind(&self) -> WalkKind {
        KINDS[(self.head >> KIND_SHIFT) as usize & ((1 << KIND_BITS) - 1)]
    }

    /// Offset of the block's first instruction from its function's
    /// entry, in instructions.
    #[inline]
    pub(crate) fn offset(&self) -> u32 {
        self.head & ((1 << OFFSET_BITS) - 1)
    }

    /// Instruction count including the terminator slot (1 to 32).
    #[inline]
    pub(crate) fn n_instrs(&self) -> u32 {
        (self.head >> COUNT_SHIFT) & ((1 << COUNT_BITS) - 1)
    }

    /// Target block index within the same function (branches only).
    #[inline]
    pub(crate) fn target(&self) -> u32 {
        self.head >> FIELD_SHIFT
    }

    /// Per-execution taken probability (conditional branches only).
    #[inline]
    pub(crate) fn prob(&self) -> f32 {
        f32::from_bits(self.arg)
    }

    /// The callee (direct calls only).
    #[inline]
    pub(crate) fn callee(&self) -> FuncId {
        FuncId(self.arg)
    }

    /// Offset into the candidate table and candidate count (indirect
    /// calls only).
    #[inline]
    pub(crate) fn candidates(&self) -> (u32, u32) {
        (self.arg, self.head >> FIELD_SHIFT)
    }
}

/// A complete synthetic static program.
///
/// Built by [`ProgramBuilder`](crate::ProgramBuilder); walked by
/// [`TraceWalker`](crate::TraceWalker). Several walkers (one per simulated
/// core) may share one `Program` — that is how we model multiple cores
/// running the same binary with shared code but independent control flow.
///
/// The program is one flat table of 8-byte block records, every
/// function's blocks concatenated in layout order, a per-function table
/// of entry addresses the records' offsets count from, and one flat
/// table of indirect-call candidates. Functions are runs of the block
/// table; trap handlers are the last `n_functions - n_regular` of them.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Every function's blocks, concatenated in layout order.
    pub(crate) walk: Vec<WalkBlock>,
    /// `func_base[f]` is the index of function `f`'s first block in `walk`.
    pub(crate) func_base: Vec<u32>,
    /// `func_start[f]` is function `f`'s entry address (profiles whose
    /// code could pass 4 GB are rejected by
    /// `WorkloadProfile::assert_valid`).
    pub(crate) func_start: Vec<u32>,
    /// Indirect-call candidates with selection weights, one run per call
    /// site.
    pub(crate) indirect: Vec<(FuncId, f32)>,
    pub(crate) code_start: Addr,
    pub(crate) code_bytes: u64,
    /// Number of ordinary (non-trap-handler) functions.
    pub(crate) n_regular: u32,
    /// Popularity permutation: `by_rank[r]` is the function holding
    /// popularity rank `r` (rank 0 hottest).
    pub(crate) by_rank: Vec<FuncId>,
    /// Sampler over popularity ranks used for transaction dispatch.
    pub(crate) dispatch: TierSampler,
}

impl Program {
    /// The block record for block `block` of function `func`.
    #[inline]
    pub(crate) fn walk_block(&self, func: u32, block: u32) -> &WalkBlock {
        &self.walk[(self.func_base[func as usize] + block) as usize]
    }

    /// Address of the first instruction of `block`, a block of function
    /// `func`.
    #[inline]
    pub(crate) fn block_start(&self, func: u32, block: &WalkBlock) -> Addr {
        Addr(self.func_start[func as usize] as u64 + block.offset() as u64 * INSTR_BYTES)
    }

    /// Entry address of function `id`.
    #[inline]
    pub(crate) fn entry_addr(&self, id: FuncId) -> Addr {
        Addr(self.func_start[id.0 as usize] as u64)
    }

    /// The candidate callees of an indirect-call block.
    #[inline]
    pub(crate) fn callees(&self, block: &WalkBlock) -> &[(FuncId, f32)] {
        let (at, n) = block.candidates();
        &self.indirect[at as usize..(at + n) as usize]
    }

    /// Function `f`'s blocks, or `None` if its run of the block table is
    /// empty or out of bounds.
    fn blocks_of(&self, f: usize) -> Option<&[WalkBlock]> {
        let base = self.func_base[f] as usize;
        let end = self
            .func_base
            .get(f + 1)
            .map_or(self.walk.len(), |&b| b as usize);
        self.walk.get(base..end).filter(|blocks| !blocks.is_empty())
    }

    /// Total number of functions, including trap handlers.
    pub fn n_functions(&self) -> u32 {
        self.func_base.len() as u32
    }

    /// Total number of basic blocks, including trap handlers'.
    pub fn n_blocks(&self) -> u32 {
        self.walk.len() as u32
    }

    /// Number of ordinary (callable) functions.
    pub fn n_regular(&self) -> u32 {
        self.n_regular
    }

    /// Lowest code address.
    pub fn code_start(&self) -> Addr {
        self.code_start
    }

    /// Total code size in bytes.
    pub fn code_bytes(&self) -> u64 {
        self.code_bytes
    }

    /// Draws the entry function for the next top-level transaction.
    pub fn next_transaction(&self, rng: &mut Rng64) -> FuncId {
        self.by_rank[self.dispatch.sample(rng) as usize]
    }

    /// Draws a popularity rank from the dispatch tiers (used by the walker
    /// to centre a transaction's service window).
    pub fn dispatch_rank(&self, rng: &mut Rng64) -> u32 {
        self.dispatch.sample(rng)
    }

    /// The function holding popularity rank `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn function_at_rank(&self, rank: u32) -> FuncId {
        self.by_rank[rank as usize]
    }

    /// Draws a trap-handler function.
    ///
    /// # Panics
    ///
    /// Panics if the program was built without trap handlers.
    pub fn trap_handler(&self, rng: &mut Rng64) -> FuncId {
        let n_handlers = self.n_functions() - self.n_regular;
        assert!(n_handlers > 0, "program has no trap handlers");
        FuncId(self.n_regular + rng.range(n_handlers as u64) as u32)
    }

    /// Checks the invariants the walker relies on; used by tests and the
    /// builder.
    ///
    /// Verified invariants: every function is a non-empty run of the block
    /// table with an entry address, and blocks are laid out contiguously
    /// and in order from `code_start` across `code_bytes`; every branch target is a valid
    /// block index in its function; every call target is a valid regular
    /// function with a positive weight; the last block of every function
    /// returns; the trap handlers at the tail are straight-line code.
    pub fn validate(&self) -> Result<(), String> {
        if self.func_base.first() != Some(&0) {
            return Err("function 0 does not open the block table".to_string());
        }
        if self.n_regular > self.n_functions() {
            return Err("more regular functions than functions".to_string());
        }
        if self.func_start.len() != self.func_base.len() {
            return Err("entry table does not cover the functions".to_string());
        }
        let mut cursor = self.code_start;
        for fi in 0..self.func_base.len() {
            let Some(blocks) = self.blocks_of(fi) else {
                return Err(format!("function {fi} has no blocks"));
            };
            let entry = self.entry_addr(FuncId(fi as u32));
            if entry != cursor {
                return Err(format!("function {fi}: entry {entry} != cursor {cursor}"));
            }
            let nb = blocks.len() as u32;
            let handler = fi as u32 >= self.n_regular;
            for (bi, b) in blocks.iter().enumerate() {
                let err = |what: &str| Err(format!("function {fi} block {bi}: {what}"));
                let start = self.block_start(fi as u32, b);
                if start != cursor {
                    return err(&format!("start {start} != cursor {cursor}"));
                }
                if b.n_instrs() == 0 {
                    return err("empty");
                }
                cursor = cursor.offset(b.n_instrs() as u64 * INSTR_BYTES);
                let bad = match b.kind() {
                    WalkKind::CondBranch if !(0.0..=1.0).contains(&b.prob()) => Some("bad prob"),
                    WalkKind::CondBranch | WalkKind::UncondBranch => {
                        (b.target() >= nb).then_some("bad target")
                    }
                    WalkKind::Call => (b.callee().0 >= self.n_regular).then_some("bad callee"),
                    WalkKind::IndirectCall => {
                        let (at, n) = b.candidates();
                        match self.indirect.get(at as usize..(at + n) as usize) {
                            None | Some([]) => Some("no callees"),
                            Some(callees) => callees
                                .iter()
                                .any(|(c, w)| c.0 >= self.n_regular || *w <= 0.0)
                                .then_some("bad callee"),
                        }
                    }
                    WalkKind::FallThrough | WalkKind::Return => None,
                };
                if let Some(what) = bad {
                    return err(what);
                }
                if handler && !matches!(b.kind(), WalkKind::FallThrough | WalkKind::Return) {
                    return err("trap handler is not straight-line");
                }
                if bi as u32 == nb - 1 && b.kind() != WalkKind::Return {
                    return err("last block does not return");
                }
            }
        }
        let span = cursor.0 - self.code_start.0;
        if span != self.code_bytes {
            return Err(format!(
                "code_bytes {} != laid-out span {span}",
                self.code_bytes
            ));
        }
        if self.by_rank.len() != self.n_regular as usize
            || self.by_rank.iter().any(|f| f.0 >= self.n_regular)
        {
            return Err("popularity permutation does not cover the regular functions".to_string());
        }
        Ok(())
    }
}
