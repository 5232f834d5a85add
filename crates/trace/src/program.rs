//! The static synthetic program: one flat table of 16-byte basic-block
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
    /// A direct call of function `target`; execution resumes at the next
    /// block on return. Direct call targets are embedded in the
    /// instruction, the property that makes most discontinuities
    /// single-target.
    Call,
    /// An indirect call (SPARC `jmpl`) through a register: one of the
    /// `n_callees` weighted candidates at offset `target` of the
    /// program's candidate table, chosen per dynamic execution.
    IndirectCall,
    /// Return to the caller.
    Return,
}

/// One basic block: `n_instrs` instructions at `start`, the last being the
/// terminator. Everything the walker's dispatch loop needs, in 16 bytes
/// with no nested indirection. `target` is read by `kind`: a block index
/// within the same function (branches), a callee function (direct calls)
/// or an offset into the indirect-call candidate table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct WalkBlock {
    /// Address of the block's first instruction (profiles whose code
    /// could pass 4 GB are rejected by `WorkloadProfile::assert_valid`).
    pub(crate) start: u32,
    pub(crate) target: u32,
    /// Per-execution taken probability (conditional branches only).
    pub(crate) prob: f32,
    /// Instruction count including the terminator slot (1 to 32).
    pub(crate) n_instrs: u8,
    pub(crate) kind: WalkKind,
    /// Candidate count at `target` (indirect calls only).
    pub(crate) n_callees: u8,
}

const _: () = assert!(std::mem::size_of::<WalkBlock>() == 16);

impl WalkBlock {
    /// A block ending in `kind`, not yet laid out (see [`WalkBlock::at`]).
    pub(crate) const fn ending(kind: WalkKind, target: u32, prob: f32) -> WalkBlock {
        WalkBlock {
            start: 0,
            target,
            prob,
            n_instrs: 0,
            kind,
            n_callees: 0,
        }
    }

    /// This ending, laid out as a block of `n_instrs` at `start`.
    pub(crate) fn at(self, start: u32, n_instrs: u32) -> WalkBlock {
        debug_assert!((1..=u8::MAX as u32).contains(&n_instrs));
        WalkBlock {
            start,
            n_instrs: n_instrs as u8,
            ..self
        }
    }

    /// Address of the block's first instruction.
    #[inline]
    pub(crate) fn start(&self) -> Addr {
        Addr(self.start as u64)
    }
}

/// A complete synthetic static program.
///
/// Built by [`ProgramBuilder`](crate::ProgramBuilder); walked by
/// [`TraceWalker`](crate::TraceWalker). Several walkers (one per simulated
/// core) may share one `Program` — that is how we model multiple cores
/// running the same binary with shared code but independent control flow.
///
/// The program is one flat table of 16-byte block records, every
/// function's blocks concatenated in layout order, plus one flat table
/// of indirect-call candidates. Functions are runs of the block table;
/// trap handlers are the last `n_functions - n_regular` of them.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Every function's blocks, concatenated in layout order.
    pub(crate) walk: Vec<WalkBlock>,
    /// `func_base[f]` is the index of function `f`'s first block in `walk`.
    pub(crate) func_base: Vec<u32>,
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

    /// Entry address of function `id`.
    #[inline]
    pub(crate) fn entry_addr(&self, id: FuncId) -> Addr {
        self.walk[self.func_base[id.0 as usize] as usize].start()
    }

    /// The candidate callees of an indirect-call block.
    #[inline]
    pub(crate) fn callees(&self, block: &WalkBlock) -> &[(FuncId, f32)] {
        let at = block.target as usize;
        &self.indirect[at..at + block.n_callees as usize]
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
    /// table, and blocks are laid out contiguously and in order from
    /// `code_start` across `code_bytes`; every branch target is a valid
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
        let mut cursor = self.code_start;
        for fi in 0..self.func_base.len() {
            let Some(blocks) = self.blocks_of(fi) else {
                return Err(format!("function {fi} has no blocks"));
            };
            let nb = blocks.len() as u32;
            let handler = fi as u32 >= self.n_regular;
            for (bi, b) in blocks.iter().enumerate() {
                let err = |what: &str| Err(format!("function {fi} block {bi}: {what}"));
                if b.start() != cursor {
                    return err(&format!("start {} != cursor {cursor}", b.start()));
                }
                if b.n_instrs == 0 {
                    return err("empty");
                }
                cursor = cursor.offset(b.n_instrs as u64 * INSTR_BYTES);
                let bad = match b.kind {
                    WalkKind::CondBranch if !(0.0..=1.0).contains(&b.prob) => Some("bad prob"),
                    WalkKind::CondBranch | WalkKind::UncondBranch => {
                        (b.target >= nb).then_some("bad target")
                    }
                    WalkKind::Call => (b.target >= self.n_regular).then_some("bad callee"),
                    WalkKind::IndirectCall => {
                        let at = b.target as usize;
                        match self.indirect.get(at..at + b.n_callees as usize) {
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
                if handler && !matches!(b.kind, WalkKind::FallThrough | WalkKind::Return) {
                    return err("trap handler is not straight-line");
                }
                if bi as u32 == nb - 1 && b.kind != WalkKind::Return {
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
