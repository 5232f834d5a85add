//! Branch prediction: gshare + direct-mapped tagless BTB + return-address
//! stack (the structures of the paper's Section 5).

use ipsim_types::config::BranchConfig;
use ipsim_types::instr::{CtiClass, OpKind, TraceOp, INSTR_BYTES};
use ipsim_types::Addr;

/// Cycles lost to a front-end redirect when a *decode-time* target
/// mispredicts (direct branches/calls whose target is computed at decode).
const DECODE_REDIRECT_PENALTY: u32 = 3;

/// A gshare byte holding four 2-bit counters, each at 1, "weakly
/// not-taken" — the state every counter starts in.
const GSHARE_WEAKLY_NOT_TAKEN: u8 = 0x55;

/// Branch-prediction statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BranchStats {
    /// Conditional branches seen.
    pub cond_branches: u64,
    /// Conditional direction mispredictions.
    pub cond_mispredicts: u64,
    /// Taken CTIs whose BTB target was wrong (decode-level redirects for
    /// direct CTIs).
    pub btb_misses: u64,
    /// Indirect jumps whose predicted target was wrong (execute-level
    /// flush).
    pub jump_mispredicts: u64,
    /// Returns mispredicted by the RAS.
    pub ras_mispredicts: u64,
    /// Traps (always full flushes).
    pub traps: u64,
}

impl BranchStats {
    /// Direction misprediction rate over conditional branches.
    pub fn cond_mispredict_rate(&self) -> f64 {
        if self.cond_branches == 0 {
            0.0
        } else {
            self.cond_mispredicts as f64 / self.cond_branches as f64
        }
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &BranchStats) {
        self.cond_branches += other.cond_branches;
        self.cond_mispredicts += other.cond_mispredicts;
        self.btb_misses += other.btb_misses;
        self.jump_mispredicts += other.jump_mispredicts;
        self.ras_mispredicts += other.ras_mispredicts;
        self.traps += other.traps;
    }
}

/// Per-core branch-prediction unit.
///
/// * conditional direction: gshare (global-history XOR PC into a table of
///   2-bit counters),
/// * taken targets: direct-mapped, tagless BTB,
/// * returns: a circular return-address stack, pushed by calls / indirect
///   calls / traps.
///
/// [`BranchUnit::process`] consumes one CTI and returns the pipeline
/// penalty in cycles.
#[derive(Debug, Clone)]
pub struct BranchUnit {
    /// The gshare's 2-bit counters, four per byte: counter `i` is bits
    /// `2 * (i % 4)..2 * (i % 4) + 2` of byte `i / 4`.
    gshare: Vec<u8>,
    gshare_mask: u64,
    history: u64,
    btb: Vec<u64>,
    btb_mask: u64,
    ras: Vec<Addr>,
    ras_top: usize,
    ras_depth: usize,
    full_penalty: u32,
    stats: BranchStats,
}

impl BranchUnit {
    /// Creates a branch unit; `full_penalty` is the pipeline depth charged
    /// on an execute-level misprediction.
    pub fn new(config: &BranchConfig, full_penalty: u32) -> BranchUnit {
        BranchUnit {
            gshare: vec![GSHARE_WEAKLY_NOT_TAKEN; (config.gshare_entries as usize).div_ceil(4)],
            gshare_mask: config.gshare_entries as u64 - 1,
            history: 0,
            btb: vec![0; config.btb_entries as usize],
            btb_mask: config.btb_entries as u64 - 1,
            ras: vec![Addr(0); config.ras_entries as usize],
            ras_top: 0,
            ras_depth: 0,
            full_penalty,
            stats: BranchStats::default(),
        }
    }

    /// Forgets everything learned — counters, history, BTB, RAS and
    /// statistics — restoring the state of a freshly built unit with the
    /// same geometry (run-reuse reset; table allocations kept).
    pub fn reset_cold(&mut self) {
        self.gshare.fill(GSHARE_WEAKLY_NOT_TAKEN);
        self.history = 0;
        self.btb.fill(0);
        self.ras.fill(Addr(0));
        self.ras_top = 0;
        self.ras_depth = 0;
        self.stats = BranchStats::default();
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &BranchStats {
        &self.stats
    }

    /// Resets statistics (end of warm-up) without clearing predictor state.
    pub fn reset_stats(&mut self) {
        self.stats = BranchStats::default();
    }

    #[inline]
    fn gshare_index(&self, pc: Addr) -> usize {
        (((pc.0 >> 2) ^ self.history) & self.gshare_mask) as usize
    }

    #[inline]
    fn btb_index(&self, pc: Addr) -> usize {
        ((pc.0 >> 2) & self.btb_mask) as usize
    }

    // The stack depth is a runtime configuration value, so wrap-around is
    // a compare instead of a `%` (which would be a hardware divide on the
    // hot call/return path).
    fn ras_push(&mut self, addr: Addr) {
        self.ras_top += 1;
        if self.ras_top == self.ras.len() {
            self.ras_top = 0;
        }
        self.ras[self.ras_top] = addr;
        self.ras_depth = (self.ras_depth + 1).min(self.ras.len());
    }

    fn ras_pop(&mut self) -> Option<Addr> {
        if self.ras_depth == 0 {
            return None;
        }
        let v = self.ras[self.ras_top];
        self.ras_top = if self.ras_top == 0 {
            self.ras.len() - 1
        } else {
            self.ras_top - 1
        };
        self.ras_depth -= 1;
        Some(v)
    }

    /// Processes one control-transfer instruction: predicts, updates state
    /// and returns the penalty in cycles (0 for a correct prediction).
    ///
    /// Non-CTI ops are ignored (return 0).
    pub fn process(&mut self, op: &TraceOp) -> u32 {
        let OpKind::Cti {
            class,
            taken,
            target,
        } = op.kind
        else {
            return 0;
        };
        match class {
            CtiClass::CondBranch => {
                self.stats.cond_branches += 1;
                let idx = self.gshare_index(op.pc);
                let shift = (idx % 4) * 2;
                let byte = &mut self.gshare[idx / 4];
                let counter = (*byte >> shift) & 3;
                let predicted_taken = counter >= 2;
                // Update the 2-bit counter and the global history.
                let updated = if taken {
                    (counter + 1).min(3)
                } else {
                    counter.saturating_sub(1)
                };
                *byte = (*byte & !(3 << shift)) | (updated << shift);
                self.history = ((self.history << 1) | taken as u64) & self.gshare_mask;
                if predicted_taken != taken {
                    self.stats.cond_mispredicts += 1;
                    return self.full_penalty;
                }
                if taken {
                    // Direction right; a stale BTB target still costs a
                    // decode redirect (PC-relative target recomputed).
                    let b = self.btb_index(op.pc);
                    let hit = self.btb[b] == target.0;
                    self.btb[b] = target.0;
                    if !hit {
                        self.stats.btb_misses += 1;
                        return DECODE_REDIRECT_PENALTY;
                    }
                }
                0
            }
            CtiClass::UncondBranch | CtiClass::Call => {
                // Direct targets: recomputable at decode, so a BTB miss is a
                // short redirect only.
                if class == CtiClass::Call {
                    self.ras_push(op.pc.offset(INSTR_BYTES));
                }
                let b = self.btb_index(op.pc);
                let hit = self.btb[b] == target.0;
                self.btb[b] = target.0;
                if !hit {
                    self.stats.btb_misses += 1;
                    DECODE_REDIRECT_PENALTY
                } else {
                    0
                }
            }
            CtiClass::Jump => {
                // Indirect call: target known only at execute.
                self.ras_push(op.pc.offset(INSTR_BYTES));
                let b = self.btb_index(op.pc);
                let hit = self.btb[b] == target.0;
                self.btb[b] = target.0;
                if !hit {
                    self.stats.jump_mispredicts += 1;
                    self.full_penalty
                } else {
                    0
                }
            }
            CtiClass::Return => {
                let predicted = self.ras_pop();
                if predicted == Some(target) {
                    0
                } else {
                    self.stats.ras_mispredicts += 1;
                    self.full_penalty
                }
            }
            CtiClass::Trap => {
                self.stats.traps += 1;
                self.ras_push(op.pc.offset(INSTR_BYTES));
                self.full_penalty
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsim_types::config::BranchConfig;
    use proptest::prelude::*;

    /// The branch unit as it was before its gshare counters were packed
    /// four to a byte: one byte per 2-bit counter, otherwise unchanged.
    /// The packed unit must agree with it on every prediction.
    mod reference {
        use super::super::{BranchStats, DECODE_REDIRECT_PENALTY};
        use ipsim_types::config::BranchConfig;
        use ipsim_types::instr::{CtiClass, OpKind, TraceOp, INSTR_BYTES};
        use ipsim_types::Addr;

        pub struct BranchUnit {
            pub gshare: Vec<u8>,
            gshare_mask: u64,
            pub history: u64,
            btb: Vec<u64>,
            btb_mask: u64,
            ras: Vec<Addr>,
            ras_top: usize,
            ras_depth: usize,
            full_penalty: u32,
            pub stats: BranchStats,
        }

        impl BranchUnit {
            pub fn new(config: &BranchConfig, full_penalty: u32) -> BranchUnit {
                BranchUnit {
                    gshare: vec![1; config.gshare_entries as usize],
                    gshare_mask: config.gshare_entries as u64 - 1,
                    history: 0,
                    btb: vec![0; config.btb_entries as usize],
                    btb_mask: config.btb_entries as u64 - 1,
                    ras: vec![Addr(0); config.ras_entries as usize],
                    ras_top: 0,
                    ras_depth: 0,
                    full_penalty,
                    stats: BranchStats::default(),
                }
            }

            pub fn reset_cold(&mut self) {
                self.gshare.fill(1);
                self.history = 0;
                self.btb.fill(0);
                self.ras.fill(Addr(0));
                self.ras_top = 0;
                self.ras_depth = 0;
                self.stats = BranchStats::default();
            }

            fn btb_index(&self, pc: Addr) -> usize {
                ((pc.0 >> 2) & self.btb_mask) as usize
            }

            fn ras_push(&mut self, addr: Addr) {
                self.ras_top = (self.ras_top + 1) % self.ras.len();
                self.ras[self.ras_top] = addr;
                self.ras_depth = (self.ras_depth + 1).min(self.ras.len());
            }

            fn ras_pop(&mut self) -> Option<Addr> {
                if self.ras_depth == 0 {
                    return None;
                }
                let v = self.ras[self.ras_top];
                self.ras_top = (self.ras_top + self.ras.len() - 1) % self.ras.len();
                self.ras_depth -= 1;
                Some(v)
            }

            /// The BTB check every taken CTI but a return makes:
            /// `miss_penalty` on a stale target.
            fn btb(&mut self, pc: Addr, target: Addr, miss_penalty: u32) -> Option<u32> {
                let b = self.btb_index(pc);
                let hit = self.btb[b] == target.0;
                self.btb[b] = target.0;
                (!hit).then_some(miss_penalty)
            }

            pub fn process(&mut self, op: &TraceOp) -> u32 {
                let OpKind::Cti {
                    class,
                    taken,
                    target,
                } = op.kind
                else {
                    return 0;
                };
                let next = op.pc.offset(INSTR_BYTES);
                match class {
                    CtiClass::CondBranch => {
                        self.stats.cond_branches += 1;
                        let idx = (((op.pc.0 >> 2) ^ self.history) & self.gshare_mask) as usize;
                        let predicted_taken = self.gshare[idx] >= 2;
                        if taken {
                            self.gshare[idx] = (self.gshare[idx] + 1).min(3);
                        } else {
                            self.gshare[idx] = self.gshare[idx].saturating_sub(1);
                        }
                        self.history = ((self.history << 1) | taken as u64) & self.gshare_mask;
                        if predicted_taken != taken {
                            self.stats.cond_mispredicts += 1;
                            return self.full_penalty;
                        }
                        if !taken {
                            return 0;
                        }
                        let miss = self.btb(op.pc, target, DECODE_REDIRECT_PENALTY);
                        self.stats.btb_misses += miss.is_some() as u64;
                        miss.unwrap_or(0)
                    }
                    CtiClass::UncondBranch | CtiClass::Call => {
                        if class == CtiClass::Call {
                            self.ras_push(next);
                        }
                        let miss = self.btb(op.pc, target, DECODE_REDIRECT_PENALTY);
                        self.stats.btb_misses += miss.is_some() as u64;
                        miss.unwrap_or(0)
                    }
                    CtiClass::Jump => {
                        self.ras_push(next);
                        let miss = self.btb(op.pc, target, self.full_penalty);
                        self.stats.jump_mispredicts += miss.is_some() as u64;
                        miss.unwrap_or(0)
                    }
                    CtiClass::Return => {
                        if self.ras_pop() == Some(target) {
                            0
                        } else {
                            self.stats.ras_mispredicts += 1;
                            self.full_penalty
                        }
                    }
                    CtiClass::Trap => {
                        self.stats.traps += 1;
                        self.ras_push(next);
                        self.full_penalty
                    }
                }
            }
        }
    }

    /// Counter `i` of the packed gshare.
    fn counter(u: &BranchUnit, i: usize) -> u8 {
        (u.gshare[i / 4] >> (i % 4 * 2)) & 3
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Over random CTI streams and every gshare size from 1 to 64 Ki
        /// entries, the packed unit returns the reference's penalties and
        /// keeps its history, statistics and every counter. A step is
        /// `(pc word, kind, taken, target word)`: kinds 0–5 are the CTI
        /// classes, 6 a non-CTI op, 7 `reset_stats` and 8 `reset_cold`.
        #[test]
        fn packed_gshare_matches_a_byte_per_counter_reference(
            gshare_log2 in 0u32..17,
            btb_log2 in 0u32..5,
            ras_entries in 1u32..20,
            steps in prop::collection::vec(
                (0u64..96, 0u8..9, any::<bool>(), 0u64..24),
                1..600,
            ),
        ) {
            let config = BranchConfig {
                gshare_entries: 1 << gshare_log2,
                btb_entries: 1 << btb_log2,
                ras_entries,
            };
            let mut packed = BranchUnit::new(&config, 16);
            let mut reference = reference::BranchUnit::new(&config, 16);
            for (pc, kind, taken, target) in steps {
                let class = match kind {
                    0 => CtiClass::CondBranch,
                    1 => CtiClass::UncondBranch,
                    2 => CtiClass::Call,
                    3 => CtiClass::Jump,
                    4 => CtiClass::Return,
                    5 => CtiClass::Trap,
                    6 => {
                        let op = TraceOp { pc: Addr(pc * 4), kind: OpKind::Other };
                        prop_assert_eq!(packed.process(&op), reference.process(&op));
                        continue;
                    }
                    7 => {
                        packed.reset_stats();
                        reference.stats = BranchStats::default();
                        continue;
                    }
                    _ => {
                        packed.reset_cold();
                        reference.reset_cold();
                        continue;
                    }
                };
                let op = cti(pc * 4, class, taken, target * 4);
                prop_assert_eq!(packed.process(&op), reference.process(&op));
                prop_assert_eq!(packed.history, reference.history);
                prop_assert_eq!(packed.stats(), &reference.stats);
            }
            for (i, &want) in reference.gshare.iter().enumerate() {
                prop_assert_eq!(counter(&packed, i), want, "counter {}", i);
            }
        }
    }

    fn unit() -> BranchUnit {
        BranchUnit::new(&BranchConfig::default(), 16)
    }

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

    #[test]
    fn non_cti_costs_nothing() {
        let mut u = unit();
        let op = TraceOp {
            pc: Addr(100),
            kind: OpKind::Other,
        };
        assert_eq!(u.process(&op), 0);
        assert_eq!(u.stats().cond_branches, 0);
    }

    #[test]
    fn gshare_learns_a_steady_branch() {
        let mut u = unit();
        let op = cti(100, CtiClass::CondBranch, true, 200);
        // Early encounters mispredict: the counters start weakly not-taken
        // and the global history keeps shifting, moving the gshare index,
        // until it saturates at all-taken. Train well past that point.
        for _ in 0..40 {
            u.process(&op);
        }
        assert_eq!(u.process(&op), 0);
        assert!(u.stats().cond_mispredict_rate() < 0.5);
    }

    #[test]
    fn alternating_history_is_learnable() {
        let mut u = unit();
        // A branch alternating T/N/T/N: history-based gshare learns it.
        let mut penalties = 0;
        for i in 0..200 {
            let op = cti(100, CtiClass::CondBranch, i % 2 == 0, 200);
            if u.process(&op) > 0 {
                penalties += 1;
            }
        }
        assert!(
            penalties < 40,
            "gshare failed to learn alternation: {penalties}"
        );
    }

    #[test]
    fn direct_call_misses_cost_decode_redirect_once() {
        let mut u = unit();
        let op = cti(100, CtiClass::Call, true, 5000);
        assert_eq!(u.process(&op), DECODE_REDIRECT_PENALTY);
        assert_eq!(u.process(&op), 0, "BTB now holds the target");
    }

    #[test]
    fn ras_predicts_matched_calls_and_returns() {
        let mut u = unit();
        u.process(&cti(100, CtiClass::Call, true, 5000));
        // Return to 104 (the instruction after the call).
        assert_eq!(u.process(&cti(5096, CtiClass::Return, true, 104)), 0);
        assert_eq!(u.stats().ras_mispredicts, 0);
    }

    #[test]
    fn ras_underflow_and_wrong_target_mispredict() {
        let mut u = unit();
        assert_eq!(u.process(&cti(5096, CtiClass::Return, true, 104)), 16);
        u.process(&cti(100, CtiClass::Call, true, 5000));
        assert_eq!(u.process(&cti(5096, CtiClass::Return, true, 9999)), 16);
        assert_eq!(u.stats().ras_mispredicts, 2);
    }

    #[test]
    fn ras_overflow_wraps() {
        let mut u = unit();
        // 20 calls overflow the 16-entry RAS; the 16 most recent survive.
        for i in 0..20u64 {
            u.process(&cti(1000 + i * 8, CtiClass::Call, true, 50_000 + i * 64));
        }
        // Unwind the 16 most recent correctly.
        for i in (4..20u64).rev() {
            let ret = 1000 + i * 8 + 4;
            assert_eq!(
                u.process(&cti(60_000, CtiClass::Return, true, ret)),
                0,
                "return {i}"
            );
        }
        // The 4 oldest were overwritten.
        assert!(u.process(&cti(60_000, CtiClass::Return, true, 1004 + 3 * 8)) > 0);
    }

    #[test]
    fn indirect_jump_mispredict_is_full_flush() {
        let mut u = unit();
        assert_eq!(u.process(&cti(100, CtiClass::Jump, true, 7000)), 16);
        assert_eq!(u.process(&cti(100, CtiClass::Jump, true, 7000)), 0);
        assert_eq!(u.process(&cti(100, CtiClass::Jump, true, 8000)), 16);
        assert_eq!(u.stats().jump_mispredicts, 2);
    }

    #[test]
    fn traps_always_flush_and_push_ras() {
        let mut u = unit();
        assert_eq!(u.process(&cti(100, CtiClass::Trap, true, 90_000)), 16);
        assert_eq!(u.process(&cti(90_100, CtiClass::Return, true, 104)), 0);
    }
}
