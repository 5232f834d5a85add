//! Workload profiles: named parameter sets for the four commercial
//! applications the paper studies.
//!
//! The presets are *calibrated*, not measured: their parameters were tuned
//! so that the default cache configuration reproduces the paper's published
//! miss rates (Figure 1), miss-category breakdowns (Figure 3) and L2
//! behaviour (Figure 2). See `DESIGN.md` for the calibration targets and
//! `EXPERIMENTS.md` for the achieved values.

use crate::builder::ProgramBuilder;
use crate::program::Program;

/// One of the paper's four commercial applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// OLTP database workload ("DB").
    Db,
    /// TPC-W transactional web benchmark.
    TpcW,
    /// SPECjAppServer2002 Java application server ("jApp").
    JApp,
    /// SPECweb99 web server ("Web").
    Web,
}

impl Workload {
    /// All four workloads, in the paper's presentation order.
    pub const ALL: [Workload; 4] = [Workload::Db, Workload::TpcW, Workload::JApp, Workload::Web];

    /// Short display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Db => "DB",
            Workload::TpcW => "TPC-W",
            Workload::JApp => "jApp",
            Workload::Web => "Web",
        }
    }

    /// The calibrated parameter set for this workload.
    pub fn profile(self) -> WorkloadProfile {
        match self {
            Workload::Db => WorkloadProfile::db(),
            Workload::TpcW => WorkloadProfile::tpcw(),
            Workload::JApp => WorkloadProfile::japp(),
            Workload::Web => WorkloadProfile::web(),
        }
    }

    /// Builds this workload's static program with the given seed.
    ///
    /// The program seed determines code structure; walkers take separate
    /// seeds for dynamic behaviour, so cores running "the same binary"
    /// share one program built from one seed.
    pub fn build_program(self, seed: u64) -> Program {
        ProgramBuilder::new(self.profile(), seed).build()
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parameters controlling synthetic program structure and dynamic
/// behaviour.
///
/// Field groups:
/// * *code shape* — function count and size distributions set the
///   instruction footprint,
/// * *terminator mix* — fractions of block terminators of each kind set the
///   CTI frequency and thus the miss-category breakdown,
/// * *branch behaviour* — direction/taken probabilities,
/// * *call structure* — popularity skew and layout quality govern
///   discontinuity distance and repetition,
/// * *data side* — footprint and locality tiers govern the L2 data miss
///   rate and its sensitivity to prefetch pollution.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Display name.
    pub name: &'static str,
    /// Number of ordinary functions.
    pub n_functions: u32,
    /// Number of trap-handler functions (small, at top of address space).
    pub n_trap_handlers: u32,
    /// Mean *extra* blocks per function beyond the first (geometric).
    pub blocks_per_fn_mean: f64,
    /// Mean *extra* instructions per block beyond the first (geometric).
    pub instrs_per_block_mean: f64,
    /// Hot-tier function count: the L1I-scale working set. Dispatch and
    /// call targets land here with probability `code_hot_prob`.
    pub code_hot_fns: u32,
    /// Warm-tier function count (disjoint from hot): the L2-scale code
    /// working set.
    pub code_warm_fns: u32,
    /// Probability a *call* target is a hot-tier function. Dynamic calls
    /// overwhelmingly hit a small set of hot utility/leaf functions, which
    /// keeps the footprint between a call and its return small (returns
    /// rarely miss, as in the paper's Figure 3).
    pub call_hot_prob: f64,
    /// Probability a call target is warm-tier; the remainder is cold.
    pub call_warm_prob: f64,
    /// Probability a *transaction dispatch* target is hot-tier. Dispatch
    /// spreads much wider than calls — it is what drags warm and cold code
    /// into the caches and produces the L2-scale instruction footprint.
    pub dispatch_hot_prob: f64,
    /// Probability a dispatch target is warm-tier; the remainder is cold.
    pub dispatch_warm_prob: f64,
    /// Fraction of non-final block terminators that are conditional
    /// branches.
    pub cond_branch_frac: f64,
    /// Fraction that are unconditional branches.
    pub uncond_branch_frac: f64,
    /// Fraction that are direct calls.
    pub call_frac: f64,
    /// Fraction that are indirect calls (jumps).
    pub indirect_call_frac: f64,
    /// Fraction that are early returns (in addition to the mandatory final
    /// return).
    pub early_return_frac: f64,
    /// Probability a conditional branch is forward (else backward/loop).
    pub cond_fwd_frac: f64,
    /// Fraction of forward conditional branches that are *rarely taken*
    /// guards (error paths / slow paths): low taken probability, far-away
    /// cold targets. These produce the taken-forward branch misses that
    /// dominate the paper's branch-miss breakdown.
    pub rare_branch_frac: f64,
    /// Mean extra blocks skipped by a forward branch (geometric, ≥ 1).
    pub fwd_skip_mean: f64,
    /// Mean extra blocks spanned by a backward branch (geometric, ≥ 1).
    pub bwd_span_mean: f64,
    /// Taken probability for forward conditional branches.
    pub fwd_taken_prob: f64,
    /// Taken probability for backward conditional branches (loop
    /// continuation).
    pub bwd_taken_prob: f64,
    /// Per-instruction trap probability.
    pub trap_prob: f64,
    /// Fraction of body instructions that are loads.
    pub load_frac: f64,
    /// Fraction of body instructions that are stores.
    pub store_frac: f64,
    /// Maximum call-stack depth.
    pub max_call_depth: u32,
    /// Mean transaction length in instructions. After the budget is spent,
    /// calls stop opening new frames and the stack drains back to the
    /// dispatch loop, which samples the next transaction. Keeps the
    /// call-driven walk from pinning execution inside a small set of hot
    /// functions forever.
    pub txn_len_mean: f64,
    /// Number of popularity-adjacent functions forming one transaction's
    /// *service*: the dispatch loop keeps dispatching phases within the
    /// current service until the transaction budget is spent. The first
    /// pass through a (warm/cold) service faults its code in — mostly
    /// sequential misses, as in the paper — and later phases reuse it.
    pub service_span: u32,
    /// Probability each function is placed in popularity order (1.0 =
    /// perfect link-time layout; lower values scatter hot functions).
    pub layout_quality: f64,
    /// Total data footprint in 64 B lines (per core).
    pub data_footprint_lines: u64,
    /// Hot-tier size in lines (L1-resident working set).
    pub data_hot_lines: u64,
    /// Warm-tier size in lines (L2-resident working set).
    pub data_warm_lines: u64,
    /// Probability a data reference hits the hot tier.
    pub data_hot_prob: f64,
    /// Probability a data reference hits the warm tier (hot excluded).
    pub data_warm_prob: f64,
}

impl WorkloadProfile {
    /// OLTP database: very large code and data footprints, deep call
    /// chains, flat-ish popularity.
    pub fn db() -> WorkloadProfile {
        WorkloadProfile {
            name: "DB",
            n_functions: 20_000,
            n_trap_handlers: 12,
            blocks_per_fn_mean: 12.0,
            instrs_per_block_mean: 4.5,
            code_hot_fns: 380,
            code_warm_fns: 2_400,
            call_hot_prob: 0.93,
            call_warm_prob: 0.065,
            dispatch_hot_prob: 0.60,
            dispatch_warm_prob: 0.33,
            cond_branch_frac: 0.40,
            uncond_branch_frac: 0.10,
            call_frac: 0.11,
            indirect_call_frac: 0.010,
            early_return_frac: 0.03,
            cond_fwd_frac: 0.82,
            rare_branch_frac: 0.50,
            fwd_skip_mean: 2.0,
            bwd_span_mean: 2.2,
            fwd_taken_prob: 0.60,
            bwd_taken_prob: 0.55,
            trap_prob: 4.0e-6,
            load_frac: 0.24,
            store_frac: 0.09,
            max_call_depth: 12,
            txn_len_mean: 4_000.0,
            service_span: 16,
            layout_quality: 0.85,
            data_footprint_lines: 1 << 20, // 64 MB
            data_hot_lines: 384,           // 24 KB: L1-resident
            data_warm_lines: 7_000,        // ~320 KB per core: L2-resident
            data_hot_prob: 0.925,
            data_warm_prob: 0.068,
        }
    }

    /// TPC-W: transactional web server; large middleware-style code.
    pub fn tpcw() -> WorkloadProfile {
        WorkloadProfile {
            name: "TPC-W",
            n_functions: 14_000,
            n_trap_handlers: 12,
            blocks_per_fn_mean: 10.0,
            instrs_per_block_mean: 4.5,
            code_hot_fns: 300,
            code_warm_fns: 2_000,
            call_hot_prob: 0.94,
            call_warm_prob: 0.06,
            dispatch_hot_prob: 0.64,
            dispatch_warm_prob: 0.29,
            cond_branch_frac: 0.40,
            uncond_branch_frac: 0.10,
            call_frac: 0.11,
            indirect_call_frac: 0.010,
            early_return_frac: 0.03,
            cond_fwd_frac: 0.83,
            rare_branch_frac: 0.50,
            fwd_skip_mean: 2.0,
            bwd_span_mean: 2.0,
            fwd_taken_prob: 0.58,
            bwd_taken_prob: 0.55,
            trap_prob: 3.0e-6,
            load_frac: 0.23,
            store_frac: 0.09,
            max_call_depth: 12,
            txn_len_mean: 3_500.0,
            service_span: 14,
            layout_quality: 0.85,
            data_footprint_lines: 1 << 19, // 32 MB
            data_hot_lines: 384,
            data_warm_lines: 6_500,
            data_hot_prob: 0.89,
            data_warm_prob: 0.10,
        }
    }

    /// SPECjAppServer2002: Java application server — the largest
    /// instruction working set (highest L1I miss rate in the paper), small
    /// functions, frequent virtual dispatch.
    pub fn japp() -> WorkloadProfile {
        WorkloadProfile {
            name: "jApp",
            n_functions: 24_000,
            n_trap_handlers: 12,
            blocks_per_fn_mean: 8.0,
            instrs_per_block_mean: 4.0,
            code_hot_fns: 900,
            code_warm_fns: 2_800,
            call_hot_prob: 0.92,
            call_warm_prob: 0.08,
            dispatch_hot_prob: 0.66,
            dispatch_warm_prob: 0.28,
            cond_branch_frac: 0.38,
            uncond_branch_frac: 0.10,
            call_frac: 0.12,
            indirect_call_frac: 0.012,
            early_return_frac: 0.03,
            cond_fwd_frac: 0.84,
            rare_branch_frac: 0.50,
            fwd_skip_mean: 1.8,
            bwd_span_mean: 1.8,
            fwd_taken_prob: 0.57,
            bwd_taken_prob: 0.52,
            trap_prob: 3.0e-6,
            load_frac: 0.24,
            store_frac: 0.10,
            max_call_depth: 12,
            txn_len_mean: 3_000.0,
            service_span: 18,
            layout_quality: 0.80,
            data_footprint_lines: 1 << 19, // 32 MB
            data_hot_lines: 384,
            data_warm_lines: 7_000,
            data_hot_prob: 0.92,
            data_warm_prob: 0.072,
        }
    }

    /// SPECweb99: static/dynamic web serving — the smallest instruction
    /// working set of the four (lowest L2 instruction miss rate), more
    /// skewed popularity.
    pub fn web() -> WorkloadProfile {
        WorkloadProfile {
            name: "Web",
            n_functions: 7_000,
            n_trap_handlers: 12,
            blocks_per_fn_mean: 10.0,
            instrs_per_block_mean: 5.0,
            code_hot_fns: 260,
            code_warm_fns: 700,
            call_hot_prob: 0.96,
            call_warm_prob: 0.04,
            dispatch_hot_prob: 0.74,
            dispatch_warm_prob: 0.21,
            cond_branch_frac: 0.40,
            uncond_branch_frac: 0.09,
            call_frac: 0.10,
            indirect_call_frac: 0.008,
            early_return_frac: 0.03,
            cond_fwd_frac: 0.83,
            rare_branch_frac: 0.50,
            fwd_skip_mean: 2.0,
            bwd_span_mean: 2.2,
            fwd_taken_prob: 0.58,
            bwd_taken_prob: 0.58,
            trap_prob: 5.0e-6,
            load_frac: 0.22,
            store_frac: 0.08,
            max_call_depth: 10,
            txn_len_mean: 2_500.0,
            service_span: 10,
            layout_quality: 0.88,
            data_footprint_lines: 1 << 18, // 16 MB
            data_hot_lines: 384,
            data_warm_lines: 5_000,
            data_hot_prob: 0.94,
            data_warm_prob: 0.054,
        }
    }

    /// Sum of the terminator-kind fractions (must be ≤ 1; the remainder
    /// falls through).
    pub fn terminator_frac_total(&self) -> f64 {
        self.cond_branch_frac
            + self.uncond_branch_frac
            + self.call_frac
            + self.indirect_call_frac
            + self.early_return_frac
    }

    /// Checks that probabilities are sane. Used by the builder.
    ///
    /// # Panics
    ///
    /// Panics when a fraction lies outside `[0, 1]`, the terminator mix
    /// exceeds 1, or the code could outgrow the program table's 32-bit
    /// block addresses.
    pub fn assert_valid(&self) {
        let probs = [
            self.cond_branch_frac,
            self.uncond_branch_frac,
            self.call_frac,
            self.indirect_call_frac,
            self.early_return_frac,
            self.cond_fwd_frac,
            self.rare_branch_frac,
            self.fwd_taken_prob,
            self.bwd_taken_prob,
            self.trap_prob,
            self.load_frac,
            self.store_frac,
            self.layout_quality,
            self.data_hot_prob,
            self.data_warm_prob,
        ];
        for p in probs {
            assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        }
        assert!(
            self.terminator_frac_total() <= 1.0,
            "terminator fractions exceed 1"
        );
        assert!(
            self.load_frac + self.store_frac <= 1.0,
            "memory-op fractions exceed 1"
        );
        assert!(
            self.data_hot_prob + self.data_warm_prob <= 1.0,
            "data tier probabilities exceed 1"
        );
        assert!(self.n_functions > 0, "need at least one function");
        assert!(self.txn_len_mean >= 1.0, "transaction length must be >= 1");
        assert!(
            self.service_span > 0 && self.service_span <= self.n_functions,
            "service span must be positive and fit the function count"
        );
        assert!(
            self.code_hot_fns > 0 && self.code_hot_fns + self.code_warm_fns <= self.n_functions,
            "code tiers must fit within the function count"
        );
        assert!(
            self.call_hot_prob + self.call_warm_prob <= 1.0
                && self.dispatch_hot_prob + self.dispatch_warm_prob <= 1.0,
            "code tier probabilities exceed 1"
        );
        assert!(
            self.data_hot_lines <= self.data_warm_lines
                && self.data_warm_lines <= self.data_footprint_lines,
            "data tiers must nest"
        );
        assert!(
            crate::builder::max_code_end(self) <= u32::MAX as u64,
            "{} functions could lay out more code than the program table's 32-bit addresses reach",
            self.n_functions
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_are_valid() {
        for w in Workload::ALL {
            w.profile().assert_valid();
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Workload::Db.name(), "DB");
        assert_eq!(Workload::TpcW.name(), "TPC-W");
        assert_eq!(Workload::JApp.name(), "jApp");
        assert_eq!(Workload::Web.name(), "Web");
        assert_eq!(format!("{}", Workload::JApp), "jApp");
    }

    #[test]
    fn japp_has_largest_code_web_smallest() {
        let japp = Workload::JApp.profile();
        let web = Workload::Web.profile();
        assert!(japp.n_functions > web.n_functions);
        assert!(
            japp.code_hot_fns > web.code_hot_fns,
            "jApp has the larger hot code set"
        );
    }
}
