//! Synthetic commercial-workload generation for the `ipsim` simulator.
//!
//! The paper traces four proprietary commercial applications (an OLTP
//! database, TPC-W, SPECjAppServer2002, SPECweb99) on real SPARC hardware.
//! Those traces are not available, so this crate synthesises workloads with
//! the *statistical structure* the paper identifies as driving its results:
//!
//! * multi-megabyte instruction footprints that overwhelm a 32 KB L1I and
//!   pressure a 2 MB L2,
//! * small functions and small basic blocks, so control transfers are
//!   frequent,
//! * a mix of conditional branches (mostly taken-forward), unconditional
//!   branches, direct calls, indirect jumps and returns matching the miss
//!   breakdowns of Figure 3,
//! * discontinuities that are mostly *single-target* at line granularity
//!   (direct call sites dominate), which is the property the discontinuity
//!   prefetcher exploits,
//! * data reference streams with a hot/warm/cold locality hierarchy, so L2
//!   pollution by instruction prefetches measurably hurts data misses.
//!
//! The pipeline is:
//!
//! 1. [`WorkloadProfile`] — a named parameter set ([`Workload::Db`],
//!    [`Workload::TpcW`], [`Workload::JApp`], [`Workload::Web`]),
//! 2. [`ProgramBuilder`] — deterministically synthesises a static
//!    [`Program`] in one pass: one flat table of 8-byte basic-block
//!    records (layout, branch/call structure), functions as runs of it
//!    with one entry address each, plus a flat table of indirect-call
//!    candidates,
//! 3. [`TraceWalker`] — walks the program with a call stack and a seeded
//!    RNG, yielding a self-consistent [`TraceOp`](ipsim_types::TraceOp)
//!    stream.
//!
//! # Examples
//!
//! ```
//! use ipsim_trace::{Workload, TraceWalker};
//!
//! let program = Workload::Web.build_program(42);
//! let mut walker = TraceWalker::new(&program, Workload::Web.profile(), 0, 7);
//! let ops: Vec<_> = (0..1000).map(|_| walker.next_op()).collect();
//! assert_eq!(ops.len(), 1000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod data;
mod profile;
mod program;
mod walker;
mod zipf;

pub use builder::ProgramBuilder;
pub use data::DataGen;
pub use profile::{Workload, WorkloadProfile};
pub use program::{FuncId, Program};
pub use walker::TraceWalker;
pub use zipf::ZipfSampler;
