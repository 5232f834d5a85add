//! The `ipsim` CMP timing simulator.
//!
//! A trace-driven, cycle-*accounting* model of the paper's evaluation
//! platform: one or four out-of-order cores (8-wide fetch, 3-wide issue,
//! 64-entry ROB, 16-stage pipeline) with private 32 KB L1 instruction/data
//! caches, a shared unified 2 MB L2, 400-cycle memory and a bandwidth-
//! limited off-chip bus (10 GB/s single core / 20 GB/s CMP at 3 GHz).
//!
//! Modelling approach (see `DESIGN.md` for the full rationale):
//!
//! * **Instruction misses stall the front end** for their full remaining
//!   latency — the paper's central premise. In-flight prefetches absorb
//!   part or all of that latency (timeliness is modelled with real
//!   completion timestamps in MSHRs).
//! * **Data misses partially overlap**: a sliding ROB-sized window bounds
//!   how far execution runs ahead of an outstanding load miss
//!   (memory-level-parallelism model) instead of tracking register
//!   dependencies.
//! * **Branch prediction is real**: a gshare predictor, a direct-mapped
//!   tagless BTB and a return-address stack produce pipeline-restart
//!   penalties.
//! * **Off-chip bandwidth is a shared queue**: every line transfer occupies
//!   the bus, so inaccurate prefetches delay demand misses — the effect
//!   behind the accuracy/coverage trade-off of Figure 9.
//! * **Cores interleave deterministically**: the simulator always advances
//!   the core with the smallest local clock, so shared-L2 and bus
//!   interference are modelled without a global cycle loop.
//!
//! # Examples
//!
//! ```
//! use ipsim_cpu::{SystemBuilder, WorkloadSet};
//! use ipsim_core::PrefetcherKind;
//! use ipsim_trace::Workload;
//!
//! // A quick single-core run of the Web workload with the paper's
//! // discontinuity prefetcher.
//! let mut system = SystemBuilder::single_core()
//!     .prefetcher(PrefetcherKind::discontinuity_default())
//!     .build()?;
//! let metrics = system.run_workload(&WorkloadSet::homogeneous(Workload::Web), 10_000, 50_000);
//! assert!(metrics.ipc() > 0.0);
//! # Ok::<(), ipsim_types::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch;
mod bus;
mod core_model;
mod limit;
mod memsys;
mod metrics;
mod mlp;
mod pf_table;
mod system;
mod tlb;

pub use branch::{BranchStats, BranchUnit};
pub use bus::Bus;
pub use core_model::Core;
pub use limit::LimitSpec;
pub use memsys::{MemStats, MemSystem};
pub use metrics::{CoreMetrics, SystemMetrics};
pub use mlp::MlpWindow;
pub use system::{OpSource, System, SystemBuilder, WorkloadRun, WorkloadSet};
pub use tlb::{Tlb, TlbStats};
