//! Instruction prefetchers — the primary contribution of the reproduced
//! paper (Spracklen, Chou & Abraham, HPCA 2005).
//!
//! The crate provides:
//!
//! * [`PrefetchEngine`] — the one scheme interface, shaped by the line
//!   lifecycle: the core's front end feeds the engine one [`FetchEvent`]
//!   per demand-fetched cache line, the engine emits [`PrefetchRequest`]s,
//!   and usefulness and eviction feedback flow back to it. The paper's
//!   schemes and the zoo's rivals (`ipsim-prefetch`) all implement it;
//! * the paper's **discontinuity prefetcher** ([`DiscontinuityPrefetcher`])
//!   — a direct-mapped table of non-sequential fetch-stream transitions with
//!   2-bit saturating *eviction counters*, probed ahead of the demand stream
//!   and paired with a next-N-line sequential prefetcher;
//! * the sequential baselines the paper evaluates —
//!   [`NextLinePrefetcher`] (on-miss / always / tagged),
//!   [`NextNLinePrefetcher`] (tagged) and [`LookaheadPrefetcher`];
//! * a classic history-based [`TargetPrefetcher`] (Smith & Hsu) as an
//!   additional related-work baseline;
//! * the paper's prefetch-issue infrastructure — a LIFO [`PrefetchQueue`]
//!   with dedup / demand-invalidation / hoisting, and the
//!   [`RecentFetchFilter`] over the last 32 demand fetches.
//!
//! The prefetchers are *pure policy*: they own no caches and model no
//! timing. The CPU crate (`ipsim-cpu`) owns the caches, the issue path and
//! the selective L2-install policy, and drives these engines, each core
//! through one `ipsim_prefetch::Zoo` (a directly configured scheme is a
//! zoo of one).
//!
//! # Examples
//!
//! Drive a discontinuity prefetcher by hand:
//!
//! ```
//! use ipsim_core::{DiscontinuityConfig, DiscontinuityPrefetcher, FetchEvent, PrefetchEngine};
//! use ipsim_types::LineAddr;
//!
//! let mut pf = DiscontinuityPrefetcher::new(DiscontinuityConfig::default());
//! let mut out = Vec::new();
//!
//! // A missing fetch at line 100 triggers sequential prefetches 101..=104.
//! pf.on_fetch(&FetchEvent::miss(LineAddr(100), None), &mut out);
//! let lines: Vec<u64> = out.iter().map(|r| r.line.0).collect();
//! assert_eq!(lines, vec![101, 102, 103, 104]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod discontinuity;
mod engine;
mod filter;
mod kind;
mod markov;
mod queue;
mod sequential;
mod stats;
mod table;
mod target;
mod wrongpath;

pub use discontinuity::{DiscontinuityConfig, DiscontinuityPrefetcher};
pub use engine::{FetchEvent, NoPrefetcher, PrefetchEngine, PrefetchRequest, PrefetchSource};
pub use filter::RecentFetchFilter;
pub use kind::PrefetcherKind;
pub use markov::{MarkovPrefetcher, MARKOV_WAYS};
pub use queue::{PrefetchQueue, QueueStats, SlotState};
pub use sequential::{LookaheadPrefetcher, NextLineMode, NextLinePrefetcher, NextNLinePrefetcher};
pub use stats::PrefetchStats;
pub use table::DiscontinuityTable;
pub use target::TargetPrefetcher;
pub use wrongpath::WrongPathPrefetcher;
