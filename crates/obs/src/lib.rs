//! # ipsim-obs
//!
//! Operational observability for the machinery that *runs* experiments —
//! the serving daemon and the worker pools — as opposed to
//! `ipsim-telemetry`, which observes the *simulated* machine. Two data
//! models, both std-only and lock-cheap on the hot path:
//!
//! * **metrics** — a process-global [`Registry`] of monotonic
//!   [`Counter`]s, [`Gauge`]s and log₂-bucketed [`Histogram`]s (see
//!   [`hist`]). Handles are `Arc`-backed atomics: registration takes a
//!   mutex once, every subsequent increment/observe is a relaxed atomic
//!   op. The whole registry renders to Prometheus text exposition
//!   (see [`prom`]) for `GET /v1/metrics`.
//! * **spans** — wall-clock intervals with parent links recorded into a
//!   bounded ring ([`SpanRecorder`]), exported as Chrome `trace_event`
//!   complete events (`ph:"X"`) through [`chrome`], the one trace writer
//!   and validator, which `ipsim-telemetry`'s lifecycle trace shares —
//!   so orchestration spans and sim-level telemetry merge into one
//!   timeline. [`json`] is the workspace's one JSON parser (nesting-
//!   bounded, as it reads untrusted daemon input) and string escaper,
//!   and [`stage`] the output staging and number formatting every
//!   trace and telemetry writer shares.
//!
//! All instrumentation is gated on one process-global flag: after
//! [`set_enabled`]`(false)` every record call is a single relaxed load
//! and an early return, which the disabled-hook guard in
//! `crates/bench/tests/overhead.rs` bounds at under 3% of kernel wall
//! time. The flag defaults to *on* so binaries get metrics without
//! ceremony; nothing here ever writes to figure or summary artifacts, so
//! golden hashes are unaffected either way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod hist;
pub mod json;
pub mod prom;
pub mod registry;
pub mod span;
pub mod stage;

pub use hist::{HistSnapshot, Histogram};
pub use prom::{histogram_percentile, parse_text, Exposition, Family, Sample};
pub use registry::{Counter, Gauge, Registry};
pub use span::{SpanGuard, SpanRecorder};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Process-global instrumentation switch, on by default. Checked with a
/// relaxed load by every counter/gauge/histogram/span record call.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns all instrumentation on or off process-wide. Off, every record
/// call degenerates to one relaxed load; already-recorded state is kept
/// and still renders/exports.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether instrumentation is currently recording.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-global metrics registry. First call creates it; handles
/// registered here back `GET /v1/metrics` and the `report sweep`
/// distribution sections.
pub fn metrics() -> &'static Registry {
    static METRICS: OnceLock<Registry> = OnceLock::new();
    METRICS.get_or_init(Registry::new)
}

/// The process-global span recorder (bounded ring of
/// [`span::DEFAULT_RING_CAPACITY`] completed spans).
pub fn spans() -> &'static SpanRecorder {
    static SPANS: OnceLock<SpanRecorder> = OnceLock::new();
    SPANS.get_or_init(SpanRecorder::default)
}
