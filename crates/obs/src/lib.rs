//! # ipsim-obs
//!
//! Operational observability for the machinery that *runs* experiments —
//! the sweep and its worker pool — as opposed to `ipsim-telemetry`, which
//! observes the *simulated* machine. Std-only throughout:
//!
//! * **spans** — wall-clock intervals with parent links recorded into a
//!   bounded ring ([`SpanRecorder`]), exported as Chrome `trace_event`
//!   complete events (`ph:"X"`) through [`chrome`], the one trace writer
//!   and validator, which `ipsim-telemetry`'s lifecycle trace shares —
//!   so orchestration spans and sim-level telemetry merge into one
//!   timeline.
//! * **[`Histogram`]** — a log₂-bucketed distribution (see [`hist`]),
//!   the report data behind `report sweep`'s sim-MIPS percentiles.
//! * **shared formats** — [`json`] is the workspace's one JSON parser
//!   (nesting-bounded, as it reads untrusted artifacts) and string
//!   escaper, and [`stage`] the output staging and number formatting
//!   every trace and telemetry writer shares.
//!
//! Spans are gated on one process-global flag: after
//! [`set_enabled`]`(false)` every span call is a single relaxed load and
//! an early return, which the disabled-hook guard in
//! `crates/bench/tests/overhead.rs` bounds at under 3% of kernel wall
//! time. The flag defaults to *on*; nothing here ever writes to figure or
//! summary artifacts, so golden hashes are unaffected either way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod hist;
pub mod json;
pub mod span;
pub mod stage;

pub use hist::Histogram;
pub use span::{SpanGuard, SpanRecorder};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Process-global instrumentation switch, on by default. Checked with a
/// relaxed load by every span record call.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns span recording on or off process-wide. Off, every span call
/// degenerates to one relaxed load; already-recorded spans are kept and
/// still export.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether instrumentation is currently recording.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-global span recorder (bounded ring of
/// [`span::DEFAULT_RING_CAPACITY`] completed spans).
pub fn spans() -> &'static SpanRecorder {
    static SPANS: OnceLock<SpanRecorder> = OnceLock::new();
    SPANS.get_or_init(SpanRecorder::default)
}
