//! `ipsim-harness`: deterministic experiment orchestration.
//!
//! This crate runs the figures as one scheduled sweep rather than 13
//! sequential processes each re-running shared configurations:
//!
//! * [`spec::RunSpec`] names one simulation; its [`spec::RunSpec::cache_key`]
//!   is a toolchain-stable FNV-1a hash ([`hash`]) of every
//!   result-determining field.
//! * [`figure::Figure`] defines a figure as a render function over an
//!   executor; the same function both *enumerates* the runs it needs and
//!   *renders* from their results, so job lists cannot drift.
//! * [`sweep::run_sweep`] collects all figures' jobs, dedups globally by
//!   cache key, fans the unique runs across a hand-rolled [`pool`] of
//!   `std::thread` workers (zero runtime dependencies), and renders each
//!   figure sequentially — output is byte-identical for any worker count.
//!   The pool is a sweep's only parallelism: its threads share one
//!   decoded trace arena, which separate processes could not.
//! * [`cache::RunCache`] persists summaries with schema-versioned headers,
//!   atomic writes, and quarantine-and-rerun for corrupt entries.
//! * [`traces::TraceStore`] captures each workload's instruction stream to
//!   disk once (`ipsim-stream` format) and replays it for every other
//!   configuration sharing it, with CRC-validated files, quarantine-and-
//!   fall-back for corrupt traces, and captains-first scheduling so a
//!   sweep generates each stream exactly once. A stream's decoded replay
//!   arena lives only while the sweep's runs over it do.
//! * [`runlog`] and [`progress`] provide run-level observability: per-run
//!   wall time, simulated MIPS, stream provenance (`cache` / `live` /
//!   `capture` / `replay`) and trace-decode throughput, cache hit/miss
//!   counters, and a live `N/M runs, ETA` stderr line.
//! * [`manifest::FigureManifest`] records each figure's render fingerprint
//!   (FNV-1a over name, renderer version and sorted input keys) plus its
//!   output hash, so warm sweeps skip byte-identical re-renders — and the
//!   runs feeding them — entirely.
//! * [`telemetry::TelemetrySink`] turns each executed run's collected
//!   telemetry (`ipsim-telemetry`) into an on-disk artifact directory
//!   keyed by the run-cache hash: JSONL lifecycle events, a Chrome
//!   `trace_event` timeline, the interval time series, and the
//!   per-component summary `report sim` aggregates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod cache;
pub mod figure;
pub mod hash;
pub mod manifest;
pub mod obs;
pub mod pool;
pub mod progress;
pub mod runlog;
pub mod spec;
pub mod summary;
pub mod sweep;
pub mod telemetry;
pub mod traces;
pub mod wire;

pub use args::HarnessArgs;
pub use cache::RunCache;
pub use figure::{Executor, Figure, RenderFn};
pub use manifest::FigureManifest;
pub use progress::ProgressMode;
pub use spec::RunSpec;
pub use summary::Summary;
pub use sweep::{run_sweep, FigureReport, SweepOptions, SweepReport};
pub use telemetry::TelemetrySink;
pub use traces::{RunSource, SystemSlot, TraceStore};
pub use wire::{JobSpec, WireRun};

/// Run-length configuration shared by every experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLengths {
    /// Warm-up instructions per core (caches and predictors fill; not
    /// measured).
    pub warm: u64,
    /// Measured instructions per core.
    pub measure: u64,
}

impl RunLengths {
    /// The default experiment windows.
    pub fn full() -> RunLengths {
        RunLengths {
            warm: 10_000_000,
            measure: 20_000_000,
        }
    }

    /// Fast smoke-run windows.
    pub fn quick() -> RunLengths {
        RunLengths {
            warm: 2_000_000,
            measure: 4_000_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_shorter_than_full() {
        assert!(RunLengths::quick().measure < RunLengths::full().measure);
    }
}
