//! # ipsim-telemetry
//!
//! Observability for the simulator: interval time-series sampling,
//! prefetch lifecycle event tracing, and the sinks that turn a run into
//! on-disk artifacts.
//!
//! Every figure the simulator reproduces is an end-of-window aggregate;
//! this crate records *when* things happened inside the window. Two data
//! streams are collected, both strictly optional and zero-cost when off:
//!
//! * **interval samples** — `System::run` snapshots each core's
//!   cumulative counters every N committed instructions into
//!   [`SampleRow`]s (see [`sampler`]);
//! * **lifecycle events** — each core's prefetch pipeline emits a typed,
//!   cycle-stamped [`PfEvent`] at every transition of every prefetched
//!   line (see [`event`] and the validator in [`lifecycle`]).
//!
//! The per-core collector is [`CoreTracer`]: a bounded event buffer plus
//! *exact* per-component counters that keep counting after the buffer
//! fills, so accuracy/coverage/timeliness ratios never suffer from
//! truncation. A finished run is packaged as a [`TelemetryRun`] and
//! serialised by the [`sink`] writers (JSONL, Chrome `trace_event`, TSV),
//! each of which has a matching parser/validator used by tests and the CI
//! smoke job. The JSON parser and the Chrome `trace_event` writer and
//! validator are not this crate's: they are the workspace-wide ones in
//! `ipsim_obs::{json, chrome}`, which the sweep's span export shares.
//!
//! Nothing in this crate touches simulation semantics: the golden-hash
//! figure test and the `telemetry_determinism` test prove that metrics
//! are bit-identical with tracing on, off, or absent.

pub mod event;
pub mod lifecycle;
pub mod sampler;
pub mod sink;

use ipsim_core::PrefetchSource;
use ipsim_types::{Cycle, LineAddr};

pub use event::{ComponentCounters, PfComponent, PfEvent, PfEventKind};
pub use lifecycle::{validate_lifecycle, LifecycleSummary, LifecycleViolation};
pub use sampler::{SampleRow, Sampler};

/// Configuration for a telemetry collection run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Sample each core's counters every this many committed
    /// instructions (clamped to ≥ 1).
    pub interval: u64,
    /// Lifecycle event buffer capacity per core. Once full, further
    /// events are counted (exactly, per component) but not stored, and
    /// [`CoreTrace::dropped`] records how many. `0` disables the event
    /// buffer entirely while keeping the counters.
    pub max_events_per_core: usize,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            interval: 100_000,
            max_events_per_core: 262_144,
        }
    }
}

/// Per-core lifecycle event collector, owned by a `Core` while telemetry
/// is enabled.
///
/// `emit` is the only hot-path entry point: one counter increment plus a
/// bounds-checked push. The buffer is pre-allocated to its bound so
/// emission never reallocates.
#[derive(Debug)]
pub struct CoreTracer {
    events: Vec<PfEvent>,
    max_events: usize,
    dropped: u64,
    components: [ComponentCounters; PfComponent::COUNT],
}

impl CoreTracer {
    /// A tracer configured per `config`.
    pub fn new(config: &TelemetryConfig) -> CoreTracer {
        CoreTracer {
            // Cap the eager allocation; the buffer can still grow to the
            // configured bound if a run actually produces that many events.
            events: Vec::with_capacity(config.max_events_per_core.min(16_384)),
            max_events: config.max_events_per_core,
            dropped: 0,
            components: [ComponentCounters::default(); PfComponent::COUNT],
        }
    }

    /// Records one lifecycle transition.
    #[inline]
    pub fn emit(
        &mut self,
        cycle: Cycle,
        line: LineAddr,
        source: PrefetchSource,
        kind: PfEventKind,
    ) {
        let component = PfComponent::from_source(source);
        self.components[component.index()].bump(kind);
        if self.events.len() < self.max_events {
            self.events.push(PfEvent {
                cycle,
                line,
                component,
                kind,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Events buffered so far.
    pub fn events(&self) -> &[PfEvent] {
        &self.events
    }

    /// Exact counters for one component.
    pub fn counters(&self, component: PfComponent) -> &ComponentCounters {
        &self.components[component.index()]
    }

    /// Discards everything collected so far (end of warm-up).
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
        for c in &mut self.components {
            c.clear();
        }
    }

    /// Drains the collector into a [`CoreTrace`], leaving it empty but
    /// armed.
    pub fn take(&mut self) -> CoreTrace {
        let trace = CoreTrace {
            events: std::mem::take(&mut self.events),
            dropped: self.dropped,
            components: self.components,
        };
        self.dropped = 0;
        for c in &mut self.components {
            c.clear();
        }
        trace
    }
}

/// One core's collected lifecycle trace.
#[derive(Debug, Clone, Default)]
pub struct CoreTrace {
    /// Buffered events in emission order (a prefix of the full stream if
    /// `dropped > 0`).
    pub events: Vec<PfEvent>,
    /// Events that overflowed the buffer (still counted in
    /// `components`).
    pub dropped: u64,
    /// Exact per-component transition counts, indexed by
    /// [`PfComponent::index`].
    pub components: [ComponentCounters; PfComponent::COUNT],
}

impl CoreTrace {
    /// Exact counters for one component.
    pub fn counters(&self, component: PfComponent) -> &ComponentCounters {
        &self.components[component.index()]
    }
}

/// One prefetcher-zoo scheme's windowed counters on one core, as
/// collected from the zoo's shadow attribution at the end of a run.
///
/// `scheme` is the canonical spec string (e.g. `disc:ahead=2`), stable
/// across runs and usable as a join key in the bake-off report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ZooSchemeRow {
    /// Core the scheme ran on.
    pub core: u32,
    /// Zoo slot of the scheme on its core.
    pub slot: u32,
    /// Canonical scheme spec string.
    pub scheme: String,
    /// Requests the scheme emitted (pre-filter, pre-queue).
    pub generated: u64,
    /// Requests accepted by the memory system.
    pub issued: u64,
    /// Prefetched lines installed in the L1I.
    pub filled: u64,
    /// Prefetched lines demand-referenced for the first time.
    pub useful: u64,
    /// Subset of `useful` still in flight at first demand reference.
    pub late: u64,
    /// Attributed lines evicted after demand use.
    pub evicted_used: u64,
    /// Attributed lines evicted without ever being used.
    pub evicted_unused: u64,
}

/// Everything telemetry collected over one measurement window.
#[derive(Debug, Clone, Default)]
pub struct TelemetryRun {
    /// Sampling cadence (committed instructions per core).
    pub interval: u64,
    /// Per-core lifecycle traces, indexed by core id.
    pub cores: Vec<CoreTrace>,
    /// Interval samples in record order (interleaved across cores).
    pub samples: Vec<SampleRow>,
    /// Per-scheme shadow-attribution rows, one per (core, zoo slot);
    /// empty unless the run used a prefetcher zoo.
    pub zoo: Vec<ZooSchemeRow>,
}

impl TelemetryRun {
    /// Per-component counters summed across cores.
    pub fn aggregate_components(&self) -> [ComponentCounters; PfComponent::COUNT] {
        let mut totals = [ComponentCounters::default(); PfComponent::COUNT];
        for core in &self.cores {
            for (total, part) in totals.iter_mut().zip(core.components.iter()) {
                total.merge(part);
            }
        }
        totals
    }

    /// Total buffered events across cores.
    pub fn total_events(&self) -> usize {
        self.cores.iter().map(|c| c.events.len()).sum()
    }

    /// Total events dropped to buffer bounds across cores.
    pub fn total_dropped(&self) -> u64 {
        self.cores.iter().map(|c| c.dropped).sum()
    }

    /// The most recent per-interval L1I miss rate (misses per 1 000
    /// instructions) across the last two samples of the most advanced
    /// core — the live figure the harness progress line shows. `None`
    /// until any core has two samples.
    pub fn last_interval_l1i_mpki(&self) -> Option<f64> {
        let last = self
            .samples
            .iter()
            .rev()
            .find(|r| self.samples.iter().filter(|p| p.core == r.core).count() >= 2)?;
        let prev = self
            .samples
            .iter()
            .rev()
            .find(|p| p.core == last.core && p.instrs < last.instrs)?;
        let instrs = last.instrs.saturating_sub(prev.instrs);
        if instrs == 0 {
            return None;
        }
        let misses = last.l1i_misses.saturating_sub(prev.l1i_misses);
        Some(misses as f64 * 1_000.0 / instrs as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq() -> PrefetchSource {
        PrefetchSource::Sequential
    }

    #[test]
    fn tracer_buffers_until_bound_then_counts() {
        let mut t = CoreTracer::new(&TelemetryConfig {
            interval: 1,
            max_events_per_core: 2,
        });
        for i in 0..5u64 {
            t.emit(i, LineAddr(i), seq(), PfEventKind::Issued);
        }
        assert_eq!(t.events().len(), 2);
        let trace = t.take();
        assert_eq!(trace.dropped, 3);
        assert_eq!(
            trace
                .counters(PfComponent::Sequential)
                .get(PfEventKind::Issued),
            5,
            "counters are exact despite the bounded buffer"
        );
        assert_eq!(t.events().len(), 0, "take drains");
    }

    #[test]
    fn clear_discards_warmup_state() {
        let mut t = CoreTracer::new(&TelemetryConfig::default());
        t.emit(1, LineAddr(1), seq(), PfEventKind::Issued);
        t.clear();
        assert!(t.events().is_empty());
        assert_eq!(t.counters(PfComponent::Sequential).total(), 0);
    }

    #[test]
    fn run_aggregates_across_cores() {
        let mut a = CoreTracer::new(&TelemetryConfig::default());
        a.emit(1, LineAddr(1), seq(), PfEventKind::Issued);
        let mut b = CoreTracer::new(&TelemetryConfig::default());
        b.emit(2, LineAddr(2), PrefetchSource::Target, PfEventKind::Issued);
        b.emit(3, LineAddr(2), PrefetchSource::Target, PfEventKind::Fill);
        let run = TelemetryRun {
            interval: 100,
            cores: vec![a.take(), b.take()],
            ..TelemetryRun::default()
        };
        let totals = run.aggregate_components();
        assert_eq!(
            totals[PfComponent::Sequential.index()].get(PfEventKind::Issued),
            1
        );
        assert_eq!(
            totals[PfComponent::Target.index()].get(PfEventKind::Issued),
            1
        );
        assert_eq!(
            totals[PfComponent::Target.index()].get(PfEventKind::Fill),
            1
        );
        assert_eq!(run.total_events(), 3);
    }

    #[test]
    fn last_interval_mpki_diffs_adjacent_samples_of_one_core() {
        let mut run = TelemetryRun::default();
        assert_eq!(run.last_interval_l1i_mpki(), None);
        run.samples.push(SampleRow {
            core: 0,
            instrs: 1_000,
            l1i_misses: 50,
            ..SampleRow::default()
        });
        assert_eq!(
            run.last_interval_l1i_mpki(),
            None,
            "one sample is not a rate"
        );
        run.samples.push(SampleRow {
            core: 1,
            instrs: 1_000,
            l1i_misses: 10,
            ..SampleRow::default()
        });
        run.samples.push(SampleRow {
            core: 0,
            instrs: 2_000,
            l1i_misses: 80,
            ..SampleRow::default()
        });
        // Core 0: (80-50) misses over (2000-1000) instrs = 30/KI.
        assert_eq!(run.last_interval_l1i_mpki(), Some(30.0));
    }
}
