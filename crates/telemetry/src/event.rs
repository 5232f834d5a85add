//! The prefetch lifecycle event model.
//!
//! Every instruction prefetch moves through a small state machine —
//! generated, filtered or queued, issued (or dropped at the tag probe),
//! filled, first-used (possibly late), and finally evicted used or unused —
//! and each transition is emitted as one [`PfEvent`] stamped with the
//! core-local cycle at which it happened. Events carry the prefetcher
//! *component* that generated the line ([`PfComponent`]), which is what
//! lets `report sim` break accuracy, coverage and timeliness down into
//! sequential vs. discontinuity contributions the way the paper's
//! Section 5 discussion does.

use ipsim_core::PrefetchSource;
use ipsim_types::{Cycle, LineAddr};

/// The prefetcher component a line is attributed to.
///
/// This is [`PrefetchSource`] with the discontinuity table index erased:
/// telemetry classifies per *component*, not per table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PfComponent {
    /// Next-N-line sequential prefetcher.
    Sequential,
    /// Discontinuity-table prefetcher.
    Discontinuity,
    /// Branch-target / wrong-path prefetcher.
    Target,
}

impl PfComponent {
    /// Number of components (array dimension for per-component counters).
    pub const COUNT: usize = 3;

    /// All components, in index order.
    pub const ALL: [PfComponent; PfComponent::COUNT] = [
        PfComponent::Sequential,
        PfComponent::Discontinuity,
        PfComponent::Target,
    ];

    /// Classifies a [`PrefetchSource`].
    #[inline]
    pub fn from_source(source: PrefetchSource) -> PfComponent {
        match source {
            PrefetchSource::Sequential => PfComponent::Sequential,
            PrefetchSource::Discontinuity { .. } => PfComponent::Discontinuity,
            PrefetchSource::Target => PfComponent::Target,
        }
    }

    /// Dense index (for `[T; PfComponent::COUNT]` tables).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            PfComponent::Sequential => 0,
            PfComponent::Discontinuity => 1,
            PfComponent::Target => 2,
        }
    }

    /// Stable short name used in every sink format.
    pub fn name(self) -> &'static str {
        match self {
            PfComponent::Sequential => "seq",
            PfComponent::Discontinuity => "disc",
            PfComponent::Target => "target",
        }
    }

    /// Parses a [`PfComponent::name`] string.
    pub fn from_name(name: &str) -> Option<PfComponent> {
        PfComponent::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// One lifecycle transition.
///
/// The variants are ordered roughly along the pipeline; see the module
/// docs of [`crate::lifecycle`] for the legal orderings per line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PfEventKind {
    /// The engine generated a request and it entered the prefetch queue.
    Queued,
    /// The engine generated a request but the recent-demand filter
    /// dropped it.
    Filtered,
    /// Popped from the queue but the line was already L1I-resident.
    DropResident,
    /// Popped from the queue but a fill for the line was already in
    /// flight.
    DropInflight,
    /// Issued to the memory system; an MSHR now tracks the fill.
    Issued,
    /// The fill completed and the line was installed in the L1I. Stamped
    /// with the fill's *ready* cycle, not the cycle the core noticed.
    Fill,
    /// A demand fetch hit the in-flight prefetch and stalled on its
    /// remaining latency (the "late but partially useful" case).
    DemandWait,
    /// First demand use of the prefetched line after an untroubled fill.
    FirstUse,
    /// First demand use of a line whose fill a demand fetch had to wait
    /// on ([`PfEventKind::DemandWait`] preceded it).
    FirstUseLate,
    /// Evicted from the L1I after being demand-used.
    EvictUsed,
    /// Evicted from the L1I without ever being used (a useless prefetch).
    EvictUnused,
    /// The line was installed into the L2 by the selective
    /// bypass-until-useful policy (on useful eviction or demand merge).
    L2Install,
}

impl PfEventKind {
    /// Number of kinds (array dimension for [`ComponentCounters`]).
    pub const COUNT: usize = 12;

    /// All kinds, in index order.
    pub const ALL: [PfEventKind; PfEventKind::COUNT] = [
        PfEventKind::Queued,
        PfEventKind::Filtered,
        PfEventKind::DropResident,
        PfEventKind::DropInflight,
        PfEventKind::Issued,
        PfEventKind::Fill,
        PfEventKind::DemandWait,
        PfEventKind::FirstUse,
        PfEventKind::FirstUseLate,
        PfEventKind::EvictUsed,
        PfEventKind::EvictUnused,
        PfEventKind::L2Install,
    ];

    /// Dense index (for `[u64; PfEventKind::COUNT]` tables).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            PfEventKind::Queued => 0,
            PfEventKind::Filtered => 1,
            PfEventKind::DropResident => 2,
            PfEventKind::DropInflight => 3,
            PfEventKind::Issued => 4,
            PfEventKind::Fill => 5,
            PfEventKind::DemandWait => 6,
            PfEventKind::FirstUse => 7,
            PfEventKind::FirstUseLate => 8,
            PfEventKind::EvictUsed => 9,
            PfEventKind::EvictUnused => 10,
            PfEventKind::L2Install => 11,
        }
    }

    /// Stable snake_case name used in every sink format.
    pub fn name(self) -> &'static str {
        match self {
            PfEventKind::Queued => "queued",
            PfEventKind::Filtered => "filtered",
            PfEventKind::DropResident => "drop_resident",
            PfEventKind::DropInflight => "drop_inflight",
            PfEventKind::Issued => "issued",
            PfEventKind::Fill => "fill",
            PfEventKind::DemandWait => "demand_wait",
            PfEventKind::FirstUse => "first_use",
            PfEventKind::FirstUseLate => "first_use_late",
            PfEventKind::EvictUsed => "evict_used",
            PfEventKind::EvictUnused => "evict_unused",
            PfEventKind::L2Install => "l2_install",
        }
    }

    /// Parses a [`PfEventKind::name`] string.
    pub fn from_name(name: &str) -> Option<PfEventKind> {
        PfEventKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One timestamped lifecycle event for one line on one core.
///
/// The core id is implicit: events are stored per core in
/// [`crate::CoreTrace`] and re-attached by the sinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PfEvent {
    /// Core-local cycle of the transition.
    pub cycle: Cycle,
    /// The prefetched line.
    pub line: LineAddr,
    /// Component that generated the prefetch.
    pub component: PfComponent,
    /// Which transition happened.
    pub kind: PfEventKind,
}

/// Exact per-component event counts, maintained independently of the
/// bounded event buffer: the buffer may drop events once full, the
/// counters never do, so accuracy/coverage/timeliness ratios derived from
/// them are exact even on runs that overflow the trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComponentCounters {
    counts: [u64; PfEventKind::COUNT],
}

impl ComponentCounters {
    /// Count for one event kind.
    #[inline]
    pub fn get(&self, kind: PfEventKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Increments the count for `kind`.
    #[inline]
    pub fn bump(&mut self, kind: PfEventKind) {
        self.counts[kind.index()] += 1;
    }

    /// Adds `n` to the count for `kind` (artifact deserialisation).
    #[inline]
    pub fn bump_by(&mut self, kind: PfEventKind, n: u64) {
        self.counts[kind.index()] += n;
    }

    /// Adds every count from `other` (cross-core aggregation).
    pub fn merge(&mut self, other: &ComponentCounters) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// Resets every count to zero.
    pub fn clear(&mut self) {
        self.counts = [0; PfEventKind::COUNT];
    }

    /// Total first uses (timely + late).
    pub fn first_uses(&self) -> u64 {
        self.get(PfEventKind::FirstUse) + self.get(PfEventKind::FirstUseLate)
    }

    /// Sum across all kinds (diagnostics).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_consistent() {
        for (i, c) in PfComponent::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(PfComponent::from_name(c.name()), Some(c));
        }
        for (i, k) in PfEventKind::ALL.into_iter().enumerate() {
            assert_eq!(k.index(), i);
            assert_eq!(PfEventKind::from_name(k.name()), Some(k));
        }
        assert_eq!(PfComponent::from_name("bogus"), None);
        assert_eq!(PfEventKind::from_name("bogus"), None);
    }

    #[test]
    fn component_classification() {
        assert_eq!(
            PfComponent::from_source(PrefetchSource::Sequential),
            PfComponent::Sequential
        );
        assert_eq!(
            PfComponent::from_source(PrefetchSource::Discontinuity { table_index: 7 }),
            PfComponent::Discontinuity
        );
        assert_eq!(
            PfComponent::from_source(PrefetchSource::Target),
            PfComponent::Target
        );
    }

    #[test]
    fn counters_bump_merge_and_summarise() {
        let mut a = ComponentCounters::default();
        a.bump(PfEventKind::Issued);
        a.bump(PfEventKind::FirstUse);
        a.bump(PfEventKind::FirstUseLate);
        let mut b = ComponentCounters::default();
        b.bump(PfEventKind::Issued);
        b.merge(&a);
        assert_eq!(b.get(PfEventKind::Issued), 2);
        assert_eq!(b.first_uses(), 2);
        assert_eq!(b.total(), 4);
        b.clear();
        assert_eq!(b.total(), 0);
    }
}
