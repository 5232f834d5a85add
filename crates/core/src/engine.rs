//! The prefetch-policy interface between the core front end and the
//! prefetchers.

use ipsim_types::LineAddr;

/// One demand fetch of a (new) instruction cache line, as observed by the
/// front end.
///
/// The front end raises one event per *line transition* of the fetch PC,
/// not per instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchEvent {
    /// The line being fetched.
    pub line: LineAddr,
    /// The fetch missed in the L1 instruction cache.
    pub miss: bool,
    /// The fetch hit a prefetched line for the first time (prefetch
    /// tagging), or merged with an in-flight prefetch. Triggers *tagged*
    /// prefetch schemes.
    pub first_use_of_prefetch: bool,
    /// The previously fetched line, if any.
    pub prev_line: Option<LineAddr>,
}

impl FetchEvent {
    /// Convenience constructor for a missing fetch (tests, examples).
    pub fn miss(line: LineAddr, prev_line: Option<LineAddr>) -> FetchEvent {
        FetchEvent {
            line,
            miss: true,
            first_use_of_prefetch: false,
            prev_line,
        }
    }

    /// Convenience constructor for a plain hit.
    pub fn hit(line: LineAddr, prev_line: Option<LineAddr>) -> FetchEvent {
        FetchEvent {
            line,
            miss: false,
            first_use_of_prefetch: false,
            prev_line,
        }
    }

    /// `true` when this fetch is a *discontinuity*: a transition from the
    /// previous line that is neither within the same line nor to the next
    /// sequential line. (Transitions within the same cache line are
    /// invisible at line granularity and explicitly ignored by the paper.)
    pub fn is_discontinuity(&self) -> bool {
        match self.prev_line {
            Some(prev) => self.line != prev && !self.line.is_sequential_after(prev),
            None => false,
        }
    }
}

/// Which mechanism generated a prefetch. Echoed back to the engine when the
/// prefetched line proves useful, so table-based schemes can reinforce the
/// responsible entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchSource {
    /// A sequential (next-line / next-N-line / lookahead) prefetch.
    Sequential,
    /// A discontinuity prediction; carries the predictor-table index of the
    /// entry that produced it.
    Discontinuity {
        /// Direct-mapped table index of the predicting entry.
        table_index: u32,
    },
    /// A classic target-table prediction.
    Target,
}

/// A line-prefetch request produced by an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchRequest {
    /// The line to prefetch.
    pub line: LineAddr,
    /// The mechanism that generated it.
    pub source: PrefetchSource,
    /// Zoo slot of the issuing engine, stamped by the zoo hosting it
    /// (`ipsim-prefetch`); engines emit `0`. Carried through the queue so
    /// attribution stays exact even when a request lingers queued across
    /// many fetch events.
    pub scheme: u8,
}

impl PrefetchRequest {
    /// A request from `source` (scheme slot 0).
    pub fn new(line: LineAddr, source: PrefetchSource) -> PrefetchRequest {
        PrefetchRequest {
            line,
            source,
            scheme: 0,
        }
    }

    /// A sequential-source request.
    pub fn sequential(line: LineAddr) -> PrefetchRequest {
        PrefetchRequest::new(line, PrefetchSource::Sequential)
    }
}

/// A hardware instruction-prefetch policy — the one scheme interface.
///
/// Engines are deterministic state machines with a line lifecycle: they
/// observe demand-fetch events, emit prefetch requests, and receive
/// usefulness and eviction feedback for the lines they prefetched. They
/// never see timing, caches or bandwidth — the CPU model owns those. The
/// core hosts every engine in an `ipsim_prefetch::Zoo`, which tags each
/// request with the engine's slot and routes the feedback back to it.
pub trait PrefetchEngine: std::fmt::Debug {
    /// Observes one demand line fetch and appends any generated prefetch
    /// requests to `out` (in issue-priority order, most important first).
    fn on_fetch(&mut self, ev: &FetchEvent, out: &mut Vec<PrefetchRequest>);

    /// Observes a conditional branch passing through the front end:
    /// `alternate` is the line of the path *not* taken this time (the
    /// fall-through line of a taken branch, or the target line of a
    /// not-taken one). Used by wrong-path prefetching (Pierce & Mudge);
    /// most engines ignore it.
    fn on_cond_branch(&mut self, alternate: LineAddr, out: &mut Vec<PrefetchRequest>) {
        let _ = (alternate, out);
    }

    /// Feedback: a prefetch this engine generated (with `source`) was
    /// demand-referenced for the first time — it proved useful. `late` is
    /// `true` when the demand fetch arrived while the prefetch was still
    /// in flight (the fetch merged with the MSHR and stalled), `false`
    /// when the line was already resident.
    fn on_useful(&mut self, line: LineAddr, source: PrefetchSource, late: bool) {
        let _ = (line, source, late);
    }

    /// Feedback: a line this engine prefetched left the instruction cache.
    /// `used` is `false` only for the pure waste case — a prefetched line
    /// evicted without ever being demand-referenced — which table-based
    /// schemes use to weaken the responsible entry.
    fn on_evict(&mut self, line: LineAddr, source: PrefetchSource, used: bool) {
        let _ = (line, source, used);
    }

    /// Short scheme name for reports (e.g. `"next-4-line (tagged)"`).
    fn name(&self) -> &'static str;

    /// `true` when this engine can ever append a request in `on_fetch` /
    /// `on_cond_branch`. An engine returning `false` makes the whole
    /// prefetch pipeline provably dead — the queue and recent-fetch
    /// filter stay empty forever, so the core skips the per-fetch hook
    /// block (queue invalidation scan, filter insert, engine dispatch,
    /// issue budget) outright. Every counter that block touches stays at
    /// the value the full path would compute (all zeros), so the skip is
    /// observationally exact.
    fn generates_requests(&self) -> bool {
        true
    }
}

/// The no-op baseline: never prefetches.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoPrefetcher;

impl NoPrefetcher {
    /// Creates the null engine.
    pub fn new() -> NoPrefetcher {
        NoPrefetcher
    }
}

impl PrefetchEngine for NoPrefetcher {
    fn on_fetch(&mut self, _ev: &FetchEvent, _out: &mut Vec<PrefetchRequest>) {}

    fn name(&self) -> &'static str {
        "no prefetch"
    }

    fn generates_requests(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discontinuity_detection() {
        // No previous line: not a discontinuity.
        assert!(!FetchEvent::miss(LineAddr(10), None).is_discontinuity());
        // Sequential: not a discontinuity.
        assert!(!FetchEvent::miss(LineAddr(11), Some(LineAddr(10))).is_discontinuity());
        // Same line: not a discontinuity.
        assert!(!FetchEvent::miss(LineAddr(10), Some(LineAddr(10))).is_discontinuity());
        // Forward jump: discontinuity.
        assert!(FetchEvent::miss(LineAddr(20), Some(LineAddr(10))).is_discontinuity());
        // Backward jump: discontinuity.
        assert!(FetchEvent::miss(LineAddr(5), Some(LineAddr(10))).is_discontinuity());
    }

    #[test]
    fn no_prefetcher_emits_nothing() {
        let mut pf = NoPrefetcher::new();
        let mut out = Vec::new();
        pf.on_fetch(&FetchEvent::miss(LineAddr(1), None), &mut out);
        assert!(out.is_empty());
        assert_eq!(pf.name(), "no prefetch");
    }
}
