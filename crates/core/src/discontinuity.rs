//! The paper's discontinuity prefetcher, paired with a next-N-line
//! sequential prefetcher (Section 4).

use ipsim_types::LineAddr;

use crate::engine::{FetchEvent, PrefetchEngine, PrefetchRequest, PrefetchSource};
use crate::table::DiscontinuityTable;

/// Configuration of a [`DiscontinuityPrefetcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiscontinuityConfig {
    /// Prediction-table slots (paper default: 8192 per core; Figure 10
    /// shows 2048 loses little coverage and even 256 beats next-4-line).
    pub table_entries: usize,
    /// Prefetch-ahead distance N of the paired sequential prefetcher and of
    /// the table probe window (paper default 4; the "discont (2NL)" variant
    /// of Figure 9 uses 2 for higher accuracy at lower timeliness).
    pub ahead: u32,
    /// Confidence gate: a table entry predicts only while its eviction
    /// counter is at least this value, and the counter is decremented when
    /// one of the entry's prefetches is evicted unused. `0` (the paper's
    /// base design) disables gating — entries always predict and the
    /// counter only governs replacement. An extension in the spirit of the
    /// confidence filtering the paper cites from Haga et al.
    pub min_confidence: u8,
}

impl Default for DiscontinuityConfig {
    fn default() -> Self {
        DiscontinuityConfig {
            table_entries: 8192,
            ahead: 4,
            min_confidence: 0,
        }
    }
}

impl DiscontinuityConfig {
    /// The next-2-line variant evaluated in Figure 9 ("discont (2NL)").
    pub fn two_line() -> DiscontinuityConfig {
        DiscontinuityConfig {
            ahead: 2,
            ..DiscontinuityConfig::default()
        }
    }

    /// The confidence-gated extension variant.
    pub fn confidence_gated(threshold: u8) -> DiscontinuityConfig {
        DiscontinuityConfig {
            min_confidence: threshold,
            ..DiscontinuityConfig::default()
        }
    }
}

/// Discontinuity prefetcher + next-N-line tagged sequential prefetcher.
///
/// Behaviour per the paper:
///
/// * **Allocation** — when a fetch that *missed* arrives via a discontinuity
///   (a non-sequential line transition), the transition `prev → line` is a
///   candidate for insertion into the [`DiscontinuityTable`].
/// * **Prediction** — on the sequential prefetcher's trigger (miss or first
///   use of a prefetched line at line `L`), sequential prefetches are
///   emitted for `L+1 ..= L+N`, and the table is probed with `L, L+1, …,
///   L+N` — the probe runs *ahead* of the demand stream so discontinuity
///   targets are requested early enough to cover L2/memory latency. A probe
///   hit at distance `d` with target `T` emits a prefetch for `T` plus the
///   remainder of the prefetch-ahead window `T+1 ..= T+(N-d)`.
/// * **Reinforcement** — when a discontinuity-sourced prefetch proves
///   useful, the predicting entry's eviction counter is incremented,
///   protecting it from replacement.
///
/// The sequential partner removes any need to store sequential transitions
/// in the table, which is what lets the table stay small.
#[derive(Debug, Clone)]
pub struct DiscontinuityPrefetcher {
    table: DiscontinuityTable,
    ahead: u32,
    min_confidence: u8,
    /// Highest line already covered by the sequential prefetch stream.
    /// Sequential re-triggers (tagged first uses while the demand stream
    /// marches through prefetched lines) only extend coverage past this
    /// frontier instead of re-emitting and re-probing the whole window —
    /// that is what "the sequential prefetcher moving ahead of the demand
    /// fetch stream" means, and it is what keeps the request volume (and
    /// thus queue pressure and pollution) bounded.
    frontier: Option<LineAddr>,
}

impl DiscontinuityPrefetcher {
    /// Creates the prefetcher.
    ///
    /// # Panics
    ///
    /// Panics unless `config.table_entries` is a non-zero power of two and
    /// `config.ahead` is non-zero.
    pub fn new(config: DiscontinuityConfig) -> DiscontinuityPrefetcher {
        assert!(config.ahead > 0, "prefetch-ahead distance must be non-zero");
        DiscontinuityPrefetcher {
            table: DiscontinuityTable::new(config.table_entries),
            ahead: config.ahead,
            min_confidence: config.min_confidence,
            frontier: None,
        }
    }

    /// Read-only view of the prediction table (diagnostics / tests).
    pub fn table(&self) -> &DiscontinuityTable {
        &self.table
    }

    /// The prefetch-ahead distance N.
    pub fn ahead(&self) -> u32 {
        self.ahead
    }
}

impl PrefetchEngine for DiscontinuityPrefetcher {
    fn on_fetch(&mut self, ev: &FetchEvent, out: &mut Vec<PrefetchRequest>) {
        // Allocation: discontinuities that cause instruction cache misses.
        if ev.miss && ev.is_discontinuity() {
            if let Some(prev) = ev.prev_line {
                self.table.allocate(prev, ev.line);
            }
        }

        // Sequential window, nearest first — emitted on the tagged trigger
        // (miss or first use of a prefetched line), exactly like the plain
        // next-N-line tagged prefetcher. The queue dedup and the tag
        // probes drop redundant requests cheaply, and the re-emission
        // re-fetches lines that pollution evicted.
        let window_end = ev.line.ahead(self.ahead as u64);
        if ev.miss || ev.first_use_of_prefetch {
            for d in 1..=self.ahead as u64 {
                out.push(PrefetchRequest::sequential(ev.line.ahead(d)));
            }
        }

        // The table probe accompanies the demand stream itself, *on every
        // new-line fetch* — resident code paths still contain upcoming
        // discontinuities whose targets (e.g. thrashed callee entries)
        // need prefetching. Each line is probed once as the stream's
        // frontier advances over it; a jump, return or backward transfer
        // starts a fresh window. Without the frontier gating, the same
        // entries re-fire on every fetch and the prediction volume (each
        // hit emits up to N+1 lines) drowns the queue.
        // "Continuing" also covers short backward hops (loop iterations):
        // re-probing the loop body every iteration would re-emit the same
        // predictions endlessly.
        let covered_span = 4 * self.ahead as u64;
        let probe_from = match self.frontier {
            Some(f) if ev.line.0 <= f.0 && f.0 - ev.line.0 <= covered_span => {
                if f.0 >= window_end.0 {
                    return;
                }
                f.next()
            }
            _ => ev.line,
        };
        self.frontier = Some(window_end);

        let mut probe = probe_from;
        while probe.0 <= window_end.0 {
            if let Some((target, idx)) = self.table.lookup(probe) {
                if self.min_confidence > 0
                    && self.table.confidence(idx).unwrap_or(0) < self.min_confidence
                {
                    probe = probe.next();
                    continue;
                }
                out.push(PrefetchRequest::new(
                    target,
                    PrefetchSource::Discontinuity { table_index: idx },
                ));
                // Remainder of the window past the predicted target:
                // issuing these now (rather than after the prediction is
                // verified) is what keeps the scheme timely against L2
                // misses.
                let remainder = window_end.0 - probe.0;
                for k in 1..=remainder {
                    out.push(PrefetchRequest::sequential(target.ahead(k)));
                }
            }
            probe = probe.next();
        }
    }

    fn on_useful(&mut self, _line: LineAddr, source: PrefetchSource, _late: bool) {
        if let PrefetchSource::Discontinuity { table_index } = source {
            self.table.reinforce(table_index);
        }
    }

    fn on_evict(&mut self, _line: LineAddr, source: PrefetchSource, used: bool) {
        if !used && self.min_confidence > 0 {
            if let PrefetchSource::Discontinuity { table_index } = source {
                self.table.weaken(table_index);
            }
        }
    }

    fn name(&self) -> &'static str {
        match self.ahead {
            2 => "discont (2NL)",
            _ => "discontinuity",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fetch(pf: &mut DiscontinuityPrefetcher, ev: FetchEvent) -> Vec<PrefetchRequest> {
        let mut out = Vec::new();
        pf.on_fetch(&ev, &mut out);
        out
    }

    fn lines(reqs: &[PrefetchRequest]) -> Vec<u64> {
        reqs.iter().map(|r| r.line.0).collect()
    }

    #[test]
    fn miss_without_history_emits_sequential_window() {
        let mut pf = DiscontinuityPrefetcher::new(DiscontinuityConfig::default());
        let out = fetch(&mut pf, FetchEvent::miss(LineAddr(100), Some(LineAddr(99))));
        assert_eq!(lines(&out), [101, 102, 103, 104]);
        assert!(out.iter().all(|r| r.source == PrefetchSource::Sequential));
    }

    #[test]
    fn discontinuity_miss_allocates_and_later_predicts() {
        let mut pf = DiscontinuityPrefetcher::new(DiscontinuityConfig::default());
        // A missing fetch at 900 arriving from 100: allocate 100 -> 900.
        fetch(
            &mut pf,
            FetchEvent::miss(LineAddr(900), Some(LineAddr(100))),
        );
        // Next time the stream misses at line 98, the probe window
        // 98..=102 includes trigger 100: predict 900 and its remainder.
        let out = fetch(&mut pf, FetchEvent::miss(LineAddr(98), Some(LineAddr(97))));
        let ls = lines(&out);
        // Sequential window first.
        assert_eq!(&ls[..4], &[99, 100, 101, 102]);
        // Probe hit at distance d=2 (line 100): target 900 plus remainder 2.
        assert!(ls[4..].starts_with(&[900, 901, 902]), "{ls:?}");
        let disc = &out[4];
        assert!(matches!(disc.source, PrefetchSource::Discontinuity { .. }));
    }

    #[test]
    fn probe_at_distance_zero_emits_full_remainder() {
        let mut pf = DiscontinuityPrefetcher::new(DiscontinuityConfig::default());
        fetch(
            &mut pf,
            FetchEvent::miss(LineAddr(900), Some(LineAddr(100))),
        );
        let out = fetch(&mut pf, FetchEvent::miss(LineAddr(100), Some(LineAddr(99))));
        let ls = lines(&out);
        assert_eq!(ls, [101, 102, 103, 104, 900, 901, 902, 903, 904]);
    }

    #[test]
    fn tagged_hit_triggers_prediction_too() {
        let mut pf = DiscontinuityPrefetcher::new(DiscontinuityConfig::default());
        fetch(
            &mut pf,
            FetchEvent::miss(LineAddr(900), Some(LineAddr(104))),
        );
        let ev = FetchEvent {
            line: LineAddr(104),
            miss: false,
            first_use_of_prefetch: true,
            prev_line: Some(LineAddr(103)),
        };
        let out = fetch(&mut pf, ev);
        assert!(lines(&out).contains(&900));
    }

    #[test]
    fn plain_hits_emit_nothing_and_do_not_allocate() {
        let mut pf = DiscontinuityPrefetcher::new(DiscontinuityConfig::default());
        // A discontinuity that *hits* must not allocate.
        let out = fetch(&mut pf, FetchEvent::hit(LineAddr(900), Some(LineAddr(100))));
        assert!(out.is_empty());
        let out = fetch(&mut pf, FetchEvent::miss(LineAddr(98), Some(LineAddr(97))));
        assert_eq!(lines(&out), [99, 100, 101, 102]);
    }

    #[test]
    fn sequential_miss_does_not_allocate() {
        let mut pf = DiscontinuityPrefetcher::new(DiscontinuityConfig::default());
        fetch(
            &mut pf,
            FetchEvent::miss(LineAddr(101), Some(LineAddr(100))),
        );
        assert_eq!(pf.table().occupancy(), 0);
    }

    #[test]
    fn useful_feedback_reinforces_entry() {
        let mut pf = DiscontinuityPrefetcher::new(DiscontinuityConfig {
            table_entries: 16,
            ahead: 4,
            min_confidence: 0,
        });
        fetch(&mut pf, FetchEvent::miss(LineAddr(900), Some(LineAddr(1))));
        // Wear the entry down with conflicting allocations (17 aliases 1).
        fetch(&mut pf, FetchEvent::miss(LineAddr(700), Some(LineAddr(17))));
        fetch(&mut pf, FetchEvent::miss(LineAddr(700), Some(LineAddr(17))));
        // Reinforce through the feedback path.
        let (_, idx) = pf.table().lookup(LineAddr(1)).unwrap();
        pf.on_useful(
            LineAddr(900),
            PrefetchSource::Discontinuity { table_index: idx },
            false,
        );
        pf.on_useful(
            LineAddr(900),
            PrefetchSource::Discontinuity { table_index: idx },
            false,
        );
        // Entry survives three more conflicts (counter back at 3).
        for _ in 0..3 {
            fetch(&mut pf, FetchEvent::miss(LineAddr(700), Some(LineAddr(17))));
        }
        assert!(pf.table().lookup(LineAddr(1)).is_some());
    }

    #[test]
    fn two_line_variant_has_shorter_window() {
        let mut pf = DiscontinuityPrefetcher::new(DiscontinuityConfig::two_line());
        let out = fetch(&mut pf, FetchEvent::miss(LineAddr(100), Some(LineAddr(99))));
        assert_eq!(lines(&out), [101, 102]);
        assert_eq!(pf.name(), "discont (2NL)");
    }

    #[test]
    fn sequential_feedback_is_ignored() {
        let mut pf = DiscontinuityPrefetcher::new(DiscontinuityConfig::default());
        // Must not panic or corrupt anything.
        pf.on_useful(LineAddr(5), PrefetchSource::Sequential, false);
    }
}
