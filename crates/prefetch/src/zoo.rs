//! The multi-prefetcher host every core drives: runs one or more
//! [`PrefetchEngine`] schemes side by side and keeps per-scheme lifecycle
//! counters.

use ipsim_core::{FetchEvent, PrefetchEngine, PrefetchRequest, PrefetchSource};
use ipsim_types::LineAddr;

use crate::stats::SchemeCounters;

/// Maximum schemes a zoo can host. Slots are `u8` in every request
/// ([`PrefetchRequest::scheme`]); eight is far past any realistic
/// side-by-side study and keeps per-event fan-out bounded.
pub const MAX_SCHEMES: usize = 8;

#[derive(Debug)]
struct Member {
    /// Canonical spec string (e.g. `disc:ahead=2`) — stable across runs,
    /// used as the row key in telemetry artifacts.
    label: String,
    engine: Box<dyn PrefetchEngine>,
    counters: SchemeCounters,
}

/// Up to [`MAX_SCHEMES`] prefetch engines hosted in one core.
///
/// Every core drives exactly one zoo; a scheme configured directly is a
/// zoo of one ([`Zoo::single`]).
///
/// Emission: each front-end event is shown to every member in slot order,
/// and the zoo stamps each request with the member's slot, so the batch
/// handed to the issue queue interleaves schemes in slot priority order
/// (slot 0 first).
///
/// Attribution: the core stores the slot beside each line's prefetch
/// source in its one attribution table (and in the in-flight MSHR entry)
/// and passes it back to the lifecycle calls ([`Zoo::on_issued`],
/// [`Zoo::on_fill`], [`Zoo::on_useful`], [`Zoo::on_evict`]) at exactly
/// the points where it counts its own aggregate prefetch statistics. The
/// per-scheme counters therefore sum to those aggregates — the invariant
/// the attribution property tests pin.
#[derive(Debug, Default)]
pub struct Zoo {
    members: Vec<Member>,
}

impl Zoo {
    /// An empty zoo.
    pub fn new() -> Zoo {
        Zoo::default()
    }

    /// A zoo hosting `engine` alone, labelled with the engine's name.
    pub fn single(engine: Box<dyn PrefetchEngine>) -> Zoo {
        let mut zoo = Zoo::new();
        zoo.add(engine.name(), engine);
        zoo
    }

    /// Adds a scheme in the next slot. `label` is the canonical spec
    /// string.
    ///
    /// # Panics
    ///
    /// Panics when the zoo is full ([`MAX_SCHEMES`]).
    pub fn add(&mut self, label: impl Into<String>, engine: Box<dyn PrefetchEngine>) {
        assert!(
            self.members.len() < MAX_SCHEMES,
            "zoo is full ({MAX_SCHEMES} schemes)"
        );
        self.members.push(Member {
            label: label.into(),
            engine,
            counters: SchemeCounters::default(),
        });
    }

    /// The sole member's name for a zoo of one, `"zoo"` otherwise.
    pub fn name(&self) -> &'static str {
        match self.members.as_slice() {
            [only] => only.engine.name(),
            _ => "zoo",
        }
    }

    /// `true` when any member can ever emit a request (see
    /// [`PrefetchEngine::generates_requests`]).
    pub fn generates_requests(&self) -> bool {
        self.members.iter().any(|m| m.engine.generates_requests())
    }

    /// Per-scheme windowed counters, `(label, counters)` in slot order.
    pub fn scheme_stats(&self) -> Vec<(String, SchemeCounters)> {
        self.members
            .iter()
            .map(|m| (m.label.clone(), m.counters))
            .collect()
    }

    /// Shows a demand line fetch to every member, appending their
    /// slot-stamped requests to `out`.
    pub fn on_fetch(&mut self, ev: &FetchEvent, out: &mut Vec<PrefetchRequest>) {
        for (slot, m) in self.members.iter_mut().enumerate() {
            let start = out.len();
            m.engine.on_fetch(ev, out);
            m.counters.generated += stamp(&mut out[start..], slot);
        }
    }

    /// Shows a conditional branch's untaken path to every member,
    /// appending their slot-stamped requests to `out`.
    pub fn on_cond_branch(&mut self, alternate: LineAddr, out: &mut Vec<PrefetchRequest>) {
        for (slot, m) in self.members.iter_mut().enumerate() {
            let start = out.len();
            m.engine.on_cond_branch(alternate, out);
            m.counters.generated += stamp(&mut out[start..], slot);
        }
    }

    /// Slot `scheme`'s request was accepted by the memory system.
    pub fn on_issued(&mut self, scheme: u8) {
        self.members[scheme as usize].counters.issued += 1;
    }

    /// Slot `scheme`'s in-flight prefetch was installed in the L1I.
    pub fn on_fill(&mut self, scheme: u8) {
        self.members[scheme as usize].counters.filled += 1;
    }

    /// A line slot `scheme` prefetched was demand-referenced for the first
    /// time; forwards the feedback to the member.
    pub fn on_useful(&mut self, scheme: u8, line: LineAddr, source: PrefetchSource, late: bool) {
        let m = &mut self.members[scheme as usize];
        m.counters.useful += 1;
        if late {
            m.counters.late += 1;
        }
        m.engine.on_useful(line, source, late);
    }

    /// A line slot `scheme` prefetched left the L1I; forwards the feedback
    /// to the member.
    pub fn on_evict(&mut self, scheme: u8, line: LineAddr, source: PrefetchSource, used: bool) {
        let m = &mut self.members[scheme as usize];
        if used {
            m.counters.evicted_used += 1;
        } else {
            m.counters.evicted_unused += 1;
        }
        m.engine.on_evict(line, source, used);
    }

    /// Resets every member's counters at a measurement-window boundary.
    /// Member state and the core's attributions persist, so a line
    /// prefetched during warmup is still credited when it is used or
    /// evicted during measurement.
    pub fn reset_stats(&mut self) {
        for m in &mut self.members {
            m.counters.reset();
        }
    }
}

/// Stamps `batch` with zoo slot `slot`; returns the batch size.
fn stamp(batch: &mut [PrefetchRequest], slot: usize) -> u64 {
    for r in batch.iter_mut() {
        r.scheme = slot as u8;
    }
    batch.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsim_core::PrefetcherKind;

    fn two_scheme_zoo() -> Zoo {
        let mut zoo = Zoo::new();
        zoo.add("nl", PrefetcherKind::NextLineTagged.build());
        zoo.add("nnl:n=2", PrefetcherKind::NextNLineTagged { n: 2 }.build());
        zoo
    }

    #[test]
    fn emission_interleaves_slots_in_order() {
        let mut zoo = two_scheme_zoo();
        let mut out = Vec::new();
        zoo.on_fetch(&FetchEvent::miss(LineAddr(100), None), &mut out);
        // Slot 0 (next-line) then slot 1 (next-2-line).
        let tagged: Vec<(u64, u8)> = out.iter().map(|r| (r.line.0, r.scheme)).collect();
        assert_eq!(tagged, [(101, 0), (101, 1), (102, 1)]);
        let stats = zoo.scheme_stats();
        assert_eq!(stats[0].1.generated, 1);
        assert_eq!(stats[1].1.generated, 2);
    }

    #[test]
    fn lifecycle_counters_land_on_the_named_slot() {
        let mut zoo = two_scheme_zoo();
        let line = LineAddr(101);
        let src = PrefetchSource::Sequential;
        zoo.on_issued(1);
        zoo.on_fill(1);
        zoo.on_useful(1, line, src, true);
        zoo.on_evict(1, line, src, true);
        let s = zoo.scheme_stats();
        assert_eq!(s[0].1, SchemeCounters::default(), "slot 0 untouched");
        let c = s[1].1;
        assert_eq!(
            (c.issued, c.filled, c.useful, c.late, c.evicted_used),
            (1, 1, 1, 1, 1)
        );
        assert_eq!(c.evicted_unused, 0);
        zoo.reset_stats();
        assert_eq!(zoo.scheme_stats()[1].1, SchemeCounters::default());
        zoo.on_evict(1, line, src, false);
        assert_eq!(zoo.scheme_stats()[1].1.evicted_unused, 1);
    }

    #[test]
    fn a_zoo_of_one_takes_its_members_name() {
        let zoo = Zoo::single(PrefetcherKind::discontinuity_default().build());
        assert_eq!(zoo.name(), "discontinuity");
        assert_eq!(zoo.scheme_stats()[0].0, "discontinuity");
        assert!(zoo.generates_requests());
        assert_eq!(two_scheme_zoo().name(), "zoo");
        assert!(!Zoo::single(PrefetcherKind::None.build()).generates_requests());
    }

    #[test]
    #[should_panic(expected = "zoo is full")]
    fn zoo_rejects_more_than_max_schemes() {
        let mut zoo = Zoo::new();
        for i in 0..=MAX_SCHEMES {
            zoo.add(format!("none#{i}"), PrefetcherKind::None.build());
        }
    }
}
