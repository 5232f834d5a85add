//! Property-based tests for the prefetch infrastructure: the queue's
//! no-duplicate and capacity invariants must hold under arbitrary operation
//! sequences, the queue, filter and discontinuity table must agree with
//! their reference models, and the table must never exceed its geometry.

mod reference;

use ipsim_core::{
    DiscontinuityTable, PrefetchQueue, PrefetchRequest, PrefetchSource, RecentFetchFilter,
    SlotState,
};
use ipsim_types::LineAddr;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum QOp {
    Push(u64),
    Pop,
    Demand(u64),
}

fn qop() -> impl Strategy<Value = QOp> {
    prop_oneof![
        (0u64..24).prop_map(QOp::Push),
        Just(QOp::Pop),
        (0u64..24).prop_map(QOp::Demand),
    ]
}

/// One step of the differential test. Lines are picks into the case's
/// alphabet (see [`alphabet`]); requests carry every source and scheme.
#[derive(Debug, Clone)]
enum DiffOp {
    Push(ReqPick),
    PushBatch(Vec<ReqPick>),
    Pop,
    Demand(usize),
    Record(usize),
    Clear,
}

/// A request as drawn: `(line pick, source kind, table index, scheme)`.
type ReqPick = (usize, u8, u32, u8);

fn req_pick() -> impl Strategy<Value = ReqPick> {
    (any::<usize>(), 0u8..3, 0u32..4, any::<u8>())
}

fn diff_op() -> impl Strategy<Value = DiffOp> {
    (
        0u32..64,
        req_pick(),
        prop::collection::vec(req_pick(), 0..6),
        any::<usize>(),
    )
        .prop_map(|(pick, req, batch, line)| match pick {
            0 => DiffOp::Clear,
            1..=20 => DiffOp::Push(req),
            21..=28 => DiffOp::PushBatch(batch),
            29..=42 => DiffOp::Pop,
            43..=52 => DiffOp::Demand(line),
            _ => DiffOp::Record(line),
        })
}

/// The lines a case draws from: a few more small lines than the larger
/// capacity (so both overflow and dedup happen), plus the top two `u64`
/// values, which must behave as ordinary lines.
fn alphabet(capacity: usize) -> Vec<u64> {
    (0..capacity as u64 + 3)
        .chain([u64::MAX - 1, u64::MAX])
        .collect()
}

fn request(alphabet: &[u64], (line, kind, table_index, scheme): ReqPick) -> PrefetchRequest {
    let source = match kind {
        0 => PrefetchSource::Sequential,
        1 => PrefetchSource::Discontinuity { table_index },
        _ => PrefetchSource::Target,
    };
    PrefetchRequest {
        line: LineAddr(alphabet[line % alphabet.len()]),
        source,
        scheme,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The dense-lane queue and filter agree with their list-based
    /// reference models after every operation: same popped requests, same
    /// slot states, waiting counts, statistics and filter hits.
    #[test]
    fn queue_and_filter_match_reference_models(
        queue_cap in 1usize..41,
        filter_cap in 1usize..41,
        ops in prop::collection::vec(diff_op(), 1..400),
    ) {
        let lines = alphabet(queue_cap.max(filter_cap));
        let mut q = PrefetchQueue::new(queue_cap);
        let mut rq = reference::PrefetchQueue::new(queue_cap);
        let mut f = RecentFetchFilter::new(filter_cap);
        let mut rf = reference::RecentFetchFilter::new(filter_cap);
        for op in ops {
            match op {
                DiffOp::Push(pick) => {
                    let req = request(&lines, pick);
                    q.push(req);
                    rq.push(req);
                }
                DiffOp::PushBatch(picks) => {
                    let batch: Vec<_> = picks.into_iter().map(|p| request(&lines, p)).collect();
                    q.push_batch(&batch);
                    rq.push_batch(&batch);
                }
                DiffOp::Pop => prop_assert_eq!(q.pop_issue(), rq.pop_issue()),
                DiffOp::Demand(pick) => {
                    let line = LineAddr(lines[pick % lines.len()]);
                    q.on_demand_fetch(line);
                    rq.on_demand_fetch(line);
                }
                DiffOp::Record(pick) => {
                    let line = LineAddr(lines[pick % lines.len()]);
                    f.record(line);
                    rf.record(line);
                }
                DiffOp::Clear => {
                    q.clear();
                    rq.clear();
                    f.clear();
                    rf.clear();
                }
            }
            prop_assert_eq!(q.waiting(), rq.waiting());
            prop_assert_eq!(q.stats(), rq.stats());
            for &l in &lines {
                let line = LineAddr(l);
                prop_assert_eq!(q.slot_state(line), rq.slot_state(line), "line {}", l);
                prop_assert_eq!(f.contains(line), rf.contains(line), "line {}", l);
            }
        }
    }

    /// The queue never holds two slots for the same line, never exceeds its
    /// capacity, and never issues an invalidated prefetch.
    #[test]
    fn queue_invariants(ops in prop::collection::vec(qop(), 1..300)) {
        let mut q = PrefetchQueue::new(8);
        let mut invalidated = std::collections::HashSet::new();
        for op in ops {
            match op {
                QOp::Push(l) => {
                    // If the old (invalidated) record has been reclaimed by
                    // overflow, this push is a legitimately fresh request.
                    if q.slot_state(LineAddr(l)).is_none() {
                        invalidated.remove(&l);
                    }
                    q.push(PrefetchRequest::sequential(LineAddr(l)));
                }
                QOp::Pop => {
                    if let Some(r) = q.pop_issue() {
                        prop_assert!(
                            !invalidated.contains(&r.line.0),
                            "issued invalidated line {}",
                            r.line.0
                        );
                        invalidated.remove(&r.line.0);
                    }
                }
                QOp::Demand(l) => {
                    // A waiting entry for l becomes invalid and must never
                    // issue afterwards (unless re-pushed... which dedups
                    // against the record, so it stays dead).
                    if q.slot_state(LineAddr(l)) == Some(SlotState::Waiting) {
                        invalidated.insert(l);
                    }
                    q.on_demand_fetch(LineAddr(l));
                }
            }
            // No duplicates among slots.
            let mut seen = std::collections::HashSet::new();
            for l in 0..24u64 {
                if q.slot_state(LineAddr(l)).is_some() {
                    prop_assert!(seen.insert(l));
                }
            }
            prop_assert!(q.waiting() <= 8);
        }
    }

    /// Queue accounting: pushed = issued + invalidated + dropped_overflow +
    /// still-waiting (+ records reclaimed silently, which only ever removes
    /// non-waiting slots).
    #[test]
    fn queue_accounting(ops in prop::collection::vec(qop(), 1..300)) {
        let mut q = PrefetchQueue::new(8);
        for op in ops {
            match op {
                QOp::Push(l) => q.push(PrefetchRequest::sequential(LineAddr(l))),
                QOp::Pop => { q.pop_issue(); }
                QOp::Demand(l) => q.on_demand_fetch(LineAddr(l)),
            }
        }
        let s = *q.stats();
        prop_assert_eq!(
            s.pushed,
            s.issued + s.invalidated + s.dropped_overflow + q.waiting() as u64
        );
    }

    /// The discontinuity table's occupancy never exceeds its capacity and
    /// lookups only ever return targets that were allocated for that exact
    /// trigger.
    #[test]
    fn table_lookup_soundness(
        pairs in prop::collection::vec((0u64..64, 100u64..200), 1..200)
    ) {
        let mut t = DiscontinuityTable::new(16);
        let mut last_alloc = std::collections::HashMap::new();
        for (trig, tgt) in pairs {
            if t.allocate(LineAddr(trig), LineAddr(tgt)) {
                last_alloc.insert(trig, tgt);
            }
            prop_assert!(t.occupancy() <= 16);
            if let Some((target, idx)) = t.lookup(LineAddr(trig)) {
                prop_assert!(idx < 16);
                // The table may still hold an *older* allocation for this
                // trigger (protected by its counter), but it must be one we
                // allocated at some point for this trigger.
                prop_assert!(target.0 >= 100 && target.0 < 200);
            }
        }
    }

    /// The lane table agrees with the `Option<Entry>` reference after
    /// every operation, at every size from 1 to 32 entries: same lookups,
    /// allocation results, counters, occupancy, allocations and
    /// rejections. A step is `(op, trigger, target, table index)`:
    /// triggers span three laps of the table so slots conflict, targets
    /// repeat so transitions recur, and indices run past the table.
    #[test]
    fn discontinuity_table_matches_the_option_reference(
        size_log2 in 0u32..6,
        steps in prop::collection::vec((0u8..5, 0u64..100, 0u64..4, 0u32..40), 1..400),
    ) {
        let entries = 1usize << size_log2;
        let mut t = DiscontinuityTable::new(entries);
        let mut r = reference::DiscontinuityTable::new(entries);
        for (op, trigger, target, index) in steps {
            let trigger = LineAddr(trigger % (3 * entries as u64 + 1));
            let target = LineAddr(1_000 + target);
            let index = index % (entries as u32 + 2);
            match op {
                0 => prop_assert_eq!(t.allocate(trigger, target), r.allocate(trigger, target)),
                1 => prop_assert_eq!(t.lookup(trigger), r.lookup(trigger)),
                2 => {
                    t.reinforce(index);
                    r.reinforce(index);
                }
                3 => {
                    t.weaken(index);
                    r.weaken(index);
                }
                _ => prop_assert_eq!(t.confidence(index), r.confidence(index)),
            }
            prop_assert_eq!(t.occupancy(), r.occupancy());
            prop_assert_eq!(t.allocations(), r.allocations());
            prop_assert_eq!(t.rejections(), r.rejections());
        }
        for i in 0..entries as u32 + 2 {
            prop_assert_eq!(t.confidence(i), r.confidence(i), "slot {}", i);
        }
        for l in 0..3 * entries as u64 + 1 {
            prop_assert_eq!(t.lookup(LineAddr(l)), r.lookup(LineAddr(l)), "line {}", l);
        }
    }

    /// The recent-fetch filter remembers at most its capacity of distinct
    /// lines and always remembers the most recent one.
    #[test]
    fn filter_recency(lines in prop::collection::vec(0u64..100, 1..200)) {
        let mut f = RecentFetchFilter::new(32);
        for &l in &lines {
            f.record(LineAddr(l));
            prop_assert!(f.contains(LineAddr(l)));
        }
        let distinct: std::collections::HashSet<_> =
            (0..100u64).filter(|&l| f.contains(LineAddr(l))).collect();
        prop_assert!(distinct.len() <= 32);
    }
}
