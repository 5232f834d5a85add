//! The per-core prefetch queue (Section 4.1 of the paper).
//!
//! The queue is a fixed arena of `capacity` slots. Each slot's line
//! address sits in one dense `u64` lane, so finding a line is a single
//! branch-free pass over that lane. Slots fill in index order and a slot
//! freed by overflow is refilled by the push that freed it, so the
//! occupied slots are always a prefix of the arena: occupancy is a length,
//! not a sentinel line value, and every `u64` is an ordinary line. Two
//! intrusive index lists keep the order: all occupied slots by recency,
//! and the waiting slots by recency.
//!
//! Costs per operation, for `n` occupied slots:
//!
//! * [`PrefetchQueue::push`]: one lane pass for dedup, then O(1) to hoist,
//!   drop or link in. A full queue first reclaims a slot by walking back
//!   from the oldest slot past waiting ones to the oldest record, which
//!   is usually zero or one step.
//! * [`PrefetchQueue::pop_issue`], [`PrefetchQueue::waiting`] and
//!   [`PrefetchQueue::clear`]: O(1).
//! * [`PrefetchQueue::on_demand_fetch`]: O(1) when nothing waits, else one
//!   lane pass.
//! * [`PrefetchQueue::slot_state`]: one lane pass.

use ipsim_types::LineAddr;

use crate::engine::PrefetchRequest;

/// Lifecycle state of a queue slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// Awaiting a tag-probe/issue slot.
    Waiting,
    /// Already issued; retained as a record so duplicates can be dropped.
    Issued,
    /// Invalidated by a matching demand fetch; retained as a record.
    Invalid,
}

/// Counters maintained by the [`PrefetchQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Requests accepted into the queue.
    pub pushed: u64,
    /// Requests dropped because a matching issued/invalidated record
    /// existed.
    pub dropped_record: u64,
    /// Requests that matched a waiting entry and hoisted it to the head.
    pub hoisted: u64,
    /// Waiting prefetches dropped by overflow (oldest first).
    pub dropped_overflow: u64,
    /// Waiting prefetches invalidated by demand fetches.
    pub invalidated: u64,
    /// Prefetches handed to the issue path.
    pub issued: u64,
}

/// End-of-list marker for [`SlotList`].
const NIL: usize = usize::MAX;

/// A doubly linked list threaded through arena slot indices.
#[derive(Debug, Clone)]
struct SlotList {
    /// `(prev, next)` of each slot on the list; stale for slots off it.
    links: Box<[(usize, usize)]>,
    /// Most recent slot, or [`NIL`].
    head: usize,
    /// Least recent slot, or [`NIL`].
    tail: usize,
}

impl SlotList {
    fn new(capacity: usize) -> SlotList {
        SlotList {
            links: vec![(NIL, NIL); capacity].into_boxed_slice(),
            head: NIL,
            tail: NIL,
        }
    }

    fn clear(&mut self) {
        self.head = NIL;
        self.tail = NIL;
    }

    /// Links `slot`, which is not on the list, in at the head.
    fn push_front(&mut self, slot: usize) {
        self.links[slot] = (NIL, self.head);
        match self.head {
            NIL => self.tail = slot,
            head => self.links[head].0 = slot,
        }
        self.head = slot;
    }

    /// Unlinks `slot`, which is on the list.
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = self.links[slot];
        match prev {
            NIL => self.head = next,
            prev => self.links[prev].1 = next,
        }
        match next {
            NIL => self.tail = prev,
            next => self.links[next].0 = prev,
        }
    }

    /// Moves `slot`, which is on the list, to the head.
    fn move_to_front(&mut self, slot: usize) {
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }
}

/// The paper's prefetch queue: finite, managed **last-in first-out** so
/// fresh prefetches de-emphasise stale ones, with
///
/// * no duplicates — a request matching a *waiting* entry hoists that entry
///   to the head instead of enqueueing; one matching an *issued* or
///   *invalidated* record is dropped;
/// * demand-fetch invalidation — every demand fetch marks matching waiting
///   entries invalid;
/// * record retention — unused slots keep issued/invalidated line records,
///   extending the dedup horizon;
/// * overflow — when full of waiting entries, the **oldest** waiting
///   prefetch is dropped (records are reclaimed first).
///
/// # Examples
///
/// ```
/// use ipsim_core::{PrefetchQueue, PrefetchRequest};
/// use ipsim_types::LineAddr;
///
/// let mut q = PrefetchQueue::new(32);
/// q.push_batch(&[
///     PrefetchRequest::sequential(LineAddr(1)),
///     PrefetchRequest::sequential(LineAddr(2)),
/// ]);
/// // Batch order is issue-priority order.
/// assert_eq!(q.pop_issue().unwrap().line, LineAddr(1));
/// assert_eq!(q.pop_issue().unwrap().line, LineAddr(2));
/// assert!(q.pop_issue().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct PrefetchQueue {
    /// Line address of each slot; slots `0..len` are occupied.
    lines: Box<[u64]>,
    /// The request each occupied slot holds.
    reqs: Box<[PrefetchRequest]>,
    /// The state of each occupied slot.
    states: Box<[SlotState]>,
    len: usize,
    /// Every occupied slot, most recently pushed or hoisted first.
    recency: SlotList,
    /// The waiting slots in the same order; the head issues next.
    waiting: SlotList,
    n_waiting: usize,
    stats: QueueStats,
}

impl PrefetchQueue {
    /// Creates a queue with `capacity` slots (the paper uses 32 per core).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> PrefetchQueue {
        assert!(capacity > 0, "queue capacity must be non-zero");
        PrefetchQueue {
            lines: vec![0; capacity].into_boxed_slice(),
            reqs: vec![PrefetchRequest::sequential(LineAddr(0)); capacity].into_boxed_slice(),
            states: vec![SlotState::Invalid; capacity].into_boxed_slice(),
            len: 0,
            recency: SlotList::new(capacity),
            waiting: SlotList::new(capacity),
            n_waiting: 0,
            stats: QueueStats::default(),
        }
    }

    /// Queue statistics.
    pub fn stats(&self) -> &QueueStats {
        &self.stats
    }

    /// Empties the queue — entries, dedup records and statistics — back to
    /// the state of a freshly built queue (run-reuse reset).
    pub fn clear(&mut self) {
        self.len = 0;
        self.recency.clear();
        self.waiting.clear();
        self.n_waiting = 0;
        self.stats = QueueStats::default();
    }

    /// Number of waiting (issuable) entries.
    pub fn waiting(&self) -> usize {
        self.n_waiting
    }

    /// The state of the slot holding `line`, if any.
    pub fn slot_state(&self, line: LineAddr) -> Option<SlotState> {
        self.find(line).map(|slot| self.states[slot])
    }

    /// The occupied slot holding `line`. Lines are unique among occupied
    /// slots, so one branch-free pass over the lane finds it.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        let hit = self.lines[..self.len]
            .iter()
            .enumerate()
            .fold(NIL, |hit, (slot, &l)| if l == line.0 { slot } else { hit });
        (hit != NIL).then_some(hit)
    }

    /// Pushes one request, applying dedup / hoisting / overflow rules.
    pub fn push(&mut self, req: PrefetchRequest) {
        if let Some(slot) = self.find(req.line) {
            match self.states[slot] {
                SlotState::Waiting => {
                    // Hoist the existing entry to the head.
                    self.recency.move_to_front(slot);
                    self.waiting.move_to_front(slot);
                    self.stats.hoisted += 1;
                }
                SlotState::Issued | SlotState::Invalid => {
                    self.stats.dropped_record += 1;
                }
            }
            return;
        }
        let slot = if self.len < self.lines.len() {
            self.len += 1;
            self.len - 1
        } else {
            self.reclaim()
        };
        self.lines[slot] = req.line.0;
        self.reqs[slot] = req;
        self.states[slot] = SlotState::Waiting;
        self.recency.push_front(slot);
        self.waiting.push_front(slot);
        self.n_waiting += 1;
        self.stats.pushed += 1;
    }

    /// Frees a slot of the full queue for a new request: the oldest record
    /// first; only drop a real (waiting) prefetch — the oldest — when no
    /// record remains.
    fn reclaim(&mut self) -> usize {
        if self.n_waiting == self.len {
            // Every slot waits, so the oldest slot is the oldest waiting one.
            let slot = self.recency.tail;
            self.recency.unlink(slot);
            self.waiting.unlink(slot);
            self.n_waiting -= 1;
            self.stats.dropped_overflow += 1;
            return slot;
        }
        // A record exists: walk back from the oldest slot past waiting ones.
        let mut slot = self.recency.tail;
        while self.states[slot] == SlotState::Waiting {
            slot = self.recency.links[slot].0;
        }
        self.recency.unlink(slot);
        slot
    }

    /// Pushes a batch whose order is *issue-priority* order: `batch[0]`
    /// will be issued first (the batch is enqueued back-to-front so LIFO
    /// issue preserves the intended priority).
    pub fn push_batch(&mut self, batch: &[PrefetchRequest]) {
        for req in batch.iter().rev() {
            self.push(*req);
        }
    }

    /// Takes the highest-priority waiting prefetch for issue, leaving an
    /// issued record behind.
    pub fn pop_issue(&mut self) -> Option<PrefetchRequest> {
        let slot = self.waiting.head;
        if slot == NIL {
            return None;
        }
        self.waiting.unlink(slot);
        self.n_waiting -= 1;
        self.states[slot] = SlotState::Issued;
        self.stats.issued += 1;
        Some(self.reqs[slot])
    }

    /// A demand fetch of `line` occurred: invalidate matching waiting
    /// entries (the prefetch is now pointless — the miss already happened).
    pub fn on_demand_fetch(&mut self, line: LineAddr) {
        if self.n_waiting == 0 {
            return;
        }
        if let Some(slot) = self.find(line) {
            if self.states[slot] == SlotState::Waiting {
                self.states[slot] = SlotState::Invalid;
                self.waiting.unlink(slot);
                self.n_waiting -= 1;
                self.stats.invalidated += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PrefetchSource;

    fn req(l: u64) -> PrefetchRequest {
        PrefetchRequest::sequential(LineAddr(l))
    }

    #[test]
    fn lifo_issue_order_for_separate_pushes() {
        let mut q = PrefetchQueue::new(8);
        q.push(req(1));
        q.push(req(2));
        q.push(req(3));
        // Last in, first out.
        assert_eq!(q.pop_issue().unwrap().line, LineAddr(3));
        assert_eq!(q.pop_issue().unwrap().line, LineAddr(2));
        assert_eq!(q.pop_issue().unwrap().line, LineAddr(1));
        assert!(q.pop_issue().is_none());
    }

    #[test]
    fn batch_preserves_priority_order() {
        let mut q = PrefetchQueue::new(8);
        q.push_batch(&[req(10), req(11), req(12)]);
        assert_eq!(q.pop_issue().unwrap().line, LineAddr(10));
        assert_eq!(q.pop_issue().unwrap().line, LineAddr(11));
        assert_eq!(q.pop_issue().unwrap().line, LineAddr(12));
    }

    #[test]
    fn duplicate_of_waiting_hoists() {
        let mut q = PrefetchQueue::new(8);
        q.push(req(1));
        q.push(req(2));
        q.push(req(1)); // hoist 1 above 2
        assert_eq!(q.pop_issue().unwrap().line, LineAddr(1));
        assert_eq!(q.pop_issue().unwrap().line, LineAddr(2));
        assert_eq!(q.stats().hoisted, 1);
        assert_eq!(q.stats().pushed, 2);
    }

    #[test]
    fn duplicate_of_issued_is_dropped() {
        let mut q = PrefetchQueue::new(8);
        q.push(req(1));
        q.pop_issue();
        q.push(req(1));
        assert!(q.pop_issue().is_none());
        assert_eq!(q.stats().dropped_record, 1);
    }

    #[test]
    fn duplicate_of_invalidated_is_dropped() {
        let mut q = PrefetchQueue::new(8);
        q.push(req(1));
        q.on_demand_fetch(LineAddr(1));
        assert_eq!(q.slot_state(LineAddr(1)), Some(SlotState::Invalid));
        q.push(req(1));
        assert!(q.pop_issue().is_none());
        assert_eq!(q.stats().invalidated, 1);
        assert_eq!(q.stats().dropped_record, 1);
    }

    #[test]
    fn overflow_reclaims_records_before_dropping_waiting() {
        let mut q = PrefetchQueue::new(3);
        q.push(req(1));
        q.pop_issue(); // slot 1 becomes a record
        q.push(req(2));
        q.push(req(3));
        // Queue full: [3, 2, record(1)]. Pushing 4 reclaims the record.
        q.push(req(4));
        assert_eq!(q.stats().dropped_overflow, 0);
        assert!(q.slot_state(LineAddr(1)).is_none());
        // Now full of waiting entries; pushing 5 drops the oldest (2).
        q.push(req(5));
        assert_eq!(q.stats().dropped_overflow, 1);
        assert!(q.slot_state(LineAddr(2)).is_none());
        assert_eq!(q.waiting(), 3);
    }

    #[test]
    fn no_duplicates_invariant() {
        let mut q = PrefetchQueue::new(4);
        for _ in 0..10 {
            q.push(req(7));
        }
        assert_eq!(q.waiting(), 1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        PrefetchQueue::new(0);
    }

    #[test]
    fn capacity_one_queue() {
        let mut q = PrefetchQueue::new(1);
        q.push(req(1));
        q.push(req(2)); // full of waiting entries: drops 1
        assert_eq!(q.stats().dropped_overflow, 1);
        assert!(q.slot_state(LineAddr(1)).is_none());
        assert_eq!(q.pop_issue().unwrap().line, LineAddr(2));
        q.push(req(2)); // dedups against its own record
        assert_eq!(q.stats().dropped_record, 1);
        q.push(req(3)); // reclaims the record, no overflow
        assert_eq!(q.stats().dropped_overflow, 1);
        assert!(q.slot_state(LineAddr(2)).is_none());
        q.on_demand_fetch(LineAddr(3));
        assert_eq!(q.slot_state(LineAddr(3)), Some(SlotState::Invalid));
        assert_eq!(q.waiting(), 0);
        assert!(q.pop_issue().is_none());
    }

    #[test]
    fn reuse_after_clear_matches_a_fresh_queue() {
        let ops = |q: &mut PrefetchQueue| {
            q.push_batch(&[req(1), req(2), req(3)]);
            q.on_demand_fetch(LineAddr(2));
            let first = q.pop_issue();
            q.push(req(4));
            q.push(req(1));
            (first, q.pop_issue(), q.pop_issue(), q.waiting())
        };
        let mut q = PrefetchQueue::new(3);
        ops(&mut q);
        q.clear();
        assert_eq!(*q.stats(), QueueStats::default());
        assert_eq!(q.waiting(), 0);
        assert!(q.pop_issue().is_none());
        for l in 1..=4 {
            assert!(q.slot_state(LineAddr(l)).is_none());
        }
        let mut fresh = PrefetchQueue::new(3);
        assert_eq!(ops(&mut q), ops(&mut fresh));
        assert_eq!(q.stats(), fresh.stats());
    }

    #[test]
    fn source_metadata_round_trips() {
        let mut q = PrefetchQueue::new(4);
        q.push(PrefetchRequest::new(
            LineAddr(9),
            PrefetchSource::Discontinuity { table_index: 5 },
        ));
        let out = q.pop_issue().unwrap();
        assert_eq!(out.source, PrefetchSource::Discontinuity { table_index: 5 });
    }
}
