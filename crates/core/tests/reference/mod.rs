//! Reference models for the differential tests in `properties.rs`: the
//! prefetch queue as a `VecDeque` of slots searched linearly, the
//! recent-fetch filter as a `%`-wrapped ring, and the discontinuity table
//! as a vector of `Option<Entry>`. They are the implementations
//! `ipsim-core` used before its dense-lane layouts, kept unchanged apart
//! from their type-level documentation. `SlotState` and `QueueStats` come
//! from the crate so results compare directly.

use std::collections::VecDeque;

use ipsim_core::{PrefetchRequest, QueueStats, SlotState};
use ipsim_types::LineAddr;

#[derive(Debug, Clone, Copy)]
struct Slot {
    req: PrefetchRequest,
    state: SlotState,
}

/// The reference prefetch queue: front = head (most recent).
#[derive(Debug, Clone)]
pub struct PrefetchQueue {
    /// Front = head (most recent / highest priority).
    slots: VecDeque<Slot>,
    capacity: usize,
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
            slots: VecDeque::with_capacity(capacity),
            capacity,
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
        self.slots.clear();
        self.stats = QueueStats::default();
    }

    /// Number of waiting (issuable) entries.
    pub fn waiting(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.state == SlotState::Waiting)
            .count()
    }

    /// The state of the slot holding `line`, if any.
    pub fn slot_state(&self, line: LineAddr) -> Option<SlotState> {
        self.slots
            .iter()
            .find(|s| s.req.line == line)
            .map(|s| s.state)
    }

    /// Pushes one request, applying dedup / hoisting / overflow rules.
    pub fn push(&mut self, req: PrefetchRequest) {
        if let Some(pos) = self.slots.iter().position(|s| s.req.line == req.line) {
            match self.slots[pos].state {
                SlotState::Waiting => {
                    // Hoist the existing entry to the head.
                    let slot = self.slots.remove(pos).expect("position exists");
                    self.slots.push_front(slot);
                    self.stats.hoisted += 1;
                }
                SlotState::Issued | SlotState::Invalid => {
                    self.stats.dropped_record += 1;
                }
            }
            return;
        }
        if self.slots.len() == self.capacity {
            // Reclaim the oldest record first; only drop a real (waiting)
            // prefetch — the oldest — when no record remains.
            if let Some(pos) = self
                .slots
                .iter()
                .rposition(|s| s.state != SlotState::Waiting)
            {
                self.slots.remove(pos);
            } else {
                self.slots.pop_back();
                self.stats.dropped_overflow += 1;
            }
        }
        self.slots.push_front(Slot {
            req,
            state: SlotState::Waiting,
        });
        self.stats.pushed += 1;
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
        let pos = self
            .slots
            .iter()
            .position(|s| s.state == SlotState::Waiting)?;
        self.slots[pos].state = SlotState::Issued;
        self.stats.issued += 1;
        Some(self.slots[pos].req)
    }

    /// A demand fetch of `line` occurred: invalidate matching waiting
    /// entries (the prefetch is now pointless — the miss already happened).
    pub fn on_demand_fetch(&mut self, line: LineAddr) {
        for s in &mut self.slots {
            if s.req.line == line && s.state == SlotState::Waiting {
                s.state = SlotState::Invalid;
                self.stats.invalidated += 1;
            }
        }
    }
}

/// The reference recent-fetch filter.
#[derive(Debug, Clone)]
pub struct RecentFetchFilter {
    ring: Vec<LineAddr>,
    head: usize,
    filled: usize,
}

impl RecentFetchFilter {
    /// Creates a filter remembering the last `capacity` demand fetches.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> RecentFetchFilter {
        assert!(capacity > 0, "filter capacity must be non-zero");
        RecentFetchFilter {
            ring: vec![LineAddr(u64::MAX); capacity],
            head: 0,
            filled: 0,
        }
    }

    /// Records a demand fetch. Consecutive duplicates are collapsed (the
    /// fetch stream revisits its current line constantly).
    pub fn record(&mut self, line: LineAddr) {
        if self.filled > 0 {
            let last = (self.head + self.ring.len() - 1) % self.ring.len();
            if self.ring[last] == line {
                return;
            }
        }
        self.ring[self.head] = line;
        self.head = (self.head + 1) % self.ring.len();
        self.filled = (self.filled + 1).min(self.ring.len());
    }

    /// Forgets every recorded fetch, restoring the state of a freshly
    /// built filter (run-reuse reset).
    pub fn clear(&mut self) {
        self.ring.fill(LineAddr(u64::MAX));
        self.head = 0;
        self.filled = 0;
    }

    /// `true` when `line` was among the recorded recent fetches.
    pub fn contains(&self, line: LineAddr) -> bool {
        // The ring is pre-filled with an unreachable sentinel line address,
        // so scanning every slot is safe before the ring fills.
        line.0 != u64::MAX && self.ring.contains(&line)
    }
}

/// Initial / maximum value of the 2-bit saturating eviction counter.
const COUNTER_MAX: u8 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    trigger: LineAddr,
    target: LineAddr,
    counter: u8,
}

/// The reference discontinuity table: direct-mapped, one optional entry
/// per slot.
#[derive(Debug, Clone)]
pub struct DiscontinuityTable {
    entries: Vec<Option<Entry>>,
    mask: u64,
    allocations: u64,
    rejections: u64,
}

impl DiscontinuityTable {
    /// Creates an empty table with `entries` slots (a power of two).
    pub fn new(entries: usize) -> DiscontinuityTable {
        assert!(
            entries > 0 && entries.is_power_of_two(),
            "table entries must be a non-zero power of two"
        );
        DiscontinuityTable {
            entries: vec![None; entries],
            mask: entries as u64 - 1,
            allocations: 0,
            rejections: 0,
        }
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Successful allocations so far.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Rejected allocation attempts so far.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    fn index(&self, trigger: LineAddr) -> usize {
        (trigger.0 & self.mask) as usize
    }

    /// `(target, table_index)` for a hit on `trigger`.
    pub fn lookup(&self, trigger: LineAddr) -> Option<(LineAddr, u32)> {
        let idx = self.index(trigger);
        match &self.entries[idx] {
            Some(e) if e.trigger == trigger => Some((e.target, idx as u32)),
            _ => None,
        }
    }

    /// Inserts `trigger → target`, fighting an incumbent's counter.
    pub fn allocate(&mut self, trigger: LineAddr, target: LineAddr) -> bool {
        let idx = self.index(trigger);
        match &mut self.entries[idx] {
            slot @ None => {
                *slot = Some(Entry {
                    trigger,
                    target,
                    counter: COUNTER_MAX,
                });
                self.allocations += 1;
                true
            }
            Some(e) if e.trigger == trigger && e.target == target => true,
            Some(e) => {
                if e.counter == 0 {
                    *e = Entry {
                        trigger,
                        target,
                        counter: COUNTER_MAX,
                    };
                    self.allocations += 1;
                    true
                } else {
                    e.counter -= 1;
                    self.rejections += 1;
                    false
                }
            }
        }
    }

    /// Saturating increment of the entry at `table_index`.
    pub fn reinforce(&mut self, table_index: u32) {
        if let Some(Some(e)) = self.entries.get_mut(table_index as usize) {
            e.counter = (e.counter + 1).min(COUNTER_MAX);
        }
    }

    /// Saturating decrement of the entry at `table_index`.
    pub fn weaken(&mut self, table_index: u32) {
        if let Some(Some(e)) = self.entries.get_mut(table_index as usize) {
            e.counter = e.counter.saturating_sub(1);
        }
    }

    /// The counter of the entry at `table_index`, if valid.
    pub fn confidence(&self, table_index: u32) -> Option<u8> {
        self.entries
            .get(table_index as usize)
            .and_then(|e| e.as_ref())
            .map(|e| e.counter)
    }
}
