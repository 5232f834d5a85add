//! The discontinuity prediction table (Section 4 of the paper).

use ipsim_types::LineAddr;

/// Initial / maximum value of the 2-bit saturating eviction counter.
const COUNTER_MAX: u8 = 3;

/// Trigger lane value of an empty slot. Line addresses come from
/// PC/target ranges and never reach `u64::MAX` (the cache and the
/// recent-fetch filter use the same sentinel).
const EMPTY: u64 = u64::MAX;

/// Direct-mapped table of fetch-stream discontinuities, one target per
/// entry.
///
/// The paper found that, at cache-line granularity, the vast majority of
/// discontinuity trigger lines have a *single* target, so a direct-mapped,
/// one-target-per-entry organisation suffices — substantially smaller than
/// multi-target predictors.
///
/// Each entry is a triggering line (the line the discontinuity departs
/// from), the observed target line and a 2-bit saturating *eviction*
/// counter: set to max on allocation, incremented when the entry's
/// prefetch proves useful, decremented by conflicting allocation attempts;
/// the entry may only be replaced when it reaches zero. This protects
/// useful entries from being thrashed by stray events. The three fields
/// are kept in separate lanes (17 bytes per entry), and an empty slot is
/// a trigger of `u64::MAX`.
///
/// # Examples
///
/// ```
/// use ipsim_core::DiscontinuityTable;
/// use ipsim_types::LineAddr;
///
/// let mut t = DiscontinuityTable::new(256);
/// t.allocate(LineAddr(100), LineAddr(9000));
/// assert_eq!(t.lookup(LineAddr(100)).map(|(tgt, _)| tgt), Some(LineAddr(9000)));
/// assert_eq!(t.lookup(LineAddr(101)), None);
/// ```
#[derive(Debug, Clone)]
pub struct DiscontinuityTable {
    triggers: Box<[u64]>,
    targets: Box<[u64]>,
    counters: Box<[u8]>,
    mask: u64,
    allocations: u64,
    rejections: u64,
}

impl DiscontinuityTable {
    /// Creates an empty table with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a non-zero power of two.
    pub fn new(entries: usize) -> DiscontinuityTable {
        assert!(
            entries > 0 && entries.is_power_of_two(),
            "table entries must be a non-zero power of two"
        );
        DiscontinuityTable {
            triggers: vec![EMPTY; entries].into_boxed_slice(),
            targets: vec![0; entries].into_boxed_slice(),
            counters: vec![0; entries].into_boxed_slice(),
            mask: entries as u64 - 1,
            allocations: 0,
            rejections: 0,
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.triggers.len()
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.triggers.iter().filter(|&&t| t != EMPTY).count()
    }

    /// Successful allocations so far.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Allocation attempts rejected because the incumbent's counter had not
    /// yet reached zero.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    #[inline]
    fn index(&self, trigger: LineAddr) -> usize {
        (trigger.0 & self.mask) as usize
    }

    /// The slot at `table_index` if it holds an entry.
    #[inline]
    fn occupied(&self, table_index: u32) -> Option<usize> {
        let idx = table_index as usize;
        self.triggers
            .get(idx)
            .is_some_and(|&t| t != EMPTY)
            .then_some(idx)
    }

    /// Looks up the predicted target for a discontinuity departing
    /// `trigger`, returning `(target, table_index)` on a hit.
    pub fn lookup(&self, trigger: LineAddr) -> Option<(LineAddr, u32)> {
        debug_assert_ne!(trigger.0, EMPTY, "looking up the empty-slot sentinel");
        let idx = self.index(trigger);
        (self.triggers[idx] == trigger.0).then(|| (LineAddr(self.targets[idx]), idx as u32))
    }

    /// Records that a discontinuity `trigger → target` caused an
    /// instruction cache miss, making it an insertion candidate.
    ///
    /// * Transition already present: nothing to do.
    /// * Slot empty: insert with the counter at its saturated maximum.
    /// * Slot held by a different transition: decrement the incumbent's
    ///   counter; replace it only if the counter has reached zero.
    ///
    /// Returns `true` if the transition is present afterwards.
    pub fn allocate(&mut self, trigger: LineAddr, target: LineAddr) -> bool {
        debug_assert_ne!(trigger.0, EMPTY, "allocating the empty-slot sentinel");
        let idx = self.index(trigger);
        let held = self.triggers[idx];
        if held == trigger.0 && self.targets[idx] == target.0 {
            return true;
        }
        if held != EMPTY && self.counters[idx] != 0 {
            self.counters[idx] -= 1;
            self.rejections += 1;
            return false;
        }
        self.triggers[idx] = trigger.0;
        self.targets[idx] = target.0;
        self.counters[idx] = COUNTER_MAX;
        self.allocations += 1;
        true
    }

    /// Reinforces the entry at `table_index`: its prediction produced a
    /// useful prefetch. Saturating increment.
    pub fn reinforce(&mut self, table_index: u32) {
        if let Some(idx) = self.occupied(table_index) {
            self.counters[idx] = (self.counters[idx] + 1).min(COUNTER_MAX);
        }
    }

    /// Weakens the entry at `table_index`: its prediction produced a
    /// prefetch that was evicted unused. Saturating decrement. Used by the
    /// confidence-gated variant (an extension in the spirit of Haga et
    /// al.'s confidence filtering; the paper's base design only decrements
    /// on allocation conflicts).
    pub fn weaken(&mut self, table_index: u32) {
        if let Some(idx) = self.occupied(table_index) {
            self.counters[idx] = self.counters[idx].saturating_sub(1);
        }
    }

    /// The confidence counter of the entry at `table_index`, if valid.
    pub fn confidence(&self, table_index: u32) -> Option<u8> {
        self.occupied(table_index).map(|idx| self.counters[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_lookup() {
        let mut t = DiscontinuityTable::new(16);
        assert!(t.allocate(LineAddr(1), LineAddr(100)));
        assert_eq!(t.lookup(LineAddr(1)), Some((LineAddr(100), 1)));
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn direct_mapping_conflicts_respect_counter() {
        let mut t = DiscontinuityTable::new(16);
        // Lines 1 and 17 collide in a 16-entry table.
        assert!(t.allocate(LineAddr(1), LineAddr(100)));
        // Counter starts at 3: three rejected attempts decrement to zero...
        assert!(!t.allocate(LineAddr(17), LineAddr(200)));
        assert!(!t.allocate(LineAddr(17), LineAddr(200)));
        assert!(!t.allocate(LineAddr(17), LineAddr(200)));
        // ...and the fourth replaces.
        assert!(t.allocate(LineAddr(17), LineAddr(200)));
        assert_eq!(t.lookup(LineAddr(17)), Some((LineAddr(200), 1)));
        assert_eq!(t.lookup(LineAddr(1)), None);
        assert_eq!(t.rejections(), 3);
        assert_eq!(t.allocations(), 2);
    }

    #[test]
    fn reinforce_protects_entry() {
        let mut t = DiscontinuityTable::new(16);
        t.allocate(LineAddr(1), LineAddr(100));
        // Wear it down by two...
        t.allocate(LineAddr(17), LineAddr(200));
        t.allocate(LineAddr(17), LineAddr(200));
        // ...then two useful prefetches restore it (saturating at 3).
        t.reinforce(1);
        t.reinforce(1);
        t.reinforce(1);
        for _ in 0..3 {
            assert!(!t.allocate(LineAddr(17), LineAddr(200)));
        }
        assert!(t.allocate(LineAddr(17), LineAddr(200)));
    }

    #[test]
    fn same_transition_is_idempotent() {
        let mut t = DiscontinuityTable::new(16);
        t.allocate(LineAddr(1), LineAddr(100));
        assert!(t.allocate(LineAddr(1), LineAddr(100)));
        assert_eq!(t.allocations(), 1);
        assert_eq!(t.rejections(), 0);
    }

    #[test]
    fn same_trigger_new_target_counts_as_conflict() {
        let mut t = DiscontinuityTable::new(16);
        t.allocate(LineAddr(1), LineAddr(100));
        // A different target for the same trigger line must also fight the
        // eviction counter (one-target-per-entry design).
        assert!(!t.allocate(LineAddr(1), LineAddr(300)));
        assert_eq!(t.lookup(LineAddr(1)), Some((LineAddr(100), 1)));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        DiscontinuityTable::new(100);
    }

    #[test]
    fn reinforce_out_of_range_is_ignored() {
        let mut t = DiscontinuityTable::new(4);
        t.reinforce(99); // must not panic
    }
}
