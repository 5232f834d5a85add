//! The core's prefetch attribution table: a bounded open-addressed map
//! from each in-flight or resident prefetched line to the source that
//! generated it and the zoo slot of the scheme that issued it.
//!
//! A `HashMap` would be correct, but it allocates (and SipHashes) on the
//! hottest prefetch paths, and its capacity is unbounded even though the
//! key set provably is not — an attribution exists only while its line is
//! in the instruction MSHR or resident in the L1I, so at most
//! `l1i_lines + mshr_entries` entries can be live at once.
//!
//! This table exploits that bound: a fixed power-of-two slot array sized
//! at 2× the worst case (≤50% load factor), multiplicative hashing, linear
//! probing with backward-shift deletion (no tombstones). After
//! construction it never allocates. The bound doubles as a leak detector:
//! if an attribution were ever *not* reclaimed when its line left the
//! L1I/MSHR, the table would eventually overflow and panic instead of
//! silently growing the way a `HashMap` would.

use ipsim_core::PrefetchSource;
use ipsim_types::LineAddr;

/// Sentinel marking an empty slot.
const EMPTY: LineAddr = LineAddr(u64::MAX);

/// Fixed-capacity open-addressed map from line address to a small `Copy`
/// attribution value.
#[derive(Debug)]
pub(crate) struct ShadowTable<V: Copy> {
    lines: Box<[LineAddr]>,
    values: Box<[V]>,
    mask: usize,
    len: usize,
}

impl<V: Copy> ShadowTable<V> {
    /// A table guaranteed to hold `max_live` simultaneous attributions.
    /// Capacity is the next power of two of `2 * max_live`, keeping the
    /// load factor at or below 50%; a bound of zero allocates no slots
    /// (every lookup misses and any insert panics). `fill` initialises
    /// the value lanes (never observable — an empty slot holds the
    /// sentinel line).
    pub fn with_bound(max_live: usize, fill: V) -> ShadowTable<V> {
        let capacity = if max_live == 0 {
            0
        } else {
            (2 * max_live).next_power_of_two()
        };
        ShadowTable {
            lines: vec![EMPTY; capacity].into_boxed_slice(),
            values: vec![fill; capacity].into_boxed_slice(),
            mask: capacity.wrapping_sub(1),
            len: 0,
        }
    }

    /// Live attributions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Total slots (fixed at construction).
    pub fn capacity(&self) -> usize {
        self.lines.len()
    }

    #[inline]
    fn ideal(&self, line: LineAddr) -> usize {
        // Fibonacci multiplicative hash: line addresses are low-entropy in
        // the low bits (sequential streams), so mix before masking.
        (line.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.mask
    }

    #[inline]
    fn is_empty_slot(&self, slot: usize) -> bool {
        self.lines[slot] == EMPTY
    }

    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        if self.len == 0 {
            // Nothing to find, and a slotless table has no slot to probe.
            return None;
        }
        let mut slot = self.ideal(line);
        loop {
            if self.is_empty_slot(slot) {
                return None;
            }
            if self.lines[slot] == line {
                return Some(slot);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Inserts (or overwrites) the attribution for `line`.
    pub fn insert(&mut self, line: LineAddr, value: V) {
        debug_assert_ne!(line, EMPTY, "attributing the sentinel line");
        assert!(
            self.len < self.capacity(),
            "shadow-attribution table overflow: the liveness bound was \
             violated (attribution leak)"
        );
        let mut slot = self.ideal(line);
        loop {
            if self.is_empty_slot(slot) {
                self.lines[slot] = line;
                self.values[slot] = value;
                self.len += 1;
                return;
            }
            if self.lines[slot] == line {
                self.values[slot] = value;
                return;
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Looks up the attribution for `line` without removing it. Used on
    /// first demand use, where the attribution must survive until the
    /// line leaves the L1I so its eviction can still be classified.
    pub fn get(&self, line: LineAddr) -> Option<V> {
        self.find(line).map(|slot| self.values[slot])
    }

    /// Removes and returns the attribution for `line`, if present.
    ///
    /// Uses backward-shift deletion: members of the probe cluster after the
    /// hole slide back if their ideal slot precedes the hole, so probe
    /// chains stay contiguous without tombstones.
    pub fn remove(&mut self, line: LineAddr) -> Option<V> {
        let mut hole = self.find(line)?;
        let value = self.values[hole];
        self.len -= 1;
        let mut probe = hole;
        loop {
            probe = (probe + 1) & self.mask;
            if self.is_empty_slot(probe) {
                break;
            }
            let ideal = self.ideal(self.lines[probe]);
            // `probe` may fill the hole iff its probe walk from `ideal`
            // passes through the hole (cyclic distance comparison).
            if (probe.wrapping_sub(ideal) & self.mask) >= (probe.wrapping_sub(hole) & self.mask) {
                self.lines[hole] = self.lines[probe];
                self.values[hole] = self.values[probe];
                hole = probe;
            }
        }
        self.lines[hole] = EMPTY;
        Some(value)
    }
}

/// Fixed-capacity map from line address to the prefetch source that
/// fetched it and the zoo slot of the scheme that issued the request.
pub(crate) type PfSourceTable = ShadowTable<(PrefetchSource, u8)>;

/// The attribution table of a core whose zoo can (`prefetches`) or never
/// can issue a request: room for `max_live` simultaneous attributions, or
/// no slots for a zoo that never prefetches, so never attributes a line.
pub(crate) fn pf_source_table(max_live: usize, prefetches: bool) -> PfSourceTable {
    let bound = if prefetches { max_live } else { 0 };
    ShadowTable::with_bound(bound, (PrefetchSource::Sequential, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn insert_remove_round_trip() {
        let mut t = ShadowTable::with_bound(8, 0u32);
        t.insert(LineAddr(10), 1);
        t.insert(LineAddr(20), 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.remove(LineAddr(10)), Some(1));
        assert_eq!(t.remove(LineAddr(10)), None);
        assert_eq!(t.remove(LineAddr(20)), Some(2));
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn get_does_not_remove() {
        let mut t = ShadowTable::with_bound(8, 0u32);
        t.insert(LineAddr(10), 1);
        assert_eq!(t.get(LineAddr(10)), Some(1));
        assert_eq!(t.get(LineAddr(11)), None);
        assert_eq!(t.len(), 1, "get must not disturb occupancy");
        assert_eq!(t.remove(LineAddr(10)), Some(1));
    }

    #[test]
    fn insert_overwrites_existing_line() {
        let mut t = ShadowTable::with_bound(8, 0u32);
        t.insert(LineAddr(10), 1);
        t.insert(LineAddr(10), 9);
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(LineAddr(10)), Some(9));
    }

    #[test]
    fn a_zero_bound_allocates_no_slots_and_finds_nothing() {
        let mut t = pf_source_table(8, false);
        assert_eq!((t.len(), t.capacity()), (0, 0));
        assert_eq!(t.get(LineAddr(7)), None);
        assert_eq!(t.remove(LineAddr(7)), None);
        assert_eq!(pf_source_table(8, true).capacity(), 16);
    }

    #[test]
    #[should_panic(expected = "shadow-attribution table overflow")]
    fn inserting_into_a_slotless_table_panics() {
        ShadowTable::with_bound(0, 0u32).insert(LineAddr(1), 0);
    }

    #[test]
    #[should_panic(expected = "shadow-attribution table overflow")]
    fn overflow_panics_instead_of_growing() {
        let mut t = ShadowTable::with_bound(2, 0u32);
        for l in 0..=t.capacity() as u64 {
            t.insert(LineAddr(l), 0);
        }
    }

    /// Backward-shift deletion keeps probe chains intact under arbitrary
    /// colliding insert/remove interleavings: the table must always agree
    /// with a `HashMap` reference.
    #[test]
    fn matches_hashmap_reference_under_churn() {
        let mut t = ShadowTable::with_bound(32, 0u32);
        let mut re: HashMap<u64, u32> = HashMap::new();
        // Deterministic pseudo-random walk; keys deliberately span many
        // multiples of the capacity so probe clusters form.
        let mut x = 0x12345678u64;
        for step in 0..10_000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = x % 96;
            if step % 3 == 0 || re.len() >= 32 {
                assert_eq!(t.remove(LineAddr(key)), re.remove(&key), "remove {key}");
            } else {
                t.insert(LineAddr(key), step);
                re.insert(key, step);
            }
            assert_eq!(t.len(), re.len());
        }
        for (&key, &want) in &re {
            assert_eq!(t.remove(LineAddr(key)), Some(want), "final drain {key}");
        }
        assert_eq!(t.len(), 0);
    }
}
