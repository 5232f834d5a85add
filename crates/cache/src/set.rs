//! Flat, data-oriented storage for a cache's sets.
//!
//! Instead of one `Vec<Entry>` per set (a pointer chase per access plus
//! `remove`/`insert(0)` memmoves to maintain list-order LRU), every set in
//! the cache lives in three contiguous lanes sized `n_sets * ways`:
//!
//! * `lines`  — full line addresses ([`INVALID_LINE`] marks an empty way),
//! * `flags`  — per-line bookkeeping bits (prefetched / used / dirty),
//! * `stamps` — each way's LRU stamp, drawn from its set's clock,
//!
//! plus one byte per set, `clocks`: the last stamp the set handed out. A
//! set is the slice `[set * ways, set * ways + ways)` of each lane, so a
//! slot costs 10 bytes and a set one more (a 2 MB 4-way L2 of 64-byte
//! lines: 328 KiB).
//!
//! A hit promotes by taking its set's next stamp (two stores, no data
//! movement); the eviction victim is the valid way with the minimum
//! stamp. Within a set every promotion takes a stamp larger than any
//! before it, so stamp order is exactly the recency order the old list
//! kept. When a set's clock reaches `u8::MAX`, its valid ways are
//! renumbered `0..valid` in stamp order and the clock restarts at
//! `valid - 1`: the order, and so every victim, is unchanged. The victim
//! choice (and therefore every simulated figure) is bit-for-bit list-LRU's,
//! which `tests/properties.rs` proves against a list-based reference
//! model at 1 to 16 ways, and the unit tests across many renumberings.

use ipsim_types::LineAddr;

/// Sentinel marking an empty way. Real line addresses come from realistic
/// PC/target ranges and never reach `u64::MAX` (the recent-fetch filter in
/// `ipsim-core` relies on the same convention).
pub(crate) const INVALID_LINE: LineAddr = LineAddr(u64::MAX);

/// Line was brought in by a prefetch (any level) rather than a demand miss.
pub(crate) const FLAG_PREFETCHED: u8 = 1 << 0;
/// Line was demand-referenced since it was filled.
pub(crate) const FLAG_USED: u8 = 1 << 1;
/// Line was written since it was filled.
pub(crate) const FLAG_DIRTY: u8 = 1 << 2;

/// Where a fill should go, from one fused scan of the set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FillSlot {
    /// The line is already resident at this slot (redundant fill).
    Resident(usize),
    /// The set has a free way at this slot.
    Vacant(usize),
    /// The set is full; this slot holds the LRU victim (the minimum
    /// stamp).
    Evict(usize),
}

/// All sets of one cache, stored as struct-of-arrays lanes.
#[derive(Debug, Clone)]
pub(crate) struct FlatSets {
    lines: Box<[LineAddr]>,
    flags: Box<[u8]>,
    stamps: Box<[u8]>,
    clocks: Box<[u8]>,
    ways: usize,
}

impl FlatSets {
    /// `n_sets` empty sets of `ways` ways each.
    ///
    /// # Panics
    ///
    /// Panics if `ways` exceeds the bits of the one-word way masks `find`
    /// builds (`CacheConfig::new` rejects such geometries); renumbering
    /// then always leaves a set's clock room below `u8::MAX`.
    pub(crate) fn new(n_sets: usize, ways: usize) -> FlatSets {
        assert!(
            ways <= usize::BITS as usize,
            "{ways} ways exceed a way mask"
        );
        let slots = n_sets * ways;
        FlatSets {
            lines: vec![INVALID_LINE; slots].into_boxed_slice(),
            flags: vec![0u8; slots].into_boxed_slice(),
            stamps: vec![0u8; slots].into_boxed_slice(),
            clocks: vec![0u8; n_sets].into_boxed_slice(),
            ways,
        }
    }
    /// The line resident at `slot` ([`INVALID_LINE`] if the way is empty).
    #[inline]
    pub(crate) fn line(&self, slot: usize) -> LineAddr {
        self.lines[slot]
    }

    /// The flag bits of the line at `slot`.
    #[inline]
    pub(crate) fn flags(&self, slot: usize) -> u8 {
        self.flags[slot]
    }

    /// Overwrites the flag bits of the line at `slot`.
    #[inline]
    pub(crate) fn set_flags(&mut self, slot: usize, flags: u8) {
        self.flags[slot] = flags;
    }

    /// Finds `line` in `set` without touching LRU order (tag probe).
    ///
    /// Compares every way's tag in one pass with no early exit: a line is
    /// resident in at most one way, so the match mask has at most one bit
    /// set. The ubiquitous 4-way geometry (every cache and TLB preset)
    /// gets a fixed-shape compare tree — four independent compares OR-ed
    /// into a mask, no loop, no loop-carried select; other widths take
    /// the equivalent scan.
    #[inline]
    pub(crate) fn find(&self, set: usize, line: LineAddr) -> Option<usize> {
        let base = set * self.ways;
        let lane = &self.lines[base..base + self.ways];
        if let &[a, b, c, d] = lane {
            let mask = usize::from(a == line)
                | usize::from(b == line) << 1
                | usize::from(c == line) << 2
                | usize::from(d == line) << 3;
            return (mask != 0).then(|| base + mask.trailing_zeros() as usize);
        }
        let mut mask = 0usize;
        for (w, &resident) in lane.iter().enumerate() {
            mask |= usize::from(resident == line) << w;
        }
        (mask != 0).then(|| base + mask.trailing_zeros() as usize)
    }

    /// Empties every set and restarts every set's clock — exactly the
    /// state of a freshly built [`FlatSets`], with the lane allocations
    /// kept.
    pub(crate) fn clear(&mut self) {
        self.lines.fill(INVALID_LINE);
        self.flags.fill(0);
        self.stamps.fill(0);
        self.clocks.fill(0);
    }

    /// Finds `line` in `set` and promotes it to MRU, returning its slot.
    #[inline]
    pub(crate) fn touch(&mut self, set: usize, line: LineAddr) -> Option<usize> {
        let slot = self.find(set, line)?;
        self.promote(set, slot);
        Some(slot)
    }

    /// Stamps `slot`, a valid way of `set`, as the set's most recently
    /// used way.
    #[inline]
    pub(crate) fn promote(&mut self, set: usize, slot: usize) {
        let clock = self.clocks[set] + 1;
        self.clocks[set] = clock;
        self.stamps[slot] = clock;
        if clock == u8::MAX {
            self.renumber(set);
        }
    }

    /// Renumbers `set`'s valid ways `0..valid` in stamp order and restarts
    /// its clock at the highest of them: at most once per `256 - ways`
    /// promotions of the set.
    #[cold]
    #[inline(never)]
    fn renumber(&mut self, set: usize) {
        let base = set * self.ways;
        let lines = &self.lines[base..base + self.ways];
        let stamps = &mut self.stamps[base..base + self.ways];
        let mut old = [0u8; usize::BITS as usize];
        let old = &mut old[..self.ways];
        old.copy_from_slice(stamps);
        let valid = |w: usize| lines[w] != INVALID_LINE;
        let mut n_valid = 0;
        for w in (0..self.ways).filter(|&w| valid(w)) {
            n_valid += 1;
            stamps[w] = (0..self.ways)
                .filter(|&v| valid(v) && old[v] < old[w])
                .count() as u8;
        }
        debug_assert!(n_valid > 0, "renumbering a set with no valid way");
        self.clocks[set] = n_valid - 1;
    }

    /// One fused scan deciding where a fill of `line` lands: resident hit,
    /// first vacant way, or the minimum-stamp (LRU) victim.
    #[inline]
    pub(crate) fn locate_for_fill(&self, set: usize, line: LineAddr) -> FillSlot {
        let base = set * self.ways;
        let mut vacant = usize::MAX;
        let mut lru_slot = base;
        let mut lru_stamp = u8::MAX;
        for slot in base..base + self.ways {
            let resident = self.lines[slot];
            if resident == line {
                return FillSlot::Resident(slot);
            }
            if resident == INVALID_LINE {
                if vacant == usize::MAX {
                    vacant = slot;
                }
            } else if self.stamps[slot] < lru_stamp {
                lru_stamp = self.stamps[slot];
                lru_slot = slot;
            }
        }
        if vacant != usize::MAX {
            FillSlot::Vacant(vacant)
        } else {
            FillSlot::Evict(lru_slot)
        }
    }

    /// Writes `line` with `flags` into `slot`, a way of `set`, and stamps
    /// it MRU. The previous occupant (if any) is simply overwritten — the
    /// caller reads victim state out of the lanes first.
    #[inline]
    pub(crate) fn install(&mut self, set: usize, slot: usize, line: LineAddr, flags: u8) {
        debug_assert_ne!(line, INVALID_LINE, "installing the sentinel line");
        self.lines[slot] = line;
        self.flags[slot] = flags;
        self.promote(set, slot);
    }

    /// Removes `line` from `set` if resident, returning its flag bits.
    pub(crate) fn invalidate(&mut self, set: usize, line: LineAddr) -> Option<u8> {
        let slot = self.find(set, line)?;
        let flags = self.flags[slot];
        self.lines[slot] = INVALID_LINE;
        self.flags[slot] = 0;
        Some(flags)
    }

    /// Number of resident lines across all sets.
    pub(crate) fn resident(&self) -> usize {
        self.lines.iter().filter(|&&l| l != INVALID_LINE).count()
    }

    /// Iterates all resident lines with their flags (diagnostics / tests).
    pub(crate) fn iter_resident(&self) -> impl Iterator<Item = (LineAddr, u8)> + '_ {
        self.lines
            .iter()
            .zip(self.flags.iter())
            .filter(|(&l, _)| l != INVALID_LINE)
            .map(|(&l, &f)| (l, f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsim_types::Rng64;

    /// Fills `line` into set 0 the way the cache does, returning the
    /// evicted line (if any).
    fn insert(s: &mut FlatSets, line: u64) -> Option<LineAddr> {
        match s.locate_for_fill(0, LineAddr(line)) {
            FillSlot::Resident(_) => panic!("line {line} already resident"),
            FillSlot::Vacant(slot) => {
                s.install(0, slot, LineAddr(line), 0);
                None
            }
            FillSlot::Evict(slot) => {
                let victim = s.line(slot);
                s.install(0, slot, LineAddr(line), 0);
                Some(victim)
            }
        }
    }

    #[test]
    fn insert_until_full_then_evict_lru() {
        let mut s = FlatSets::new(1, 2);
        assert_eq!(insert(&mut s, 1), None);
        assert_eq!(insert(&mut s, 2), None);
        // 2 is MRU, 1 is LRU; inserting 3 evicts 1.
        assert_eq!(insert(&mut s, 3), Some(LineAddr(1)));
        assert_eq!(s.resident(), 2);
    }

    #[test]
    fn touch_promotes_to_mru() {
        let mut s = FlatSets::new(1, 2);
        insert(&mut s, 1);
        insert(&mut s, 2);
        s.touch(0, LineAddr(1)).unwrap();
        // Now 2 is LRU.
        assert_eq!(insert(&mut s, 3), Some(LineAddr(2)));
    }

    #[test]
    fn find_does_not_promote() {
        let mut s = FlatSets::new(1, 2);
        insert(&mut s, 1);
        insert(&mut s, 2);
        assert!(s.find(0, LineAddr(1)).is_some());
        assert_eq!(
            insert(&mut s, 3),
            Some(LineAddr(1)),
            "find must not promote"
        );
    }

    #[test]
    fn invalidate_removes_and_frees_the_way() {
        let mut s = FlatSets::new(1, 4);
        insert(&mut s, 1);
        insert(&mut s, 2);
        assert!(s.invalidate(0, LineAddr(1)).is_some());
        assert!(s.find(0, LineAddr(1)).is_none());
        assert!(s.invalidate(0, LineAddr(1)).is_none());
        assert_eq!(s.resident(), 1);
        // The freed way is reused without evicting anyone.
        assert_eq!(insert(&mut s, 3), None);
    }

    #[test]
    fn direct_mapped_set_replaces_immediately() {
        let mut s = FlatSets::new(1, 1);
        insert(&mut s, 1);
        assert_eq!(insert(&mut s, 2), Some(LineAddr(1)));
    }

    /// Thousands of promotions per set, so every set's clock wraps and
    /// renumbers many times: after each operation the valid ways' stamps
    /// are distinct and no later than their set's clock, and every fill
    /// evicts the line a list-LRU reference evicts.
    #[test]
    fn renumbering_keeps_the_lru_order() {
        for ways in [1, 2, 4, 8, 16] {
            let mut s = FlatSets::new(2, ways);
            let mut lists: [Vec<LineAddr>; 2] = Default::default();
            let mut rng = Rng64::new(ways as u64);
            for _ in 0..20_000 {
                let line = LineAddr(rng.range(3 * ways as u64));
                let set = (line.0 & 1) as usize;
                let list = &mut lists[set];
                let listed = list.iter().position(|&l| l == line);
                match rng.range(4) {
                    0 => {
                        assert_eq!(s.invalidate(set, line).is_some(), listed.is_some());
                        listed.map(|at| list.remove(at));
                    }
                    1 => {
                        assert_eq!(s.touch(set, line).is_some(), listed.is_some());
                        if let Some(at) = listed {
                            list.remove(at);
                            list.insert(0, line);
                        }
                    }
                    _ => {
                        match s.locate_for_fill(set, line) {
                            FillSlot::Resident(slot) => s.promote(set, slot),
                            FillSlot::Vacant(slot) => s.install(set, slot, line, 0),
                            FillSlot::Evict(slot) => {
                                assert_eq!(Some(s.line(slot)), list.pop(), "{ways} ways");
                                s.install(set, slot, line, 0);
                            }
                        }
                        if let Some(at) = list.iter().position(|&l| l == line) {
                            list.remove(at);
                        }
                        list.insert(0, line);
                    }
                }
                for (set, list) in lists.iter().enumerate() {
                    let base = set * ways;
                    let mut stamps: Vec<u8> = (base..base + ways)
                        .filter(|&w| s.line(w) != INVALID_LINE)
                        .map(|w| s.stamps[w])
                        .collect();
                    assert_eq!(stamps.len(), list.len());
                    stamps.sort_unstable();
                    stamps.dedup();
                    assert_eq!(stamps.len(), list.len(), "{ways} ways: stamps collide");
                    assert!(stamps.iter().all(|&t| t <= s.clocks[set]));
                }
            }
        }
    }

    #[test]
    fn flags_round_trip() {
        let mut s = FlatSets::new(1, 2);
        let slot = match s.locate_for_fill(0, LineAddr(7)) {
            FillSlot::Vacant(slot) => slot,
            _ => unreachable!(),
        };
        s.install(0, slot, LineAddr(7), FLAG_PREFETCHED);
        assert_eq!(s.flags(slot), FLAG_PREFETCHED);
        s.set_flags(slot, FLAG_PREFETCHED | FLAG_USED | FLAG_DIRTY);
        assert_eq!(s.invalidate(0, LineAddr(7)), Some(0b111));
    }
}
