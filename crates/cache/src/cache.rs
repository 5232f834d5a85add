//! The set-associative cache model.

use ipsim_types::{CacheConfig, LineAddr};

use crate::set::{FillSlot, FlatSets, FLAG_DIRTY, FLAG_PREFETCHED, FLAG_USED};
use crate::stats::CacheStats;

/// Result of a demand access to a [`SetAssocCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The line was resident.
    Hit {
        /// `true` when the line was brought in by a prefetch and this is the
        /// first demand reference to it — the trigger condition for *tagged*
        /// sequential prefetching and the moment a prefetch becomes
        /// "useful" for accuracy accounting.
        first_use_of_prefetch: bool,
    },
    /// The line was not resident.
    Miss,
}

impl Access {
    /// `true` for any hit.
    pub fn is_hit(self) -> bool {
        matches!(self, Access::Hit { .. })
    }
}

/// Who is installing a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillKind {
    /// Fill triggered by a demand miss.
    Demand,
    /// Fill triggered by a prefetcher.
    Prefetch,
}

/// A line evicted by a fill, with the flags needed by the paper's selective
/// L2-install policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted line.
    pub line: LineAddr,
    /// It was originally brought in by a prefetch.
    pub prefetched: bool,
    /// It was demand-referenced while resident.
    pub used: bool,
    /// It was written while resident.
    pub dirty: bool,
}

impl Evicted {
    #[inline]
    fn from_lanes(line: LineAddr, flags: u8) -> Evicted {
        Evicted {
            line,
            prefetched: flags & FLAG_PREFETCHED != 0,
            used: flags & FLAG_USED != 0,
            dirty: flags & FLAG_DIRTY != 0,
        }
    }
}

/// An LRU set-associative cache over line addresses.
///
/// The cache stores no data — only presence and per-line flags — which is all
/// a trace-driven simulator needs. Storage is three flat lanes (lines, flags,
/// LRU stamps) covering every set contiguously, plus one stamp clock per
/// set; the private `set` module documents the layout and the argument
/// that stamp order reproduces list-LRU exactly.
/// See the crate docs for an example.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    sets: FlatSets,
    set_mask: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> SetAssocCache {
        let n_sets = config.sets() as usize;
        SetAssocCache {
            config,
            sets: FlatSets::new(n_sets, config.assoc() as usize),
            set_mask: n_sets as u64 - 1,
            stats: CacheStats::default(),
        }
    }

    /// This cache's geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Access statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the statistics (e.g. at the end of cache warm-up) without
    /// touching cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Empties the cache and zeroes its statistics, keeping the lane
    /// allocations — the state of a freshly built cache of the same
    /// geometry (the run-reuse seam relies on this equivalence).
    pub fn clear(&mut self) {
        self.sets.clear();
        self.stats = CacheStats::default();
    }

    #[inline]
    fn set_index(&self, line: LineAddr) -> usize {
        (line.0 & self.set_mask) as usize
    }

    /// A demand read access: updates LRU and the `used` flag, and counts in
    /// the statistics.
    pub fn access(&mut self, line: LineAddr) -> Access {
        self.access_inner(line, false)
    }

    /// A demand write access (stores): like [`SetAssocCache::access`] but
    /// also sets the `dirty` flag on a hit.
    pub fn access_write(&mut self, line: LineAddr) -> Access {
        self.access_inner(line, true)
    }

    /// A demand read access that only goes through on a hit.
    ///
    /// On a hit this is exactly [`SetAssocCache::access`]'s hit arm —
    /// counted, LRU-promoted, `used`-flagged — returning the
    /// first-use-of-prefetch bit. On a miss it returns `None` having
    /// changed *nothing* (no counters, no LRU), so the caller can fall
    /// back to the full [`SetAssocCache::access`] path and the miss is
    /// counted exactly once. The CPU core's express fetch path uses this
    /// to try the overwhelmingly common resident-line transition without
    /// committing to the slow path first.
    #[inline]
    pub fn probe_demand_hit(&mut self, line: LineAddr) -> Option<bool> {
        let idx = self.set_index(line);
        let slot = self.sets.touch(idx, line)?;
        self.stats.accesses += 1;
        let flags = self.sets.flags(slot);
        let first_use = flags & (FLAG_PREFETCHED | FLAG_USED) == FLAG_PREFETCHED;
        self.sets.set_flags(slot, flags | FLAG_USED);
        if first_use {
            self.stats.prefetch_first_uses += 1;
        }
        Some(first_use)
    }

    fn access_inner(&mut self, line: LineAddr, write: bool) -> Access {
        self.stats.accesses += 1;
        let idx = self.set_index(line);
        match self.sets.touch(idx, line) {
            Some(slot) => {
                let flags = self.sets.flags(slot);
                let first_use = flags & (FLAG_PREFETCHED | FLAG_USED) == FLAG_PREFETCHED;
                let mut updated = flags | FLAG_USED;
                if write {
                    updated |= FLAG_DIRTY;
                }
                self.sets.set_flags(slot, updated);
                if first_use {
                    self.stats.prefetch_first_uses += 1;
                }
                Access::Hit {
                    first_use_of_prefetch: first_use,
                }
            }
            None => {
                self.stats.misses += 1;
                Access::Miss
            }
        }
    }

    /// A demand access fused with the fill that a miss would trigger: one
    /// scan of the set classifies the line and, when absent and
    /// `fill_on_miss` is given, installs it over the set's LRU victim.
    ///
    /// Equivalent to [`SetAssocCache::access`] (or
    /// [`SetAssocCache::access_write`] when `write`) followed on a miss by
    /// [`SetAssocCache::fill`] — but in a single pass over the set's lanes,
    /// which matters for the L2: its lane arrays exceed the host's caches,
    /// so every extra pass over a cold set costs real memory latency. A
    /// write that misses installs the line already dirty, matching the
    /// write-allocate-then-dirty sequence of the unfused calls. With
    /// `fill_on_miss: None` a miss leaves the set untouched (the probe
    /// behaviour of a plain access).
    pub fn access_and_fill(
        &mut self,
        line: LineAddr,
        write: bool,
        fill_on_miss: Option<FillKind>,
    ) -> (Access, Option<Evicted>) {
        self.stats.accesses += 1;
        let idx = self.set_index(line);
        match self.sets.locate_for_fill(idx, line) {
            FillSlot::Resident(slot) => {
                self.sets.promote(idx, slot);
                let flags = self.sets.flags(slot);
                let first_use = flags & (FLAG_PREFETCHED | FLAG_USED) == FLAG_PREFETCHED;
                let mut updated = flags | FLAG_USED;
                if write {
                    updated |= FLAG_DIRTY;
                }
                self.sets.set_flags(slot, updated);
                if first_use {
                    self.stats.prefetch_first_uses += 1;
                }
                (
                    Access::Hit {
                        first_use_of_prefetch: first_use,
                    },
                    None,
                )
            }
            FillSlot::Vacant(slot) => {
                self.stats.misses += 1;
                let Some(kind) = fill_on_miss else {
                    return (Access::Miss, None);
                };
                self.count_fill(kind);
                self.sets
                    .install(idx, slot, line, Self::miss_fill_flags(kind, write));
                (Access::Miss, None)
            }
            FillSlot::Evict(slot) => {
                self.stats.misses += 1;
                let Some(kind) = fill_on_miss else {
                    return (Access::Miss, None);
                };
                self.count_fill(kind);
                let victim = Evicted::from_lanes(self.sets.line(slot), self.sets.flags(slot));
                self.stats.evictions += 1;
                if victim.prefetched {
                    if victim.used {
                        self.stats.useful_prefetch_evictions += 1;
                    } else {
                        self.stats.useless_prefetch_evictions += 1;
                    }
                }
                self.sets
                    .install(idx, slot, line, Self::miss_fill_flags(kind, write));
                (Access::Miss, Some(victim))
            }
        }
    }

    #[inline]
    fn miss_fill_flags(kind: FillKind, write: bool) -> u8 {
        let mut flags = Self::fill_flags(kind);
        if write {
            flags |= FLAG_USED | FLAG_DIRTY;
        }
        flags
    }

    /// A tag probe that does not disturb LRU order or statistics — what the
    /// prefetcher's filtered tag inspections do.
    #[inline]
    pub fn probe(&self, line: LineAddr) -> bool {
        self.sets.find(self.set_index(line), line).is_some()
    }

    /// Installs `line`, evicting the set's LRU entry when the set is full.
    ///
    /// A [`FillKind::Prefetch`] fill marks the line `prefetched` and not yet
    /// `used`; a [`FillKind::Demand`] fill marks it `used` immediately.
    /// Filling an already-resident line only promotes it (this happens when
    /// a fill completes after a duplicate was installed; it is counted in
    /// [`CacheStats::redundant_fills`]).
    pub fn fill(&mut self, line: LineAddr, kind: FillKind) -> Option<Evicted> {
        let idx = self.set_index(line);
        // One fused scan classifies the fill; the old code paid a `peek`
        // scan followed by a `touch` or `insert` scan of the same set.
        match self.sets.locate_for_fill(idx, line) {
            FillSlot::Resident(slot) => {
                self.stats.redundant_fills += 1;
                // Promote, and upgrade a resident prefetched line to demand
                // on a demand fill (the demand stream has caught up with it).
                self.sets.promote(idx, slot);
                if kind == FillKind::Demand {
                    let flags = self.sets.flags(slot);
                    self.sets.set_flags(slot, flags | FLAG_USED);
                }
                None
            }
            FillSlot::Vacant(slot) => {
                self.count_fill(kind);
                self.sets.install(idx, slot, line, Self::fill_flags(kind));
                None
            }
            FillSlot::Evict(slot) => {
                self.count_fill(kind);
                let victim = Evicted::from_lanes(self.sets.line(slot), self.sets.flags(slot));
                self.stats.evictions += 1;
                if victim.prefetched {
                    if victim.used {
                        self.stats.useful_prefetch_evictions += 1;
                    } else {
                        self.stats.useless_prefetch_evictions += 1;
                    }
                }
                self.sets.install(idx, slot, line, Self::fill_flags(kind));
                Some(victim)
            }
        }
    }

    #[inline]
    fn count_fill(&mut self, kind: FillKind) {
        match kind {
            FillKind::Demand => self.stats.demand_fills += 1,
            FillKind::Prefetch => self.stats.prefetch_fills += 1,
        }
    }

    #[inline]
    fn fill_flags(kind: FillKind) -> u8 {
        match kind {
            FillKind::Demand => FLAG_USED,
            FillKind::Prefetch => FLAG_PREFETCHED,
        }
    }

    /// Removes `line` if resident, returning its flags.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<Evicted> {
        let idx = self.set_index(line);
        self.sets
            .invalidate(idx, line)
            .map(|flags| Evicted::from_lanes(line, flags))
    }

    /// Number of currently resident lines.
    pub fn resident_lines(&self) -> usize {
        self.sets.resident()
    }

    /// Iterates all resident lines (diagnostics / tests).
    pub fn iter_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.sets.iter_resident().map(|(line, _)| line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsim_types::CacheConfig;

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways x 64B = 512B.
        SetAssocCache::new(CacheConfig::new(512, 2, 64).unwrap())
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(LineAddr(5)), Access::Miss);
        assert!(c.fill(LineAddr(5), FillKind::Demand).is_none());
        assert_eq!(
            c.access(LineAddr(5)),
            Access::Hit {
                first_use_of_prefetch: false
            }
        );
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn prefetch_fill_reports_first_use_once() {
        let mut c = tiny();
        c.fill(LineAddr(5), FillKind::Prefetch);
        assert_eq!(
            c.access(LineAddr(5)),
            Access::Hit {
                first_use_of_prefetch: true
            }
        );
        assert_eq!(
            c.access(LineAddr(5)),
            Access::Hit {
                first_use_of_prefetch: false
            }
        );
        assert_eq!(c.stats().prefetch_first_uses, 1);
    }

    #[test]
    fn eviction_reports_prefetch_usefulness() {
        let mut c = tiny();
        // Set 0 holds lines with line.0 % 4 == 0.
        c.fill(LineAddr(0), FillKind::Prefetch);
        c.fill(LineAddr(4), FillKind::Demand);
        // Line 0 untouched: evicting it flags a useless prefetch.
        let v = c.fill(LineAddr(8), FillKind::Demand).unwrap();
        assert_eq!(v.line, LineAddr(0));
        assert!(v.prefetched);
        assert!(!v.used);
        assert_eq!(c.stats().useless_prefetch_evictions, 1);
    }

    #[test]
    fn used_prefetched_line_evicts_as_useful() {
        let mut c = tiny();
        c.fill(LineAddr(0), FillKind::Prefetch);
        c.access(LineAddr(0));
        c.fill(LineAddr(4), FillKind::Demand);
        c.access(LineAddr(4)); // line 0 is LRU
        let v = c.fill(LineAddr(8), FillKind::Demand).unwrap();
        assert_eq!(v.line, LineAddr(0));
        assert!(v.prefetched && v.used);
        assert_eq!(c.stats().useless_prefetch_evictions, 0);
        assert_eq!(c.stats().useful_prefetch_evictions, 1);
    }

    #[test]
    fn probe_does_not_affect_lru_or_stats() {
        let mut c = tiny();
        c.fill(LineAddr(0), FillKind::Demand);
        c.fill(LineAddr(4), FillKind::Demand);
        assert!(c.probe(LineAddr(0)));
        assert!(!c.probe(LineAddr(8)));
        assert_eq!(c.stats().accesses, 0);
        // 0 must still be LRU.
        let v = c.fill(LineAddr(8), FillKind::Demand).unwrap();
        assert_eq!(v.line, LineAddr(0));
    }

    #[test]
    fn redundant_fill_is_counted_not_duplicated() {
        let mut c = tiny();
        c.fill(LineAddr(0), FillKind::Demand);
        c.fill(LineAddr(0), FillKind::Prefetch);
        assert_eq!(c.resident_lines(), 1);
        assert_eq!(c.stats().redundant_fills, 1);
    }

    #[test]
    fn demand_refill_of_prefetched_line_marks_used() {
        let mut c = tiny();
        c.fill(LineAddr(0), FillKind::Prefetch);
        c.fill(LineAddr(0), FillKind::Demand);
        c.fill(LineAddr(4), FillKind::Demand);
        c.access(LineAddr(4));
        c.access(LineAddr(0));
        c.fill(LineAddr(8), FillKind::Demand); // evicts 4
        let v = c.fill(LineAddr(12), FillKind::Demand).unwrap();
        assert_eq!(v.line, LineAddr(0));
        assert!(v.used, "demand fill upgraded the line to used");
    }

    #[test]
    fn write_sets_dirty() {
        let mut c = tiny();
        c.fill(LineAddr(0), FillKind::Demand);
        c.access_write(LineAddr(0));
        let v = c.invalidate(LineAddr(0)).unwrap();
        assert!(v.dirty);
    }

    #[test]
    fn set_mapping_is_modulo_sets() {
        let mut c = tiny(); // 4 sets, 2 ways
                            // These all map to set 1.
        for l in [1u64, 5, 9] {
            c.fill(LineAddr(l), FillKind::Demand);
        }
        assert_eq!(c.resident_lines(), 2);
        assert!(!c.probe(LineAddr(1)), "LRU of set 1 was evicted");
        assert!(c.probe(LineAddr(5)));
        assert!(c.probe(LineAddr(9)));
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = tiny();
        for l in 0..1000u64 {
            c.fill(LineAddr(l), FillKind::Demand);
        }
        assert!(c.resident_lines() <= 8);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = tiny();
        c.fill(LineAddr(0), FillKind::Demand);
        c.access(LineAddr(0));
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.probe(LineAddr(0)));
    }

    #[test]
    fn clear_restores_fresh_state() {
        let mut c = tiny();
        for l in 0..100u64 {
            c.fill(LineAddr(l), FillKind::Demand);
            c.access(LineAddr(l));
        }
        c.clear();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.stats().accesses, 0);
        // LRU behaviour restarts identically to a fresh cache: fill a set
        // past capacity and check the first insert is the victim.
        let mut fresh = tiny();
        for cache in [&mut c, &mut fresh] {
            for l in [0u64, 4, 8] {
                cache.fill(LineAddr(l), FillKind::Demand);
            }
        }
        assert_eq!(c.iter_lines().collect::<Vec<_>>().len(), 2);
        assert_eq!(c.probe(LineAddr(0)), fresh.probe(LineAddr(0)));
        assert_eq!(c.probe(LineAddr(4)), fresh.probe(LineAddr(4)));
        assert_eq!(c.probe(LineAddr(8)), fresh.probe(LineAddr(8)));
    }
}
