//! TLB modelling (paper Section 5: 128-entry 2-way primary I/D TLBs and a
//! 2K-entry unified secondary TLB).
//!
//! A TLB is structurally a set-associative cache of page translations, so
//! the implementation reuses [`SetAssocCache`] with the page size as the
//! "line" size. TLBs are **disabled by default**: the paper's evaluation
//! never varies them and the workload calibration was performed without
//! TLB stalls; enable them via [`TlbConfig::paper`] to study their
//! (small) effect — see the `fig11_ablations` discussion in
//! `EXPERIMENTS.md`.

use ipsim_cache::{FillKind, SetAssocCache};
use ipsim_types::config::TlbConfig;
use ipsim_types::{Addr, CacheConfig, Cycle, LineSize};

/// Per-access statistics for one TLB hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TlbStats {
    /// Primary-TLB accesses.
    pub accesses: u64,
    /// Primary-TLB misses.
    pub l1_misses: u64,
    /// Misses in both levels (software walks).
    pub walks: u64,
}

/// A two-level TLB for one access stream (instruction or data).
///
/// The secondary TLB is modelled per stream rather than unified; commercial
/// working sets make cross-stream secondary conflicts a second-order
/// effect, and keeping the levels private preserves determinism of the
/// per-core accounting.
#[derive(Debug)]
pub struct Tlb {
    l1: SetAssocCache,
    l2: SetAssocCache,
    page: LineSize,
    l2_hit_latency: Cycle,
    walk_latency: Cycle,
    stats: TlbStats,
}

impl Tlb {
    /// Builds a TLB hierarchy from the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration's geometry is invalid (non-power-of-two
    /// entries or page size).
    pub fn new(config: &TlbConfig) -> Tlb {
        let page = LineSize::new(config.page_bytes).expect("page size is a power of two");
        let l1 = CacheConfig::new(
            config.l1_entries as u64 * config.page_bytes,
            config.l1_assoc,
            config.page_bytes,
        )
        .expect("primary TLB geometry is valid");
        let l2 = CacheConfig::new(
            config.l2_entries as u64 * config.page_bytes,
            4,
            config.page_bytes,
        )
        .expect("secondary TLB geometry is valid");
        Tlb {
            l1: SetAssocCache::new(l1),
            l2: SetAssocCache::new(l2),
            page,
            l2_hit_latency: config.l2_hit_latency,
            walk_latency: config.walk_latency,
            stats: TlbStats::default(),
        }
    }

    /// Translates `addr`, returning the added latency (0 on a primary hit).
    pub fn access(&mut self, addr: Addr) -> Cycle {
        self.stats.accesses += 1;
        let page = addr.line(self.page);
        if self.l1.access(page).is_hit() {
            return 0;
        }
        self.stats.l1_misses += 1;
        self.l1.fill(page, FillKind::Demand);
        if self.l2.access(page).is_hit() {
            self.l2_hit_latency
        } else {
            self.stats.walks += 1;
            self.l2.fill(page, FillKind::Demand);
            self.walk_latency
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Resets statistics (end of warm-up); translations stay resident.
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb() -> Tlb {
        Tlb::new(&TlbConfig::paper())
    }

    #[test]
    fn first_touch_walks_then_hits() {
        let mut t = tlb();
        assert_eq!(t.access(Addr(0x10_0000)), 200, "cold page walks");
        assert_eq!(t.access(Addr(0x10_1000)), 0, "same 8KB page hits");
        assert_eq!(t.access(Addr(0x10_2000)), 200, "next page walks");
        assert_eq!(t.stats().walks, 2);
        assert_eq!(t.stats().accesses, 3);
    }

    #[test]
    fn secondary_catches_primary_capacity_misses() {
        let mut t = tlb();
        // Touch 256 pages: double the 128-entry primary, within the 2K
        // secondary.
        for p in 0..256u64 {
            t.access(Addr(p * 8192));
        }
        t.reset_stats();
        // Second sweep: primary thrashes but the secondary holds all 256.
        for p in 0..256u64 {
            let lat = t.access(Addr(p * 8192));
            assert!(lat == 0 || lat == 10, "unexpected walk: {lat}");
        }
        assert_eq!(t.stats().walks, 0);
        assert!(t.stats().l1_misses > 0);
    }

    #[test]
    fn small_working_sets_are_free() {
        let mut t = tlb();
        for p in 0..64u64 {
            t.access(Addr(p * 8192));
        }
        t.reset_stats();
        for _ in 0..4 {
            for p in 0..64u64 {
                assert_eq!(t.access(Addr(p * 8192)), 0);
            }
        }
        assert_eq!(t.stats().l1_misses, 0);
    }

    #[test]
    fn default_config_is_disabled() {
        assert!(!TlbConfig::default().enabled);
        assert!(TlbConfig::paper().enabled);
    }
}
