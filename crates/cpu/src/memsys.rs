//! The shared memory system: unified L2 cache, off-chip bus, and the
//! prefetch install policy.

use ipsim_cache::{FillKind, InstallPolicy, SetAssocCache};
use ipsim_types::stats::CategoryCounts;
use ipsim_types::{Cycle, LineAddr, MemConfig, MissCategory};

use crate::bus::Bus;

/// Counters for the shared memory system.
#[derive(Debug, Clone, Default)]
pub struct MemStats {
    /// Demand instruction accesses reaching the L2 (L1I misses).
    pub l2_instr_accesses: u64,
    /// Demand instruction misses in the L2, by transition category.
    pub l2_instr_misses: CategoryCounts,
    /// Demand data accesses reaching the L2 (L1D misses).
    pub l2_data_accesses: u64,
    /// Demand data misses in the L2.
    pub l2_data_misses: u64,
    /// Instruction-prefetch accesses reaching the L2.
    pub l2_prefetch_accesses: u64,
    /// Instruction-prefetch accesses missing the L2 (off-chip prefetches).
    pub l2_prefetch_misses: u64,
    /// Dirty L2 victims written back off-chip.
    pub writebacks: u64,
}

/// The shared L2 + memory + bus, visited by every core.
///
/// All latencies are returned as absolute completion times so callers can
/// overlap them against their own clocks; the bus serialises off-chip
/// transfers across cores.
#[derive(Debug)]
pub struct MemSystem {
    l2: SetAssocCache,
    bus: Bus,
    policy: InstallPolicy,
    l2_latency: Cycle,
    mem_latency: Cycle,
    stats: MemStats,
}

impl MemSystem {
    /// Creates the memory system from a configuration and an install
    /// policy for instruction prefetches.
    pub fn new(config: &MemConfig, policy: InstallPolicy) -> MemSystem {
        MemSystem {
            l2: SetAssocCache::new(config.l2),
            bus: Bus::new(config.line_transfer_cycles()),
            policy,
            l2_latency: config.l2_latency,
            mem_latency: config.mem_latency,
            stats: MemStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// The underlying bus (diagnostics).
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// The shared L2 cache (diagnostics / tests).
    pub fn l2(&self) -> &SetAssocCache {
        &self.l2
    }

    /// The active install policy.
    pub fn policy(&self) -> InstallPolicy {
        self.policy
    }

    /// Resets statistics at the end of warm-up; cache and bus state are
    /// preserved.
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
        self.bus.reset_stats();
        self.l2.reset_stats();
    }

    /// Total bus transfers (demand + prefetch + writeback).
    pub fn bus_transfers(&self) -> u64 {
        self.bus.transfers()
    }

    fn fill_l2(&mut self, line: LineAddr, kind: FillKind) {
        let victim = self.l2.fill(line, kind);
        self.writeback_victim(victim);
    }

    fn writeback_victim(&mut self, victim: Option<ipsim_cache::Evicted>) {
        if let Some(victim) = victim {
            if victim.dirty {
                // Dirty data evicted by the install: write it back,
                // consuming off-chip bandwidth.
                self.bus.occupy(0);
                self.stats.writebacks += 1;
            }
        }
    }

    /// A demand instruction fetch (an L1I miss) at local time `now`;
    /// returns the completion time. `category` attributes an L2 miss to its
    /// fetch-stream transition for the Figure 3 breakdowns.
    pub fn fetch_instr_line(
        &mut self,
        line: LineAddr,
        now: Cycle,
        category: MissCategory,
    ) -> Cycle {
        self.stats.l2_instr_accesses += 1;
        // Demand instruction fills always install in the L2; the fused
        // access classifies and installs in one pass over the set.
        let (access, victim) = self.l2.access_and_fill(line, false, Some(FillKind::Demand));
        if access.is_hit() {
            now + self.l2_latency
        } else {
            self.stats.l2_instr_misses[category] += 1;
            let ready = self.bus.request(now, self.mem_latency);
            self.writeback_victim(victim);
            ready
        }
    }

    /// An instruction prefetch at local time `now`; returns the completion
    /// time. Under [`InstallPolicy::BypassL2UntilUseful`] an off-chip
    /// prefetch is *not* installed in the L2.
    pub fn prefetch_instr_line(&mut self, line: LineAddr, now: Cycle) -> Cycle {
        self.stats.l2_prefetch_accesses += 1;
        let fill = self
            .policy
            .installs_prefetch_in_l2()
            .then_some(FillKind::Prefetch);
        let (access, victim) = self.l2.access_and_fill(line, false, fill);
        if access.is_hit() {
            now + self.l2_latency
        } else {
            self.stats.l2_prefetch_misses += 1;
            let ready = self.bus.request(now, self.mem_latency);
            self.writeback_victim(victim);
            ready
        }
    }

    /// Installs a *used* prefetched line evicted from an L1I under the
    /// bypass policy (the paper's "install iff proven useful").
    pub fn install_useful_instr_line(&mut self, line: LineAddr) {
        if !self.l2.probe(line) {
            self.fill_l2(line, FillKind::Demand);
        }
    }

    /// Limit-study support: makes `line` L2-resident at zero cost and with
    /// no statistics impact (the miss is being "eliminated").
    pub fn ensure_instr_line_free(&mut self, line: LineAddr) {
        if !self.l2.probe(line) {
            self.fill_l2(line, FillKind::Demand);
        }
    }

    /// A demand data access (an L1D miss) at local time `now`; returns the
    /// completion time.
    pub fn access_data_line(&mut self, line: LineAddr, write: bool, now: Cycle) -> Cycle {
        self.stats.l2_data_accesses += 1;
        let (access, victim) = self.l2.access_and_fill(line, write, Some(FillKind::Demand));
        if access.is_hit() {
            now + self.l2_latency
        } else {
            self.stats.l2_data_misses += 1;
            let ready = self.bus.request(now, self.mem_latency);
            self.writeback_victim(victim);
            ready
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsim_types::MemConfig;

    fn mem(policy: InstallPolicy) -> MemSystem {
        MemSystem::new(&MemConfig::default_single_core(), policy)
    }

    #[test]
    fn instr_fetch_l2_hit_costs_l2_latency() {
        let mut m = mem(InstallPolicy::InstallBoth);
        let first = m.fetch_instr_line(LineAddr(5), 0, MissCategory::Sequential);
        assert!(first >= 400, "first access misses: {first}");
        let second = m.fetch_instr_line(LineAddr(5), 1000, MissCategory::Sequential);
        assert_eq!(second, 1025, "second access hits the L2");
        assert_eq!(m.stats().l2_instr_accesses, 2);
        assert_eq!(m.stats().l2_instr_misses.total(), 1);
    }

    #[test]
    fn miss_categories_are_recorded() {
        let mut m = mem(InstallPolicy::InstallBoth);
        m.fetch_instr_line(LineAddr(1), 0, MissCategory::Call);
        m.fetch_instr_line(LineAddr(2), 0, MissCategory::Call);
        m.fetch_instr_line(LineAddr(3), 0, MissCategory::Sequential);
        assert_eq!(m.stats().l2_instr_misses[MissCategory::Call], 2);
        assert_eq!(m.stats().l2_instr_misses[MissCategory::Sequential], 1);
    }

    #[test]
    fn prefetch_installs_in_l2_only_under_install_both() {
        let mut m = mem(InstallPolicy::InstallBoth);
        m.prefetch_instr_line(LineAddr(7), 0);
        assert!(m.l2().probe(LineAddr(7)));

        let mut m = mem(InstallPolicy::BypassL2UntilUseful);
        m.prefetch_instr_line(LineAddr(7), 0);
        assert!(!m.l2().probe(LineAddr(7)), "bypass policy must not install");
        assert_eq!(m.stats().l2_prefetch_misses, 1);
    }

    #[test]
    fn useful_eviction_install_is_idempotent() {
        let mut m = mem(InstallPolicy::BypassL2UntilUseful);
        m.install_useful_instr_line(LineAddr(9));
        m.install_useful_instr_line(LineAddr(9));
        assert!(m.l2().probe(LineAddr(9)));
    }

    #[test]
    fn data_accesses_tracked_separately() {
        let mut m = mem(InstallPolicy::InstallBoth);
        m.access_data_line(LineAddr(100), false, 0);
        m.access_data_line(LineAddr(100), true, 50);
        assert_eq!(m.stats().l2_data_accesses, 2);
        assert_eq!(m.stats().l2_data_misses, 1);
        assert_eq!(m.stats().l2_instr_accesses, 0);
    }

    #[test]
    fn contending_cores_queue_on_the_bus() {
        let mut m = mem(InstallPolicy::InstallBoth);
        let a = m.fetch_instr_line(LineAddr(1), 0, MissCategory::Sequential);
        let b = m.fetch_instr_line(LineAddr(2), 0, MissCategory::Sequential);
        assert!(b > a, "second off-chip fetch queues behind the first");
    }

    #[test]
    fn reset_stats_preserves_contents() {
        let mut m = mem(InstallPolicy::InstallBoth);
        m.fetch_instr_line(LineAddr(1), 0, MissCategory::Sequential);
        m.reset_stats();
        assert_eq!(m.stats().l2_instr_accesses, 0);
        assert!(m.l2().probe(LineAddr(1)));
    }
}
