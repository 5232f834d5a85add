//! Validated simulator configurations.
//!
//! Defaults follow Section 5 of the paper: per-core 32 KB 4-way 64 B L1
//! instruction and data caches (4-cycle latency), a shared unified 2 MB 4-way
//! 64 B L2 (25-cycle latency), 400-cycle memory latency, 8-wide fetch,
//! 3-wide issue, 64-entry ROB, 16-stage pipeline, 3 GHz cores with 10 GB/s
//! (single-core) or 20 GB/s (4-way CMP) off-chip bandwidth.

use crate::addr::LineSize;
use crate::error::ConfigError;
use crate::Cycle;

/// Geometry of one set-associative cache.
///
/// # Examples
///
/// ```
/// use ipsim_types::config::CacheConfig;
///
/// let l2 = CacheConfig::new(2 * 1024 * 1024, 4, 64)?;
/// assert_eq!(l2.sets(), 8192);
/// assert_eq!(l2.lines(), 32768);
/// # Ok::<(), ipsim_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    size_bytes: u64,
    assoc: u32,
    line: LineSize,
}

impl CacheConfig {
    /// The most ways a set may have: a cache model finds a line with one
    /// bit per way in a machine word.
    pub const MAX_ASSOC: u32 = 64;

    /// Creates a cache geometry of `size_bytes` capacity, `assoc` ways and
    /// `line_bytes`-byte lines.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any quantity is zero, the line size is
    /// not a power of two, `assoc` exceeds [`CacheConfig::MAX_ASSOC`], or
    /// the geometry does not divide into a power-of-two number of sets.
    pub fn new(size_bytes: u64, assoc: u32, line_bytes: u64) -> Result<CacheConfig, ConfigError> {
        if assoc == 0 {
            return Err(ConfigError::Zero {
                what: "associativity",
            });
        }
        if assoc > CacheConfig::MAX_ASSOC {
            return Err(ConfigError::OutOfRange {
                what: "associativity",
                value: assoc as u64,
                max: CacheConfig::MAX_ASSOC as u64,
            });
        }
        if size_bytes == 0 {
            return Err(ConfigError::Zero { what: "cache size" });
        }
        let line = LineSize::new(line_bytes)?;
        let lines = size_bytes / line.bytes();
        if lines == 0 || !lines.is_multiple_of(assoc as u64) {
            return Err(ConfigError::BadGeometry {
                size: size_bytes,
                assoc,
                line: line_bytes,
            });
        }
        let sets = lines / assoc as u64;
        if !sets.is_power_of_two() {
            return Err(ConfigError::BadGeometry {
                size: size_bytes,
                assoc,
                line: line_bytes,
            });
        }
        Ok(CacheConfig {
            size_bytes,
            assoc,
            line,
        })
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Number of ways.
    pub fn assoc(&self) -> u32 {
        self.assoc
    }

    /// Line size.
    pub fn line(&self) -> LineSize {
        self.line
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / self.line.bytes() / self.assoc as u64
    }

    /// Total number of lines.
    pub fn lines(&self) -> u64 {
        self.size_bytes / self.line.bytes()
    }

    /// The paper's default per-core L1 cache: 32 KB, 4-way, 64 B lines.
    pub fn default_l1() -> CacheConfig {
        CacheConfig::new(32 * 1024, 4, 64).expect("default L1 geometry is valid")
    }

    /// The paper's default shared L2 cache: 2 MB, 4-way, 64 B lines.
    pub fn default_l2() -> CacheConfig {
        CacheConfig::new(2 * 1024 * 1024, 4, 64).expect("default L2 geometry is valid")
    }
}

/// TLB hierarchy parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Model TLBs at all (default `false`).
    pub enabled: bool,
    /// Primary TLB entries (instruction and data each).
    pub l1_entries: u32,
    /// Primary TLB associativity.
    pub l1_assoc: u32,
    /// Unified secondary TLB entries.
    pub l2_entries: u32,
    /// Page size in bytes (SPARC base page: 8 KB).
    pub page_bytes: u64,
    /// Added latency when the primary misses but the secondary hits.
    pub l2_hit_latency: Cycle,
    /// Added latency when both levels miss (software table walk).
    pub walk_latency: Cycle,
}

impl TlbConfig {
    /// TLBs disabled (the calibrated default).
    pub fn disabled() -> TlbConfig {
        TlbConfig {
            enabled: false,
            ..TlbConfig::paper()
        }
    }

    /// The paper's TLB organisation, enabled.
    pub fn paper() -> TlbConfig {
        TlbConfig {
            enabled: true,
            l1_entries: 128,
            l1_assoc: 2,
            l2_entries: 2048,
            page_bytes: 8192,
            l2_hit_latency: 10,
            walk_latency: 200,
        }
    }
}

impl Default for TlbConfig {
    fn default() -> Self {
        TlbConfig::disabled()
    }
}

/// Branch-prediction structures (Section 5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchConfig {
    /// gshare pattern-history-table entries (must be a power of two).
    pub gshare_entries: u32,
    /// Branch-target-buffer entries, direct-mapped and tagless.
    pub btb_entries: u32,
    /// Return-address-stack depth.
    pub ras_entries: u32,
}

impl Default for BranchConfig {
    fn default() -> Self {
        BranchConfig {
            gshare_entries: 64 * 1024,
            btb_entries: 1024,
            ras_entries: 16,
        }
    }
}

/// Per-core pipeline parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: u32,
    /// Instructions issued per cycle.
    pub issue_width: u32,
    /// Reorder-buffer entries: bounds how far execution runs ahead of an
    /// outstanding data miss (memory-level parallelism window).
    pub rob_entries: u32,
    /// Pipeline depth; a branch misprediction restarts fetch after this many
    /// cycles.
    pub pipeline_depth: u32,
    /// Maximum outstanding misses per core (MSHRs).
    pub mshrs: u32,
    /// L1 instruction-cache geometry.
    pub l1i: CacheConfig,
    /// L1 data-cache geometry.
    pub l1d: CacheConfig,
    /// L1 hit latency in cycles.
    pub l1_latency: Cycle,
    /// Branch-prediction structures.
    pub branch: BranchConfig,
    /// TLB hierarchy (disabled by default; see [`TlbConfig`]).
    pub tlb: TlbConfig,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            fetch_width: 8,
            issue_width: 3,
            rob_entries: 64,
            pipeline_depth: 16,
            // Outstanding fills per core and side (instruction fills
            // including prefetches / data fills). Covering a 425-cycle
            // memory round-trip at the prefetch issue rates of the
            // aggressive schemes needs well over the classic 8 MSHRs.
            mshrs: 16,
            l1i: CacheConfig::default_l1(),
            l1d: CacheConfig::default_l1(),
            l1_latency: 4,
            branch: BranchConfig::default(),
            tlb: TlbConfig::default(),
        }
    }
}

/// Shared memory-system parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemConfig {
    /// Unified L2 geometry (shared by all cores in a CMP).
    pub l2: CacheConfig,
    /// L2 hit latency in cycles.
    pub l2_latency: Cycle,
    /// Main-memory latency in cycles.
    pub mem_latency: Cycle,
    /// Off-chip bandwidth in bytes per core cycle. The paper's 3 GHz cores
    /// see 10 GB/s (single core, ≈3.33 B/cycle) or 20 GB/s (4-way CMP,
    /// ≈6.67 B/cycle).
    pub offchip_bytes_per_cycle: f64,
}

impl MemConfig {
    /// Cycles one cache-line transfer occupies the off-chip bus.
    pub fn line_transfer_cycles(&self) -> f64 {
        self.l2.line().bytes() as f64 / self.offchip_bytes_per_cycle
    }

    /// The paper's single-core memory system: private 2 MB L2, 10 GB/s.
    pub fn default_single_core() -> MemConfig {
        MemConfig {
            l2: CacheConfig::default_l2(),
            l2_latency: 25,
            mem_latency: 400,
            offchip_bytes_per_cycle: 10.0 / 3.0,
        }
    }

    /// The paper's CMP memory system: shared 2 MB L2, 20 GB/s.
    pub fn default_cmp() -> MemConfig {
        MemConfig {
            offchip_bytes_per_cycle: 20.0 / 3.0,
            ..MemConfig::default_single_core()
        }
    }
}

/// Default scheduler quantum: instructions each core executes before the
/// scheduler re-picks the laggard core.
pub const DEFAULT_SCHED_QUANTUM: u64 = 16;

/// Largest supported scheduler quantum (the scheduler's op staging buffer
/// is sized to this at compile time).
pub const MAX_SCHED_QUANTUM: u64 = 64;

/// A full system: `n_cores` identical cores over one shared memory system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of cores on the chip.
    pub n_cores: u32,
    /// Per-core pipeline/caches.
    pub core: CoreConfig,
    /// Shared L2 / memory / bus.
    pub mem: MemConfig,
    /// Instructions each core executes before the scheduler re-picks the
    /// laggard core. Small enough that shared-L2/bus interleaving stays
    /// faithful, large enough to amortise scheduling. 1..=[`MAX_SCHED_QUANTUM`];
    /// non-default values change multi-core interleaving and therefore
    /// results.
    pub sched_quantum: u64,
}

impl SystemConfig {
    /// The paper's single-core baseline.
    pub fn single_core() -> SystemConfig {
        SystemConfig {
            n_cores: 1,
            core: CoreConfig::default(),
            mem: MemConfig::default_single_core(),
            sched_quantum: DEFAULT_SCHED_QUANTUM,
        }
    }

    /// The paper's 4-way CMP design point.
    pub fn cmp4() -> SystemConfig {
        SystemConfig {
            n_cores: 4,
            core: CoreConfig::default(),
            mem: MemConfig::default_cmp(),
            sched_quantum: DEFAULT_SCHED_QUANTUM,
        }
    }

    /// Validates cross-field invariants.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if core count or widths are zero, or the
    /// L1/L2 line sizes differ (the memory system moves whole L2 lines).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_cores == 0 {
            return Err(ConfigError::Zero { what: "core count" });
        }
        if self.core.fetch_width == 0 {
            return Err(ConfigError::Zero {
                what: "fetch width",
            });
        }
        if self.core.issue_width == 0 {
            return Err(ConfigError::Zero {
                what: "issue width",
            });
        }
        if self.core.rob_entries == 0 {
            return Err(ConfigError::Zero {
                what: "ROB entries",
            });
        }
        if !self.core.branch.gshare_entries.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                what: "gshare entries",
                value: self.core.branch.gshare_entries as u64,
            });
        }
        if !self.core.branch.btb_entries.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                what: "BTB entries",
                value: self.core.branch.btb_entries as u64,
            });
        }
        if self.sched_quantum == 0 {
            return Err(ConfigError::Zero {
                what: "scheduler quantum",
            });
        }
        if self.sched_quantum > MAX_SCHED_QUANTUM {
            return Err(ConfigError::OutOfRange {
                what: "scheduler quantum",
                value: self.sched_quantum,
                max: MAX_SCHED_QUANTUM,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometries_match_paper() {
        let l1 = CacheConfig::default_l1();
        assert_eq!(l1.size_bytes(), 32 * 1024);
        assert_eq!(l1.assoc(), 4);
        assert_eq!(l1.line().bytes(), 64);
        assert_eq!(l1.sets(), 128);

        let l2 = CacheConfig::default_l2();
        assert_eq!(l2.sets(), 8192);
        assert_eq!(l2.lines(), 32 * 1024);
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(CacheConfig::new(0, 4, 64).is_err());
        assert!(CacheConfig::new(32 * 1024, 0, 64).is_err());
        assert!(CacheConfig::new(32 * 1024, 4, 48).is_err());
        // 3-way with 32KB/64B = 512 lines -> 170.67 sets: invalid.
        assert!(CacheConfig::new(32 * 1024, 3, 64).is_err());
        // 12 ways -> 42.67 sets: invalid even though divisible checks differ.
        assert!(CacheConfig::new(32 * 1024, 12, 64).is_err());
        // Fully associative past `MAX_ASSOC` ways.
        assert!(CacheConfig::new(32 * 1024, 512, 64).is_err());
        assert!(CacheConfig::new(128 * 64, 128, 64).is_err());
        assert!(CacheConfig::new(64 * 64, 64, 64).is_ok());
    }

    #[test]
    fn direct_mapped_and_fully_weird_assocs_work() {
        let dm = CacheConfig::new(32 * 1024, 1, 64).unwrap();
        assert_eq!(dm.sets(), 512);
        let eight = CacheConfig::new(32 * 1024, 8, 64).unwrap();
        assert_eq!(eight.sets(), 64);
    }

    #[test]
    fn bandwidth_translates_to_transfer_cycles() {
        let single = MemConfig::default_single_core();
        assert!((single.line_transfer_cycles() - 19.2).abs() < 1e-9);
        let cmp = MemConfig::default_cmp();
        assert!((cmp.line_transfer_cycles() - 9.6).abs() < 1e-9);
    }

    #[test]
    fn paper_presets_validate() {
        SystemConfig::single_core().validate().unwrap();
        SystemConfig::cmp4().validate().unwrap();
        assert_eq!(SystemConfig::cmp4().n_cores, 4);
        assert_eq!(SystemConfig::cmp4().core.pipeline_depth, 16);
    }

    #[test]
    fn validate_catches_zeroes() {
        let mut s = SystemConfig::single_core();
        s.n_cores = 0;
        assert!(s.validate().is_err());
        let mut s = SystemConfig::single_core();
        s.core.issue_width = 0;
        assert!(s.validate().is_err());
        let mut s = SystemConfig::single_core();
        s.core.branch.btb_entries = 1000;
        assert!(s.validate().is_err());
    }

    #[test]
    fn sched_quantum_is_bounded() {
        assert_eq!(SystemConfig::single_core().sched_quantum, 16);
        let mut s = SystemConfig::single_core();
        s.sched_quantum = 0;
        assert!(s.validate().is_err());
        s.sched_quantum = MAX_SCHED_QUANTUM;
        assert!(s.validate().is_ok());
        s.sched_quantum = MAX_SCHED_QUANTUM + 1;
        assert!(s.validate().is_err());
    }
}
