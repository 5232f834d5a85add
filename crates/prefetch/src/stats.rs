//! Per-scheme shadow-attribution counters.

/// Windowed lifecycle counters for one zoo member.
///
/// Counted at the same hot-path points as the core's aggregate
/// `PrefetchStats`, keyed by the zoo slot each line's attribution carries, so
/// per-scheme rows always sum to the aggregates the telemetry validator
/// checks (the property tests in `tests/` pin this invariant).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchemeCounters {
    /// Requests the scheme emitted (pre-filter, pre-queue).
    pub generated: u64,
    /// Requests accepted by the memory system (MSHR allocated).
    pub issued: u64,
    /// Prefetched lines that completed and were installed in the L1I.
    pub filled: u64,
    /// Prefetched lines demand-referenced for the first time.
    pub useful: u64,
    /// Subset of `useful` where the demand fetch arrived while the
    /// prefetch was still in flight (late — it covered the miss only
    /// partially).
    pub late: u64,
    /// Attributed lines evicted after being demand-referenced.
    pub evicted_used: u64,
    /// Attributed lines evicted without ever being demand-referenced
    /// (pure waste).
    pub evicted_unused: u64,
}

impl SchemeCounters {
    /// Accuracy: useful / issued (1.0 when nothing was issued).
    pub fn accuracy(&self) -> f64 {
        if self.issued == 0 {
            1.0
        } else {
            self.useful as f64 / self.issued as f64
        }
    }

    /// Share of useful prefetches that were late (0.0 when none useful).
    pub fn late_fraction(&self) -> f64 {
        if self.useful == 0 {
            0.0
        } else {
            self.late as f64 / self.useful as f64
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = SchemeCounters::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero_denominators() {
        let mut c = SchemeCounters::default();
        assert_eq!(c.accuracy(), 1.0);
        assert_eq!(c.late_fraction(), 0.0);
        c.issued = 10;
        c.useful = 4;
        c.late = 1;
        assert_eq!(c.accuracy(), 0.4);
        assert_eq!(c.late_fraction(), 0.25);
        c.reset();
        assert_eq!(c, SchemeCounters::default());
    }
}
