//! The recent-demand-fetch filter (Section 4.1 of the paper).
//!
//! The filter is a dense `u64` ring of line addresses. Costs per
//! operation, for a ring of `n` slots:
//!
//! * [`RecentFetchFilter::record`]: O(1). A cached copy of the last
//!   recorded line collapses consecutive duplicates, and the write cursor
//!   wraps by comparison rather than division.
//! * [`RecentFetchFilter::contains`]: one branch-free pass over the ring.
//! * [`RecentFetchFilter::clear`]: one fill of the ring.

use ipsim_types::LineAddr;

/// Tracks the most recent demand-fetched lines; prefetch candidates that
/// match are dropped *before* consuming a cache tag-probe slot.
///
/// The paper keeps the last 32 demand fetches per core; with the rest of
/// the filtering pipeline this removes the vast majority of unnecessary
/// prefetch tag accesses, making tag duplication unnecessary.
///
/// # Examples
///
/// ```
/// use ipsim_core::RecentFetchFilter;
/// use ipsim_types::LineAddr;
///
/// let mut f = RecentFetchFilter::new(4);
/// f.record(LineAddr(10));
/// assert!(f.contains(LineAddr(10)));
/// assert!(!f.contains(LineAddr(11)));
/// ```
#[derive(Debug, Clone)]
pub struct RecentFetchFilter {
    /// Recorded line addresses; never-written slots hold `u64::MAX`.
    ring: Box<[u64]>,
    /// The slot the next record overwrites.
    head: usize,
    /// The most recently recorded line, if any.
    last: Option<LineAddr>,
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
            ring: vec![u64::MAX; capacity].into_boxed_slice(),
            head: 0,
            last: None,
        }
    }

    /// Records a demand fetch. Consecutive duplicates are collapsed (the
    /// fetch stream revisits its current line constantly).
    pub fn record(&mut self, line: LineAddr) {
        if self.last == Some(line) {
            return;
        }
        self.last = Some(line);
        self.ring[self.head] = line.0;
        self.head += 1;
        if self.head == self.ring.len() {
            self.head = 0;
        }
    }

    /// Forgets every recorded fetch, restoring the state of a freshly
    /// built filter (run-reuse reset).
    pub fn clear(&mut self) {
        self.ring.fill(u64::MAX);
        self.head = 0;
        self.last = None;
    }

    /// `true` when `line` was among the recorded recent fetches.
    pub fn contains(&self, line: LineAddr) -> bool {
        // The ring is pre-filled with an unreachable sentinel line address,
        // so scanning every slot is safe before the ring fills.
        line.0 != u64::MAX && self.ring.iter().fold(false, |hit, &l| hit | (l == line.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remembers_up_to_capacity() {
        let mut f = RecentFetchFilter::new(3);
        for l in 1..=3u64 {
            f.record(LineAddr(l));
        }
        assert!(f.contains(LineAddr(1)));
        assert!(f.contains(LineAddr(2)));
        assert!(f.contains(LineAddr(3)));
        f.record(LineAddr(4)); // evicts 1
        assert!(!f.contains(LineAddr(1)));
        assert!(f.contains(LineAddr(4)));
    }

    #[test]
    fn consecutive_duplicates_collapse() {
        let mut f = RecentFetchFilter::new(2);
        f.record(LineAddr(1));
        f.record(LineAddr(1));
        f.record(LineAddr(1));
        f.record(LineAddr(2));
        // 1 was recorded once, so both survive in a 2-entry filter.
        assert!(f.contains(LineAddr(1)));
        assert!(f.contains(LineAddr(2)));
        f.record(LineAddr(2)); // collapsed: does not evict 1
        assert!(f.contains(LineAddr(1)));
    }

    #[test]
    fn capacity_one_filter() {
        let mut f = RecentFetchFilter::new(1);
        f.record(LineAddr(1));
        assert!(f.contains(LineAddr(1)));
        f.record(LineAddr(2));
        assert!(!f.contains(LineAddr(1)));
        assert!(f.contains(LineAddr(2)));
        f.record(LineAddr(2));
        assert!(f.contains(LineAddr(2)));
    }

    #[test]
    fn reuse_after_clear() {
        let mut f = RecentFetchFilter::new(3);
        f.record(LineAddr(5));
        f.record(LineAddr(6));
        f.clear();
        assert!(!f.contains(LineAddr(5)));
        assert!(!f.contains(LineAddr(6)));
        // The last line before the clear is recorded afresh, not collapsed.
        f.record(LineAddr(6));
        assert!(f.contains(LineAddr(6)));
        for l in 7..=9 {
            f.record(LineAddr(l));
        }
        assert!(!f.contains(LineAddr(6)));
    }

    #[test]
    fn max_line_is_recorded_but_never_reported() {
        let mut f = RecentFetchFilter::new(2);
        f.record(LineAddr(1));
        f.record(LineAddr(u64::MAX));
        assert!(!f.contains(LineAddr(u64::MAX)));
        assert!(f.contains(LineAddr(1)));
        // It still takes a slot, as any demand fetch does.
        f.record(LineAddr(2));
        assert!(!f.contains(LineAddr(1)));
        assert!(!f.contains(LineAddr(u64::MAX)));
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = RecentFetchFilter::new(4);
        assert!(!f.contains(LineAddr(0)));
        assert!(!f.contains(LineAddr(u64::MAX)));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        RecentFetchFilter::new(0);
    }
}
