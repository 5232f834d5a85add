//! Miss-status-holding registers: in-flight line fills with completion times.

use ipsim_types::{Cycle, LineAddr};

/// One outstanding fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrEntry {
    /// The line being fetched.
    pub line: LineAddr,
    /// Cycle at which the fill completes.
    pub ready_at: Cycle,
    /// The fill was initiated by a prefetch.
    pub prefetch: bool,
    /// A demand access arrived while the fill was in flight. For a prefetch
    /// this means the prefetch was *late but useful*.
    pub demand_merged: bool,
    /// Zoo slot of the prefetch scheme that issued the fill (`0` for
    /// fills registered through [`Mshr::insert`]), carried to retirement
    /// so the fill can be credited without an attribution lookup.
    pub scheme: u8,
}

/// A bounded set of outstanding fills.
///
/// Capacity models the hardware MSHR count: when full, new misses must stall
/// (demand) or be dropped (prefetch). Lookups are linear — MSHR files are
/// small (8–32 entries) so this is both faithful and fast.
///
/// # Examples
///
/// ```
/// use ipsim_cache::Mshr;
/// use ipsim_types::LineAddr;
///
/// let mut mshr = Mshr::new(2);
/// assert!(mshr.insert(LineAddr(1), 400, true));
/// assert!(mshr.insert(LineAddr(2), 420, false));
/// assert!(!mshr.insert(LineAddr(3), 500, false), "full");
///
/// mshr.merge_demand(LineAddr(1));
/// let mut done = Vec::new();
/// mshr.retire_ready_into(410, &mut done);
/// assert_eq!(done.len(), 1);
/// assert!(done[0].prefetch && done[0].demand_merged);
/// ```
#[derive(Debug, Clone)]
pub struct Mshr {
    entries: Vec<MshrEntry>,
    capacity: usize,
    /// Earliest `ready_at` among `entries` (`Cycle::MAX` when empty),
    /// maintained on insert/retire so the per-access retirement check in
    /// the simulation loop is one comparison instead of a scan.
    next_ready: Cycle,
}

impl Mshr {
    /// Creates an empty MSHR file with room for `capacity` outstanding
    /// fills.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Mshr {
        assert!(capacity > 0, "MSHR capacity must be non-zero");
        Mshr {
            entries: Vec::with_capacity(capacity),
            capacity,
            next_ready: Cycle::MAX,
        }
    }

    /// The entry for `line`, if a fill is in flight.
    pub fn lookup(&self, line: LineAddr) -> Option<&MshrEntry> {
        self.entries.iter().find(|e| e.line == line)
    }

    /// Registers a new in-flight fill. Returns `false` (and does nothing)
    /// when the file is full or the line already has an entry.
    pub fn insert(&mut self, line: LineAddr, ready_at: Cycle, prefetch: bool) -> bool {
        self.push(MshrEntry {
            line,
            ready_at,
            prefetch,
            demand_merged: !prefetch,
            scheme: 0,
        })
    }

    /// Registers an in-flight prefetch fill issued by zoo slot `scheme`;
    /// otherwise exactly [`Mshr::insert`] with `prefetch = true`.
    pub fn insert_prefetch(&mut self, line: LineAddr, ready_at: Cycle, scheme: u8) -> bool {
        self.push(MshrEntry {
            line,
            ready_at,
            prefetch: true,
            demand_merged: false,
            scheme,
        })
    }

    fn push(&mut self, entry: MshrEntry) -> bool {
        if self.entries.len() >= self.capacity || self.lookup(entry.line).is_some() {
            return false;
        }
        self.next_ready = self.next_ready.min(entry.ready_at);
        self.entries.push(entry);
        true
    }

    /// Marks that a demand access merged into the in-flight fill for
    /// `line`. Returns the fill's completion time if present.
    pub fn merge_demand(&mut self, line: LineAddr) -> Option<Cycle> {
        let e = self.entries.iter_mut().find(|e| e.line == line)?;
        e.demand_merged = true;
        Some(e.ready_at)
    }

    /// Removes every fill that has completed by `now`, appending it to
    /// `done` — a caller-owned buffer, so the hot simulation loop reuses
    /// one per core and retiring fills never allocates.
    pub fn retire_ready_into(&mut self, now: Cycle, done: &mut Vec<MshrEntry>) {
        if now < self.next_ready {
            return;
        }
        let mut remaining_min = Cycle::MAX;
        self.entries.retain(|e| {
            if e.ready_at <= now {
                done.push(*e);
                false
            } else {
                remaining_min = remaining_min.min(e.ready_at);
                true
            }
        });
        self.next_ready = remaining_min;
    }

    /// Number of outstanding fills.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` when no further fill can be registered.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Earliest completion time among outstanding fills.
    pub fn next_ready_at(&self) -> Option<Cycle> {
        (self.next_ready != Cycle::MAX).then_some(self.next_ready)
    }

    /// `true` when no outstanding fill has completed by `now` — the O(1)
    /// common case the simulation loop checks before draining.
    #[inline]
    pub fn none_ready(&self, now: Cycle) -> bool {
        now < self.next_ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_respects_capacity_and_dedup() {
        let mut m = Mshr::new(2);
        assert!(m.insert(LineAddr(1), 10, false));
        assert!(!m.insert(LineAddr(1), 20, false), "duplicate line");
        assert!(m.insert(LineAddr(2), 10, false));
        assert!(m.is_full());
        assert!(!m.insert(LineAddr(3), 10, false));
    }

    #[test]
    fn retire_ready_into_removes_only_completed() {
        let mut m = Mshr::new(4);
        m.insert(LineAddr(1), 10, false);
        m.insert(LineAddr(2), 20, true);
        let mut done = Vec::new();
        m.retire_ready_into(15, &mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].line, LineAddr(1));
        assert_eq!(m.len(), 1);
        assert_eq!(m.next_ready_at(), Some(20));
    }

    #[test]
    fn demand_merge_flags_prefetch_useful() {
        let mut m = Mshr::new(2);
        m.insert(LineAddr(5), 100, true);
        assert!(!m.lookup(LineAddr(5)).unwrap().demand_merged);
        assert_eq!(m.merge_demand(LineAddr(5)), Some(100));
        assert!(m.lookup(LineAddr(5)).unwrap().demand_merged);
        assert_eq!(m.merge_demand(LineAddr(9)), None);
    }

    #[test]
    fn prefetch_insert_carries_its_scheme_to_retirement() {
        let mut m = Mshr::new(2);
        assert!(m.insert_prefetch(LineAddr(6), 50, 3));
        assert!(!m.insert_prefetch(LineAddr(6), 60, 1), "duplicate line");
        let mut done = Vec::new();
        m.retire_ready_into(50, &mut done);
        assert_eq!((done[0].prefetch, done[0].demand_merged), (true, false));
        assert_eq!(done[0].scheme, 3);
    }

    #[test]
    fn demand_insert_starts_merged() {
        let mut m = Mshr::new(1);
        m.insert(LineAddr(5), 100, false);
        assert!(m.lookup(LineAddr(5)).unwrap().demand_merged);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        Mshr::new(0);
    }
}
