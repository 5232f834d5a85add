//! The memory-level-parallelism window: a ROB-sized bound on how far
//! execution runs ahead of outstanding data misses.

use std::collections::VecDeque;

use ipsim_types::Cycle;

/// Models out-of-order overlap of data misses without per-register
/// dependence tracking.
///
/// Each outstanding load miss is remembered with the index of the
/// instruction that issued it and its completion time. Execution may run at
/// most `capacity` (ROB entries) instructions past an incomplete miss;
/// [`MlpWindow::advance`] charges the stall needed to honour that bound.
/// Independent misses within the window overlap fully — the behaviour the
/// paper contrasts with front-end instruction misses, which stall the
/// pipeline outright.
///
/// # Examples
///
/// ```
/// use ipsim_cpu::MlpWindow;
///
/// let mut w = MlpWindow::new(64);
/// w.note_miss(100, 500); // instruction #100 missed; data ready at cycle 500
/// // 63 instructions later: still within the window, no stall.
/// assert_eq!(w.advance(163, 40), 40);
/// // The window closes at instruction 164: stall until the miss resolves.
/// assert_eq!(w.advance(164, 40), 500);
/// ```
#[derive(Debug, Clone)]
pub struct MlpWindow {
    pending: VecDeque<(u64, Cycle)>,
    capacity: u64,
}

impl MlpWindow {
    /// Creates a window of `capacity` instructions (the ROB size).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64) -> MlpWindow {
        assert!(capacity > 0, "window capacity must be non-zero");
        MlpWindow {
            pending: VecDeque::new(),
            capacity,
        }
    }

    /// Records that the instruction at index `instr_idx` issued a data miss
    /// completing at `ready`.
    pub fn note_miss(&mut self, instr_idx: u64, ready: Cycle) {
        self.pending.push_back((instr_idx, ready));
    }

    /// Advances to instruction `current_idx` at time `clock`; returns the
    /// (possibly increased) clock after honouring the window bound, and
    /// retires completed misses.
    pub fn advance(&mut self, current_idx: u64, mut clock: Cycle) -> Cycle {
        while let Some(&(idx, ready)) = self.pending.front() {
            if idx + self.capacity <= current_idx {
                // The ROB cannot hold this miss and the current instruction
                // simultaneously: wait for the miss to resolve.
                clock = clock.max(ready);
                self.pending.pop_front();
            } else if ready <= clock {
                self.pending.pop_front();
            } else {
                break;
            }
        }
        clock
    }

    /// Number of outstanding (unretired) misses.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_misses_overlap_within_window() {
        let mut w = MlpWindow::new(64);
        w.note_miss(10, 400);
        w.note_miss(11, 410);
        w.note_miss(12, 420);
        // At instruction 70 (within 64 of all three): no stall.
        assert_eq!(w.advance(70, 50), 50);
        assert_eq!(w.outstanding(), 3);
        // At instruction 75 the first two misses (10, 11) leave the
        // window; waiting for them covers most of the third's latency.
        let clock = w.advance(75, 50);
        assert_eq!(clock, 410);
        assert_eq!(w.outstanding(), 1);
        // The third retires with only 10 further stall cycles.
        let clock = w.advance(77, clock);
        assert_eq!(clock, 420);
        assert_eq!(w.outstanding(), 0);
    }

    #[test]
    fn completed_misses_retire_without_stall() {
        let mut w = MlpWindow::new(4);
        w.note_miss(0, 10);
        assert_eq!(w.advance(1, 50), 50);
        assert_eq!(w.outstanding(), 0);
    }

    #[test]
    fn window_bound_is_exact() {
        let mut w = MlpWindow::new(8);
        w.note_miss(100, 999);
        assert_eq!(w.advance(107, 5), 5, "index 107 < 100+8");
        assert_eq!(w.advance(108, 5), 999, "index 108 hits the bound");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        MlpWindow::new(0);
    }
}
