//! The shared off-chip bus: a bandwidth-limited transfer queue.

use ipsim_types::Cycle;

/// Models off-chip bandwidth as a single shared channel: each cache-line
/// transfer occupies the channel for `transfer_cycles` (64 B at 10 GB/s on a
/// 3 GHz core is 19.2 cycles; 9.6 at 20 GB/s), and transfers queue behind
/// one another. Memory latency is added on top of the queueing delay, so a
/// burst of prefetches visibly delays subsequent demand misses.
///
/// # Examples
///
/// ```
/// use ipsim_cpu::Bus;
///
/// let mut bus = Bus::new(19.2);
/// let first = bus.request(0, 400);
/// let second = bus.request(0, 400);
/// assert!(second > first, "the second transfer queued behind the first");
/// ```
#[derive(Debug, Clone)]
pub struct Bus {
    next_free: f64,
    transfer_cycles: f64,
    transfers: u64,
    queue_cycles: f64,
}

impl Bus {
    /// Creates a bus where each line transfer takes `transfer_cycles` bus
    /// cycles.
    ///
    /// # Panics
    ///
    /// Panics if `transfer_cycles` is not positive and finite.
    pub fn new(transfer_cycles: f64) -> Bus {
        assert!(
            transfer_cycles > 0.0 && transfer_cycles.is_finite(),
            "transfer cycles must be positive"
        );
        Bus {
            next_free: 0.0,
            transfer_cycles,
            transfers: 0,
            queue_cycles: 0.0,
        }
    }

    /// Requests a line transfer at local time `now`; returns the cycle at
    /// which the line arrives (`queueing + mem_latency + transfer`).
    pub fn request(&mut self, now: Cycle, mem_latency: Cycle) -> Cycle {
        let start = (now as f64).max(self.next_free);
        self.queue_cycles += start - now as f64;
        self.next_free = start + self.transfer_cycles;
        self.transfers += 1;
        (start + mem_latency as f64 + self.transfer_cycles).ceil() as Cycle
    }

    /// Occupies the bus for one transfer without a completion (eviction
    /// writebacks).
    pub fn occupy(&mut self, now: Cycle) {
        let start = (now as f64).max(self.next_free);
        self.next_free = start + self.transfer_cycles;
        self.transfers += 1;
    }

    /// Total line transfers so far.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Total cycles requests spent queueing behind earlier transfers.
    pub fn queue_cycles(&self) -> f64 {
        self.queue_cycles
    }

    /// Resets counters (not the channel state) at the end of warm-up.
    pub fn reset_stats(&mut self) {
        self.transfers = 0;
        self.queue_cycles = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_request_takes_latency_plus_transfer() {
        let mut b = Bus::new(19.2);
        let ready = b.request(100, 400);
        assert_eq!(ready, (100.0_f64 + 400.0 + 19.2).ceil() as u64);
        assert_eq!(b.transfers(), 1);
        assert_eq!(b.queue_cycles(), 0.0);
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut b = Bus::new(10.0);
        let a = b.request(0, 400);
        let c = b.request(0, 400);
        assert_eq!(a, 410);
        assert_eq!(c, 420, "queued 10 cycles behind the first");
        assert_eq!(b.queue_cycles(), 10.0);
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let mut b = Bus::new(10.0);
        b.request(0, 400);
        let later = b.request(1000, 400);
        assert_eq!(later, 1410);
        assert_eq!(b.queue_cycles(), 0.0);
    }

    #[test]
    fn occupy_delays_subsequent_requests() {
        let mut b = Bus::new(10.0);
        b.occupy(0);
        let r = b.request(0, 400);
        assert_eq!(r, 420);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_transfer_cycles_panics() {
        Bus::new(0.0);
    }
}
