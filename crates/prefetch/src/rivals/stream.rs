//! The stream-buffer next-line baseline: a handful of miss-allocated
//! trackers, each following one sequential fetch stream and keeping
//! `degree` lines of headroom ahead of it.

use ipsim_core::{FetchEvent, PrefetchEngine, PrefetchRequest};
use ipsim_types::LineAddr;

#[derive(Debug, Clone, Copy)]
struct Tracker {
    /// Last demand line observed on this stream.
    last: LineAddr,
    /// Next line to prefetch (everything below is already requested).
    head: u64,
    /// LRU stamp for replacement.
    stamp: u64,
}

/// Classic stream prefetcher: allocate a tracker on a miss, advance it on
/// sequential hits, prefetch up to `degree` lines ahead of the stream.
#[derive(Debug)]
pub struct StreamPrefetcher {
    trackers: Vec<Tracker>,
    max_streams: usize,
    degree: u32,
    clock: u64,
}

impl StreamPrefetcher {
    /// A prefetcher with `max_streams` trackers and `degree` lines of
    /// headroom per stream.
    pub fn new(max_streams: usize, degree: u32) -> StreamPrefetcher {
        StreamPrefetcher {
            trackers: Vec::with_capacity(max_streams),
            max_streams: max_streams.max(1),
            degree: degree.max(1),
            clock: 0,
        }
    }

    /// Emits prefetches for tracker `i` so its headroom again reaches
    /// `degree` lines past `last`.
    fn top_up(&mut self, i: usize, out: &mut Vec<PrefetchRequest>) {
        let t = &mut self.trackers[i];
        let goal = t.last.0 + 1 + self.degree as u64;
        let mut next = t.head.max(t.last.0 + 1);
        while next < goal {
            out.push(PrefetchRequest::sequential(LineAddr(next)));
            next += 1;
        }
        t.head = next;
    }
}

impl PrefetchEngine for StreamPrefetcher {
    fn on_fetch(&mut self, ev: &FetchEvent, out: &mut Vec<PrefetchRequest>) {
        self.clock += 1;
        // A fetch continues a stream when it lands on the tracker's line
        // or the next one.
        let hit = self
            .trackers
            .iter()
            .position(|t| ev.line == t.last || ev.line.is_sequential_after(t.last));
        if let Some(i) = hit {
            self.trackers[i].last = ev.line;
            self.trackers[i].stamp = self.clock;
            self.top_up(i, out);
            return;
        }
        if !ev.miss {
            return;
        }
        // Allocate (or steal the LRU tracker) on a miss outside every
        // stream.
        let t = Tracker {
            last: ev.line,
            head: ev.line.0 + 1,
            stamp: self.clock,
        };
        let i = if self.trackers.len() < self.max_streams {
            self.trackers.push(t);
            self.trackers.len() - 1
        } else {
            let lru = self
                .trackers
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| t.stamp)
                .map(|(i, _)| i)
                .unwrap_or(0);
            self.trackers[lru] = t;
            lru
        };
        self.top_up(i, out);
    }

    fn name(&self) -> &'static str {
        "stream"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(pf: &mut StreamPrefetcher, ev: FetchEvent) -> Vec<u64> {
        let mut out = Vec::new();
        pf.on_fetch(&ev, &mut out);
        out.iter().map(|r| r.line.0).collect()
    }

    #[test]
    fn allocates_on_miss_and_advances_on_sequential_hits() {
        let mut pf = StreamPrefetcher::new(2, 3);
        assert_eq!(
            drive(&mut pf, FetchEvent::miss(LineAddr(100), None)),
            [101, 102, 103]
        );
        // Advancing one line extends the headroom by exactly one.
        assert_eq!(
            drive(&mut pf, FetchEvent::hit(LineAddr(101), Some(LineAddr(100)))),
            [104]
        );
        // A re-fetch of the same line adds nothing.
        assert_eq!(
            drive(&mut pf, FetchEvent::hit(LineAddr(101), Some(LineAddr(101)))),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn lru_tracker_is_stolen_when_full() {
        let mut pf = StreamPrefetcher::new(1, 2);
        drive(&mut pf, FetchEvent::miss(LineAddr(100), None));
        // A distant miss steals the only tracker and restarts there.
        assert_eq!(
            drive(
                &mut pf,
                FetchEvent::miss(LineAddr(500), Some(LineAddr(100)))
            ),
            [501, 502]
        );
    }

    #[test]
    fn hits_outside_any_stream_emit_nothing() {
        let mut pf = StreamPrefetcher::new(2, 2);
        drive(&mut pf, FetchEvent::miss(LineAddr(100), None));
        assert_eq!(
            drive(&mut pf, FetchEvent::hit(LineAddr(900), Some(LineAddr(100)))),
            Vec::<u64>::new()
        );
    }
}
