//! A MANA-style spatial-region instruction prefetcher (after Ansari et
//! al., arXiv 2102.01764, simplified to line granularity).
//!
//! The fetch stream is divided into aligned *spatial regions* of
//! `region_lines` lines. While the front end stays inside a region the
//! prefetcher records which of its lines were touched (the *footprint*
//! bitmap); when the stream leaves, the finished footprint is committed
//! to a direct-mapped metadata table and chained to the region the stream
//! entered next. Re-entering a recorded region replays its footprint
//! (sequential-class requests) and follows the chain one hop to replay
//! the successor region's footprint too (target-class requests) — the
//! "metadata chaining" that lets MANA run ahead of the fetch stream.

use ipsim_core::{FetchEvent, PrefetchEngine, PrefetchRequest, PrefetchSource};
use ipsim_types::LineAddr;

#[derive(Debug, Clone, Copy)]
struct Region {
    /// Aligned base line of the region.
    base: LineAddr,
    /// Bit `i` set ⇔ line `base + i` was fetched during a visit.
    footprint: u64,
    /// Region the stream entered after leaving this one.
    next: Option<LineAddr>,
}

/// Spatial-region + chained-metadata-table prefetcher.
#[derive(Debug)]
pub struct ManaPrefetcher {
    table: Vec<Option<Region>>,
    mask: usize,
    /// Lines per region (power of two, ≤ 64 so a footprint fits in u64).
    region_lines: u64,
    degree: usize,
    /// Region currently being recorded.
    current: Option<(LineAddr, u64)>,
}

impl ManaPrefetcher {
    /// A prefetcher with `regions` metadata entries over regions of
    /// `region_lines` lines, emitting at most `degree` prefetches per
    /// region entry.
    pub fn new(regions: usize, region_lines: u64, degree: usize) -> ManaPrefetcher {
        let entries = regions.next_power_of_two().max(1);
        assert!(
            region_lines.is_power_of_two() && region_lines <= 64,
            "region_lines must be a power of two <= 64"
        );
        ManaPrefetcher {
            table: vec![None; entries],
            mask: entries - 1,
            region_lines,
            degree: degree.max(1),
            current: None,
        }
    }

    fn base_of(&self, line: LineAddr) -> LineAddr {
        LineAddr(line.0 & !(self.region_lines - 1))
    }

    fn index(&self, base: LineAddr) -> usize {
        let region_id = base.0 / self.region_lines;
        (region_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.mask
    }

    fn lookup(&self, base: LineAddr) -> Option<Region> {
        self.table[self.index(base)].filter(|r| r.base == base)
    }

    /// Commits the finished footprint of `base`, chaining it to the region
    /// the stream entered (`next`). A revisit merges its footprint into
    /// the stored one; a tag conflict evicts the old region.
    fn commit(&mut self, base: LineAddr, footprint: u64, next: LineAddr) {
        let idx = self.index(base);
        match &mut self.table[idx] {
            Some(r) if r.base == base => {
                r.footprint |= footprint;
                r.next = Some(next);
            }
            slot => {
                *slot = Some(Region {
                    base,
                    footprint,
                    next: Some(next),
                });
            }
        }
    }

    /// Replays `region`'s footprint (minus the demand line), spending
    /// `budget`; returns `false` once the budget is exhausted.
    fn replay(
        &self,
        region: &Region,
        skip: Option<LineAddr>,
        source: PrefetchSource,
        budget: &mut usize,
        out: &mut Vec<PrefetchRequest>,
    ) -> bool {
        for bit in 0..self.region_lines {
            if region.footprint & (1 << bit) == 0 {
                continue;
            }
            let line = LineAddr(region.base.0 + bit);
            if Some(line) == skip {
                continue;
            }
            if *budget == 0 {
                return false;
            }
            out.push(PrefetchRequest::new(line, source));
            *budget -= 1;
        }
        true
    }
}

impl PrefetchEngine for ManaPrefetcher {
    fn on_fetch(&mut self, ev: &FetchEvent, out: &mut Vec<PrefetchRequest>) {
        let base = self.base_of(ev.line);
        let entered = match self.current {
            Some((cur_base, _)) => cur_base != base,
            None => true,
        };
        if entered {
            // Commit the region the stream just left, chained to here.
            if let Some((prev_base, footprint)) = self.current.take() {
                self.commit(prev_base, footprint, base);
            }
            self.current = Some((base, 0));
            // Replay this region's recorded footprint, then chase the
            // chain one hop so the successor region is in flight before
            // the stream reaches it.
            if let Some(region) = self.lookup(base) {
                let mut budget = self.degree;
                if self.replay(
                    &region,
                    Some(ev.line),
                    PrefetchSource::Sequential,
                    &mut budget,
                    out,
                ) {
                    if let Some(next) = region.next.and_then(|n| self.lookup(n)) {
                        self.replay(&next, None, PrefetchSource::Target, &mut budget, out);
                    }
                }
            }
        }
        if let Some((_, footprint)) = &mut self.current {
            *footprint |= 1 << (ev.line.0 & (self.region_lines - 1));
        }
    }

    fn name(&self) -> &'static str {
        "mana"
    }

    // Usefulness feedback is implicit: footprints only ever record demand
    // fetches, so a wrong prediction can persist only until the region's
    // next recorded visit overwrites the chain.
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(pf: &mut ManaPrefetcher, line: u64, prev: Option<u64>) -> Vec<(u64, PrefetchSource)> {
        let mut out = Vec::new();
        pf.on_fetch(
            &FetchEvent::miss(LineAddr(line), prev.map(LineAddr)),
            &mut out,
        );
        out.iter().map(|r| (r.line.0, r.source)).collect()
    }

    #[test]
    fn replays_recorded_footprint_on_reentry() {
        let mut pf = ManaPrefetcher::new(64, 8, 8);
        // Visit region [0..8): touch 0, 2, 5. Then leave to region 16.
        drive(&mut pf, 0, None);
        drive(&mut pf, 2, Some(0));
        drive(&mut pf, 5, Some(2));
        drive(&mut pf, 16, Some(5));
        // Re-enter at line 0: the other footprint lines replay
        // (sequential class), then the chain hops into the recorded
        // successor region (target class).
        let got = drive(&mut pf, 0, Some(16));
        assert_eq!(
            got,
            [
                (2, PrefetchSource::Sequential),
                (5, PrefetchSource::Sequential),
                (16, PrefetchSource::Target),
            ]
        );
    }

    #[test]
    fn chains_into_the_successor_region() {
        let mut pf = ManaPrefetcher::new(64, 8, 8);
        // Region 0 {0,1} → region 16 {16,17} → region 32.
        drive(&mut pf, 0, None);
        drive(&mut pf, 1, Some(0));
        drive(&mut pf, 16, Some(1));
        drive(&mut pf, 17, Some(16));
        drive(&mut pf, 32, Some(17));
        // Re-entering region 0 replays {1} and chases into region 16.
        let got = drive(&mut pf, 0, Some(32));
        assert_eq!(
            got,
            [
                (1, PrefetchSource::Sequential),
                (16, PrefetchSource::Target),
                (17, PrefetchSource::Target),
            ]
        );
    }

    #[test]
    fn degree_caps_the_replay() {
        let mut pf = ManaPrefetcher::new(64, 8, 2);
        for l in 0..8 {
            drive(&mut pf, l, l.checked_sub(1));
        }
        drive(&mut pf, 100, Some(7));
        let got = drive(&mut pf, 0, Some(100));
        assert_eq!(got.len(), 2, "degree=2 must cap the 7-line replay");
    }

    #[test]
    fn unknown_region_emits_nothing() {
        let mut pf = ManaPrefetcher::new(64, 8, 8);
        assert!(drive(&mut pf, 1000, None).is_empty());
    }
}
