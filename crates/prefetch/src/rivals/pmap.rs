//! Program-map traversal prefetching (after arXiv 2406.06738): learn the
//! program's block graph — basic-block start lines, their sequential body
//! lengths, and up to two control-flow successors each — then, on every
//! miss or discontinuity, *traverse* the map several edges ahead of the
//! fetch stream, prefetching block bodies and successor blocks along the
//! way.
//!
//! Edges carry 2-bit confidence counters reinforced through the shadow
//! feedback loop: a useful prefetch strengthens the edge that produced it
//! (via its `Discontinuity { table_index }` source), an unused eviction
//! weakens it, and edges that decay to zero stop being traversed.

use ipsim_core::{FetchEvent, PrefetchEngine, PrefetchRequest, PrefetchSource};
use ipsim_types::LineAddr;

/// Successor ways per block-graph node.
const WAYS: u32 = 2;
/// Confidence ceiling (2-bit saturating counters).
const CONF_MAX: u8 = 3;
/// Initial confidence of a freshly learned edge.
const CONF_INIT: u8 = 1;
/// Longest sequential body recorded per block, in lines.
const MAX_BODY: u8 = 32;

#[derive(Debug, Clone, Copy)]
struct Edge {
    target: LineAddr,
    conf: u8,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    /// Block-start line this node describes.
    line: LineAddr,
    /// Sequential lines observed after `line` before the block's
    /// discontinuity.
    body: u8,
    succ: [Option<Edge>; WAYS as usize],
}

/// Block-graph traversal prefetcher.
#[derive(Debug)]
pub struct ProgramMapPrefetcher {
    nodes: Vec<Option<Node>>,
    mask: usize,
    depth: u32,
    degree: usize,
    /// Start line of the block currently being fetched.
    block_start: Option<LineAddr>,
}

impl ProgramMapPrefetcher {
    /// A prefetcher with a `nodes`-entry block-graph table, traversing
    /// `depth` edges ahead and emitting at most `degree` prefetches per
    /// trigger.
    pub fn new(nodes: usize, depth: u32, degree: usize) -> ProgramMapPrefetcher {
        let entries = nodes.next_power_of_two().max(1);
        ProgramMapPrefetcher {
            nodes: vec![None; entries],
            mask: entries - 1,
            depth: depth.max(1),
            degree: degree.max(1),
            block_start: None,
        }
    }

    fn index(&self, line: LineAddr) -> usize {
        (line.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.mask
    }

    fn node_mut(&mut self, line: LineAddr) -> &mut Node {
        let idx = self.index(line);
        let slot = &mut self.nodes[idx];
        match slot {
            Some(n) if n.line == line => {}
            _ => {
                // Direct-mapped: a tag conflict evicts the old block.
                *slot = Some(Node {
                    line,
                    body: 0,
                    succ: [None; WAYS as usize],
                });
            }
        }
        slot.as_mut().unwrap()
    }

    fn lookup(&self, line: LineAddr) -> Option<(usize, Node)> {
        let idx = self.index(line);
        self.nodes[idx].filter(|n| n.line == line).map(|n| (idx, n))
    }

    /// Learns the edge `from → to` and the body length of `from`'s block.
    fn learn(&mut self, block_start: LineAddr, exit: LineAddr, to: LineAddr) {
        // The exit must lie within a plausible block body after the
        // tracked start; anything else means the tracker lost the stream
        // (e.g. after a reset) and would poison the node.
        if exit.0 < block_start.0 || exit.0 - block_start.0 > MAX_BODY as u64 {
            return;
        }
        let body = (exit.0 - block_start.0) as u8;
        let node = self.node_mut(block_start);
        node.body = node.body.max(body);
        // Known edge: reinforce. Otherwise take an empty way, or replace
        // the weakest one.
        if let Some(e) = node.succ.iter_mut().flatten().find(|e| e.target == to) {
            e.conf = (e.conf + 1).min(CONF_MAX);
            return;
        }
        let way = match node.succ.iter().position(|s| s.is_none()) {
            Some(w) => w,
            None => {
                let weakest = node
                    .succ
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.map(|e| e.conf).unwrap_or(0))
                    .map(|(w, _)| w)
                    .unwrap_or(0);
                if node.succ[weakest].map(|e| e.conf).unwrap_or(0) > CONF_INIT {
                    return; // Both ways are established; don't thrash.
                }
                weakest
            }
        };
        node.succ[way] = Some(Edge {
            target: to,
            conf: CONF_INIT,
        });
    }

    /// Breadth-first traversal of the block graph from `from`, emitting
    /// block bodies (sequential class) and successor block starts
    /// (discontinuity class, tagged with the edge's table index for
    /// confidence feedback).
    fn traverse(&self, from: LineAddr, out: &mut Vec<PrefetchRequest>) {
        let mut budget = self.degree;
        let mut frontier: Vec<(LineAddr, u32)> = vec![(from, 0)];
        let mut visited: Vec<LineAddr> = vec![from];
        while let Some((line, d)) = frontier.pop() {
            let Some((idx, node)) = self.lookup(line) else {
                continue;
            };
            for k in 1..=node.body as u64 {
                if budget == 0 {
                    return;
                }
                out.push(PrefetchRequest::sequential(line.ahead(k)));
                budget -= 1;
            }
            if d >= self.depth {
                continue;
            }
            for (way, edge) in node.succ.iter().enumerate() {
                let Some(edge) = edge else { continue };
                if edge.conf == 0 || visited.contains(&edge.target) {
                    continue;
                }
                visited.push(edge.target);
                if budget == 0 {
                    return;
                }
                let table_index = (idx as u32) * WAYS + way as u32;
                out.push(PrefetchRequest::new(
                    edge.target,
                    PrefetchSource::Discontinuity { table_index },
                ));
                budget -= 1;
                frontier.push((edge.target, d + 1));
            }
        }
    }

    fn edge_mut(&mut self, table_index: u32) -> Option<&mut Edge> {
        let idx = (table_index / WAYS) as usize;
        let way = (table_index % WAYS) as usize;
        self.nodes.get_mut(idx)?.as_mut()?.succ[way].as_mut()
    }
}

impl PrefetchEngine for ProgramMapPrefetcher {
    fn on_fetch(&mut self, ev: &FetchEvent, out: &mut Vec<PrefetchRequest>) {
        // Train: a discontinuity closes the current block and records the
        // control-flow edge that left it.
        if ev.is_discontinuity() {
            if let (Some(start), Some(exit)) = (self.block_start, ev.prev_line) {
                self.learn(start, exit, ev.line);
            }
            self.block_start = Some(ev.line);
        } else if self.block_start.is_none() {
            self.block_start = Some(ev.line);
        }
        // Predict: traverse the map ahead of misses and taken edges.
        if ev.miss || ev.is_discontinuity() {
            self.traverse(ev.line, out);
        }
    }

    fn on_useful(&mut self, _line: LineAddr, source: PrefetchSource, _late: bool) {
        if let PrefetchSource::Discontinuity { table_index } = source {
            if let Some(e) = self.edge_mut(table_index) {
                e.conf = (e.conf + 1).min(CONF_MAX);
            }
        }
    }

    fn on_evict(&mut self, _line: LineAddr, source: PrefetchSource, used: bool) {
        if used {
            return;
        }
        if let PrefetchSource::Discontinuity { table_index } = source {
            if let Some(e) = self.edge_mut(table_index) {
                e.conf = e.conf.saturating_sub(1);
            }
        }
    }

    fn name(&self) -> &'static str {
        "pmap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(pf: &mut ProgramMapPrefetcher, line: u64, prev: Option<u64>, miss: bool) -> Vec<u64> {
        let mut out = Vec::new();
        let ev = FetchEvent {
            line: LineAddr(line),
            miss,
            first_use_of_prefetch: false,
            prev_line: prev.map(LineAddr),
        };
        pf.on_fetch(&ev, &mut out);
        out.iter().map(|r| r.line.0).collect()
    }

    /// Walks blocks 100→(101,102)→200→(201)→300 twice; the second lap the
    /// map is learned and a miss at 100 traverses two edges ahead.
    fn train_two_blocks(pf: &mut ProgramMapPrefetcher) {
        for _ in 0..2 {
            drive(pf, 100, Some(300), true);
            drive(pf, 101, Some(100), false);
            drive(pf, 102, Some(101), false);
            drive(pf, 200, Some(102), true);
            drive(pf, 201, Some(200), false);
            drive(pf, 300, Some(201), true);
        }
    }

    #[test]
    fn traverses_learned_blocks_depth_first_of_the_graph() {
        let mut pf = ProgramMapPrefetcher::new(256, 3, 16);
        train_two_blocks(&mut pf);
        let got = drive(&mut pf, 100, Some(300), true);
        // Body of 100 (101,102), edge to 200, body of 200 (201), edge to
        // 300 — two edges ahead of the demand stream.
        assert!(got.contains(&101) && got.contains(&102), "{got:?}");
        assert!(got.contains(&200), "{got:?}");
        assert!(got.contains(&201), "{got:?}");
        assert!(got.contains(&300), "{got:?}");
    }

    #[test]
    fn depth_limits_the_traversal() {
        let mut pf = ProgramMapPrefetcher::new(256, 1, 16);
        train_two_blocks(&mut pf);
        let got = drive(&mut pf, 100, Some(300), true);
        assert!(got.contains(&200), "one edge is within depth: {got:?}");
        assert!(!got.contains(&300), "two edges exceeds depth=1: {got:?}");
    }

    #[test]
    fn unused_evictions_decay_edges_to_silence() {
        let mut pf = ProgramMapPrefetcher::new(256, 3, 16);
        train_two_blocks(&mut pf);
        let got = drive(&mut pf, 100, Some(300), true);
        assert!(got.contains(&200));
        // Find the edge's table index from the emitted source and decay it.
        let mut out = Vec::new();
        pf.traverse(LineAddr(100), &mut out);
        let src = out
            .iter()
            .find(|r| r.line.0 == 200)
            .map(|r| r.source)
            .unwrap();
        for _ in 0..4 {
            pf.on_evict(LineAddr(200), src, false);
        }
        let got = drive(&mut pf, 100, Some(300), true);
        assert!(
            !got.contains(&200),
            "decayed edge must stop being traversed: {got:?}"
        );
        // Usefulness feedback revives it.
        pf.on_useful(LineAddr(200), src, false);
        let got = drive(&mut pf, 100, Some(300), true);
        assert!(got.contains(&200), "{got:?}");
    }

    #[test]
    fn hits_inside_a_block_emit_nothing() {
        let mut pf = ProgramMapPrefetcher::new(256, 3, 16);
        train_two_blocks(&mut pf);
        assert!(drive(&mut pf, 101, Some(100), false).is_empty());
    }
}
