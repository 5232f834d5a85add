//! Property-based tests: the set-associative cache must agree with a naive
//! reference model under arbitrary operation sequences.

use std::collections::VecDeque;

use ipsim_cache::{Access, FillKind, SetAssocCache};
use ipsim_types::{CacheConfig, LineAddr};
use proptest::prelude::*;

/// A trivially correct reference: per-set VecDeque in LRU order.
struct RefCache {
    sets: Vec<VecDeque<u64>>,
    ways: usize,
    mask: u64,
}

impl RefCache {
    fn new(sets: usize, ways: usize) -> RefCache {
        RefCache {
            sets: vec![VecDeque::new(); sets],
            ways,
            mask: sets as u64 - 1,
        }
    }

    fn set(&mut self, line: u64) -> &mut VecDeque<u64> {
        &mut self.sets[(line & self.mask) as usize]
    }

    fn access(&mut self, line: u64) -> bool {
        let set = self.set(line);
        if let Some(pos) = set.iter().position(|&l| l == line) {
            let v = set.remove(pos).unwrap();
            set.push_front(v);
            true
        } else {
            false
        }
    }

    /// Fills `line`, returning the evicted LRU line if the set was full —
    /// the old `Vec`-based `Set` semantics the flat lanes must reproduce.
    fn fill(&mut self, line: u64) -> Option<u64> {
        let ways = self.ways;
        let set = self.set(line);
        if let Some(pos) = set.iter().position(|&l| l == line) {
            let v = set.remove(pos).unwrap();
            set.push_front(v);
            return None;
        }
        let victim = if set.len() == ways {
            set.pop_back()
        } else {
            None
        };
        set.push_front(line);
        victim
    }

    fn resident_sorted(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self.sets.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    fn probe(&mut self, line: u64) -> bool {
        let set = self.set(line);
        set.iter().any(|&l| l == line)
    }

    /// Removes `line` if resident, reporting whether it was.
    fn invalidate(&mut self, line: u64) -> bool {
        let set = self.set(line);
        let pos = set.iter().position(|&l| l == line);
        pos.map(|pos| set.remove(pos)).is_some()
    }
}

/// Every associativity the order properties run at, over 4 sets of
/// 64-byte lines.
const WAYS: [usize; 5] = [1, 2, 4, 8, 16];

fn cache_of(ways: usize) -> SetAssocCache {
    SetAssocCache::new(CacheConfig::new(4 * ways as u64 * 64, ways as u32, 64).unwrap())
}

#[derive(Debug, Clone)]
enum Op {
    Access(u64),
    Fill(u64, bool),
    Probe(u64),
    Invalidate(u64),
}

fn op_strategy(max_line: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..max_line).prop_map(Op::Access),
        ((0..max_line), any::<bool>()).prop_map(|(l, p)| Op::Fill(l, p)),
        (0..max_line).prop_map(Op::Probe),
        (0..max_line).prop_map(Op::Invalidate),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hits, misses, probes and residency always agree with the reference
    /// model, for every operation order.
    #[test]
    fn cache_matches_reference_model(ops in prop::collection::vec(op_strategy(64), 1..400)) {
        // 4 sets x 2 ways.
        let mut dut = cache_of(2);
        let mut re = RefCache::new(4, 2);
        for op in ops {
            match op {
                Op::Access(l) => {
                    let hit = dut.access(LineAddr(l)).is_hit();
                    prop_assert_eq!(hit, re.access(l), "access {}", l);
                }
                Op::Fill(l, p) => {
                    let kind = if p { FillKind::Prefetch } else { FillKind::Demand };
                    // The victim must be the exact line the list-LRU
                    // reference evicts — not just "some line of the set".
                    // This is what makes per-set stamp LRU provably
                    // order-equivalent to the old `Vec`-based `Set`.
                    let victim = dut.fill(LineAddr(l), kind).map(|v| v.line.0);
                    prop_assert_eq!(victim, re.fill(l), "fill {} victim", l);
                }
                Op::Probe(l) => {
                    prop_assert_eq!(dut.probe(LineAddr(l)), re.probe(l), "probe {}", l);
                }
                Op::Invalidate(l) => {
                    let was = dut.invalidate(LineAddr(l)).is_some();
                    prop_assert_eq!(was, re.invalidate(l), "invalidate {}", l);
                }
            }
            prop_assert!(dut.resident_lines() <= 8);
        }
        // Same resident population at the end, not merely the same count.
        let mut dut_lines: Vec<u64> = dut.iter_lines().map(|l| l.0).collect();
        dut_lines.sort_unstable();
        prop_assert_eq!(dut_lines, re.resident_sorted());
    }

    /// Fill/touch streams with occasional invalidations drive every set
    /// through full-capacity churn and through the gaps an invalidation
    /// leaves; at every associativity the eviction *sequence* must match
    /// the reference model exactly, element for element.
    #[test]
    fn eviction_sequence_matches_reference(stream in prop::collection::vec(0u64..1 << 16, 1..600)) {
        for ways in WAYS {
            // Three lines per way of every set, so sets keep overflowing.
            let span = 12 * ways as u64;
            let mut dut = cache_of(ways);
            let mut re = RefCache::new(4, ways);
            let mut dut_evictions = Vec::new();
            let mut ref_evictions = Vec::new();
            for (i, &l) in stream.iter().enumerate() {
                let l = l % span;
                if i % 7 == 6 {
                    let was = dut.invalidate(LineAddr(l)).is_some();
                    prop_assert_eq!(was, re.invalidate(l), "{} ways: invalidate {}", ways, l);
                } else if i % 3 == 0 {
                    // Interleave demand accesses so LRU promotion order matters.
                    dut.access(LineAddr(l));
                    re.access(l);
                } else if let Some(v) = dut.fill(LineAddr(l), FillKind::Demand) {
                    dut_evictions.push(v.line.0);
                    ref_evictions.push(re.fill(l).expect("reference also evicts"));
                } else {
                    prop_assert_eq!(re.fill(l), None, "{} ways: reference evicted but cache did not", ways);
                }
            }
            prop_assert_eq!(dut_evictions, ref_evictions, "{} ways", ways);
        }
    }

    /// A prefetched line reports first-use exactly once, whatever happens
    /// around it, as long as it stays resident.
    #[test]
    fn first_use_reported_exactly_once(lines in prop::collection::vec(0u64..8, 1..50)) {
        // Fully associative enough to avoid evicting line 100.
        let mut c = SetAssocCache::new(CacheConfig::new(4096, 8, 64).unwrap());
        c.fill(LineAddr(100), FillKind::Prefetch);
        let mut first_uses = 0;
        for &l in &lines {
            c.access(LineAddr(l));
        }
        for _ in 0..3 {
            if let Access::Hit { first_use_of_prefetch: true } = c.access(LineAddr(100)) {
                first_uses += 1;
            }
        }
        prop_assert_eq!(first_uses, 1);
    }

    /// Statistics identities: misses <= accesses; every eviction implies the
    /// cache was full at that set; fills = resident + evictions + invalidated.
    #[test]
    fn stats_identities_hold(ops in prop::collection::vec(op_strategy(32), 1..300)) {
        let mut c = cache_of(2);
        let mut invalidated = 0u64;
        for op in ops {
            match op {
                Op::Access(l) => { c.access(LineAddr(l)); }
                Op::Fill(l, p) => {
                    let kind = if p { FillKind::Prefetch } else { FillKind::Demand };
                    c.fill(LineAddr(l), kind);
                }
                Op::Probe(l) => { c.probe(LineAddr(l)); }
                Op::Invalidate(l) => {
                    if c.invalidate(LineAddr(l)).is_some() {
                        invalidated += 1;
                    }
                }
            }
        }
        let s = *c.stats();
        prop_assert!(s.misses <= s.accesses);
        let installed = s.demand_fills + s.prefetch_fills;
        prop_assert_eq!(
            installed,
            c.resident_lines() as u64 + s.evictions + invalidated
        );
    }
}
