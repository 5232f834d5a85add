//! Property-based tests for the MSHR file.

use ipsim_cache::Mshr;
use ipsim_types::LineAddr;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64, bool),
    Merge(u64),
    Retire(u64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        ((0u64..16), (1u64..500), any::<bool>()).prop_map(|(l, t, p)| Op::Insert(l, t, p)),
        (0u64..16).prop_map(Op::Merge),
        (0u64..600).prop_map(Op::Retire),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Capacity is never exceeded, no duplicate lines coexist, retire only
    /// returns completed fills, and every inserted fill eventually retires
    /// exactly once.
    #[test]
    fn mshr_lifecycle_invariants(ops in prop::collection::vec(op(), 1..200)) {
        let mut mshr = Mshr::new(4);
        let mut inserted = 0u64;
        let mut retired = 0u64;
        let mut done = Vec::new();
        for op in ops {
            match op {
                Op::Insert(line, ready, prefetch) => {
                    let before_full = mshr.is_full();
                    let had = mshr.lookup(LineAddr(line)).is_some();
                    let ok = mshr.insert(LineAddr(line), ready, prefetch);
                    prop_assert_eq!(ok, !before_full && !had);
                    if ok {
                        inserted += 1;
                    }
                }
                Op::Merge(line) => {
                    let present = mshr.lookup(LineAddr(line)).is_some();
                    let merged = mshr.merge_demand(LineAddr(line));
                    prop_assert_eq!(merged.is_some(), present);
                    if present {
                        prop_assert!(mshr.lookup(LineAddr(line)).unwrap().demand_merged);
                    }
                }
                Op::Retire(now) => {
                    done.clear();
                    mshr.retire_ready_into(now, &mut done);
                    for e in &done {
                        prop_assert!(e.ready_at <= now, "retired too early");
                        prop_assert!(mshr.lookup(e.line).is_none());
                    }
                    retired += done.len() as u64;
                }
            }
            prop_assert!(mshr.len() <= 4);
            if let Some(next) = mshr.next_ready_at() {
                prop_assert!(!mshr.is_empty());
                prop_assert!(next >= 1);
            } else {
                prop_assert!(mshr.is_empty());
            }
        }
        // Drain the rest: total retired equals total inserted.
        done.clear();
        mshr.retire_ready_into(u64::MAX, &mut done);
        retired += done.len() as u64;
        prop_assert_eq!(retired, inserted);
    }
}
