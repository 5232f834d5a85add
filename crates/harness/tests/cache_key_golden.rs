//! Golden test: pins the FNV-1a cache keys of a fixed spec corpus.
//!
//! The run cache, the trace store, the telemetry artifact directories and
//! the serve-job journal all address results by [`RunSpec::cache_key`]. A
//! silent change to the key derivation orphans every cached result and
//! artifact on disk — this test makes such a change loud: if a key moves
//! on purpose, bump the descriptor version in `spec.rs`, update these
//! literals, and expect a cold cache everywhere.

use ipsim_harness::wire::JobSpec;
use ipsim_harness::RunSpec;

/// One corpus entry: a wire-encoded run (the stable client-facing
/// encoding) and the cache key its lowered [`RunSpec`] must hash to.
const GOLDEN: &[(&str, &str)] = &[
    (
        "single_core\tdb\tnone\tinstall_both\t-\t10000000\t20000000",
        "362fd776329978dd",
    ),
    (
        "cmp4\tmixed\tnl_tagged\tbypass\t-\t2000000\t4000000",
        "2d3ce901470cf2ad",
    ),
    (
        "cmp4\tdb\tdisc:8192:4\tinstall_both\t-\t2000000\t4000000",
        "72c93892aa9aac45",
    ),
    (
        "cmp4\tweb\tdisc_gated:8192:4:2\tbypass\t-\t2000000\t4000000",
        "a1773e690226ee7f",
    ),
    (
        "single_core\ttpcw\tnnl:2\tinstall_both\t-\t2000000\t4000000",
        "57a5afb123d0cc29",
    ),
    (
        "single_core\tjapp\tlookahead:4\tinstall_both\t-\t2000000\t4000000",
        "fc16155280620ae1",
    ),
    (
        "cmp4\tdb\tmarkov:4096:2\tinstall_both\t-\t2000000\t4000000",
        "b29a153d4a70aade",
    ),
    (
        "cmp4\ttpcw\ttarget:4096\tbypass\t-\t2000000\t4000000",
        "6a286a849d3421c8",
    ),
    (
        "single_core\tweb\twrong_path+nl\tinstall_both\t-\t2000000\t4000000",
        "7602eb4e2c652f60",
    ),
    (
        "single_core\tdb\tnone\tinstall_both\tseq+br+call\t2000000\t4000000",
        "103479c891cfa60d",
    ),
    // v2 zoo-bearing specs: the plan's canonical form is part of the key.
    (
        "single_core\tweb\tzoo:nl+disc\tinstall_both\t-\t2000000\t4000000",
        "0c572f02b1d874cf",
    ),
    (
        "single_core\tweb\tzoo:nl+disc:ahead=2\tinstall_both\t-\t2000000\t4000000",
        "80b9a2b4c95ec38b",
    ),
    (
        "cmp4\tmixed\tzoo:nl+nnl+disc+stream+mana+pmap\tbypass\t-\t2000000\t4000000",
        "602e5d292ead99fa",
    ),
    (
        "cmp4\tdb\tzoo:mana:degree=4,region_lines=16+pmap:depth=2\tinstall_both\t-\t2000000\t4000000",
        "43c8f0778eb91a0d",
    ),
];

/// The same 14 runs as [`GOLDEN`], their prefetcher column re-spelled as
/// v3 scheme text (registry specs, `zoo:` plans): every spelling of a run
/// must hash to the same key.
const GOLDEN_V3: &[(&str, &str)] = &[
    (
        "single_core\tdb\tnone\tinstall_both\t-\t10000000\t20000000",
        "362fd776329978dd",
    ),
    (
        "cmp4\tmixed\tnl\tbypass\t-\t2000000\t4000000",
        "2d3ce901470cf2ad",
    ),
    (
        "cmp4\tdb\tdisc\tinstall_both\t-\t2000000\t4000000",
        "72c93892aa9aac45",
    ),
    (
        "cmp4\tweb\tdisc:min_confidence=2\tbypass\t-\t2000000\t4000000",
        "a1773e690226ee7f",
    ),
    (
        "single_core\ttpcw\tnnl:n=2\tinstall_both\t-\t2000000\t4000000",
        "57a5afb123d0cc29",
    ),
    (
        "single_core\tjapp\tlookahead:n=4\tinstall_both\t-\t2000000\t4000000",
        "fc16155280620ae1",
    ),
    (
        "cmp4\tdb\tmarkov:table_entries=4096,ahead=2\tinstall_both\t-\t2000000\t4000000",
        "b29a153d4a70aade",
    ),
    (
        "cmp4\ttpcw\ttarget\tbypass\t-\t2000000\t4000000",
        "6a286a849d3421c8",
    ),
    (
        "single_core\tweb\twrong_path:next_line=1\tinstall_both\t-\t2000000\t4000000",
        "7602eb4e2c652f60",
    ),
    (
        "single_core\tdb\tnone\tinstall_both\tseq+br+call\t2000000\t4000000",
        "103479c891cfa60d",
    ),
    (
        "single_core\tweb\tzoo:nl+disc\tinstall_both\t-\t2000000\t4000000",
        "0c572f02b1d874cf",
    ),
    (
        "single_core\tweb\tzoo:nl+disc:ahead=2\tinstall_both\t-\t2000000\t4000000",
        "80b9a2b4c95ec38b",
    ),
    (
        "cmp4\tmixed\tzoo:nl+nnl+disc+stream+mana+pmap\tbypass\t-\t2000000\t4000000",
        "602e5d292ead99fa",
    ),
    (
        "cmp4\tdb\tzoo:mana:degree=4,region_lines=16+pmap:depth=2\tinstall_both\t-\t2000000\t4000000",
        "43c8f0778eb91a0d",
    ),
];

/// Decodes each corpus line under the TSV header of wire `version`.
fn corpus_specs(golden: &[(&str, &str)], version: u32) -> Vec<(String, RunSpec)> {
    golden
        .iter()
        .map(|(wire, _)| {
            let body = format!("{}{version}\n{}\n", ipsim_harness::wire::TSV_PREFIX, wire);
            let spec = JobSpec::from_tsv(&body)
                .unwrap_or_else(|e| panic!("corpus line `{wire}` no longer parses: {e}"));
            (wire.to_string(), spec.to_run_specs().unwrap().remove(0))
        })
        .collect()
}

fn assert_keys_match(golden: &[(&str, &str)], version: u32) {
    let mut mismatches = Vec::new();
    for ((wire, spec), (_, want)) in corpus_specs(golden, version).iter().zip(golden) {
        let got = spec.cache_key();
        if got != *want {
            mismatches.push(format!("    (\"{wire}\", \"{got}\"),"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "cache keys moved — on-disk caches, traces, telemetry and journals \
         will all go cold. If intentional, update the corpus to:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn cache_keys_match_the_pinned_golden_values() {
    assert_keys_match(GOLDEN, 2);
}

#[test]
fn v3_spellings_hash_to_the_same_golden_keys() {
    assert_keys_match(GOLDEN_V3, 3);
}

#[test]
fn corpus_keys_are_unique() {
    let mut keys: Vec<String> = corpus_specs(GOLDEN, 2)
        .iter()
        .map(|(_, s)| s.cache_key())
        .collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), GOLDEN.len(), "corpus keys collide");
}
