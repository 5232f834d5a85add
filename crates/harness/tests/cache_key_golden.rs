//! Golden test: pins the FNV-1a cache keys of a fixed spec corpus.
//!
//! The run cache, the trace store and the telemetry artifact directories
//! all address results by [`RunSpec::cache_key`]. A silent change to the
//! key derivation orphans every cached result and artifact on disk — this
//! test makes such a change loud: if a key moves on purpose, bump the
//! descriptor version in `spec.rs`, update these literals, and expect a
//! cold cache everywhere.

use ipsim_cache::InstallPolicy::{self, BypassL2UntilUseful as Bypass, InstallBoth};
use ipsim_cpu::{LimitSpec, WorkloadSet};
use ipsim_harness::{RunLengths, RunSpec};
use ipsim_prefetch::Scheme;
use ipsim_trace::Workload::{self, Db, JApp, TpcW, Web};
use ipsim_types::SystemConfig;

/// Builds one corpus run in-process: core count (1 = the single-core
/// system, else CMP), workload (`None` = Mixed), scheme text and L2
/// install policy, at the quick windows.
fn run(cores: u32, workload: Option<Workload>, scheme: &str, policy: InstallPolicy) -> RunSpec {
    let config = if cores == 1 {
        SystemConfig::single_core()
    } else {
        SystemConfig::cmp4()
    };
    let workloads = workload.map_or_else(WorkloadSet::mixed, WorkloadSet::homogeneous);
    let mut spec = RunSpec::new(config, workloads, RunLengths::quick()).policy(policy);
    spec.scheme =
        Scheme::parse(scheme).unwrap_or_else(|e| panic!("scheme `{scheme}` no longer parses: {e}"));
    spec
}

/// The corpus and the cache key each run must hash to: paper schemes by
/// registry spec, one full-window run, a limit study, and zoo plans,
/// whose canonical form is part of the key.
fn corpus() -> Vec<(RunSpec, &'static str)> {
    let mut full = run(1, Some(Db), "none", InstallBoth);
    full.lengths = RunLengths::full();
    let limit = run(1, Some(Db), "none", InstallBoth).limit(LimitSpec {
        sequential: true,
        branch: true,
        function_call: true,
    });
    vec![
        (full, "362fd776329978dd"),
        (run(4, None, "nl", Bypass), "2d3ce901470cf2ad"),
        (run(4, Some(Db), "disc", InstallBoth), "72c93892aa9aac45"),
        (
            run(4, Some(Web), "disc:min_confidence=2", Bypass),
            "a1773e690226ee7f",
        ),
        (
            run(1, Some(TpcW), "nnl:n=2", InstallBoth),
            "57a5afb123d0cc29",
        ),
        (
            run(1, Some(JApp), "lookahead:n=4", InstallBoth),
            "fc16155280620ae1",
        ),
        (
            run(
                4,
                Some(Db),
                "markov:table_entries=4096,ahead=2",
                InstallBoth,
            ),
            "b29a153d4a70aade",
        ),
        (run(4, Some(TpcW), "target", Bypass), "6a286a849d3421c8"),
        (
            run(1, Some(Web), "wrong_path:next_line=1", InstallBoth),
            "7602eb4e2c652f60",
        ),
        (limit, "103479c891cfa60d"),
        (
            run(1, Some(Web), "zoo:nl+disc", InstallBoth),
            "0c572f02b1d874cf",
        ),
        (
            run(1, Some(Web), "zoo:nl+disc:ahead=2", InstallBoth),
            "80b9a2b4c95ec38b",
        ),
        (
            run(4, None, "zoo:nl+nnl+disc+stream+mana+pmap", Bypass),
            "602e5d292ead99fa",
        ),
        (
            run(
                4,
                Some(Db),
                "zoo:mana:degree=4,region_lines=16+pmap:depth=2",
                InstallBoth,
            ),
            "43c8f0778eb91a0d",
        ),
    ]
}

#[test]
fn cache_keys_match_the_pinned_golden_values() {
    let mut mismatches = Vec::new();
    for (spec, want) in corpus() {
        let got = spec.cache_key();
        if got != want {
            mismatches.push(format!("    {}: \"{got}\"", spec.label()));
        }
    }
    assert!(
        mismatches.is_empty(),
        "cache keys moved — on-disk caches, traces and telemetry will all \
         go cold. If intentional, update the corpus keys to:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn corpus_keys_are_unique() {
    let corpus = corpus();
    let mut keys: Vec<String> = corpus.iter().map(|(s, _)| s.cache_key()).collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), corpus.len(), "corpus keys collide");
}
