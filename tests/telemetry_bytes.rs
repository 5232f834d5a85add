//! Pins every telemetry artifact byte of a short bake-off run.
//!
//! The seven-scheme zoo on the paper's 4-way CMP with L2 bypass, the
//! multiprogrammed mix and `TelemetryConfig::default()`: the same
//! configuration perfbench's `zoo_bakeoff_telemetry` serialises, at a
//! length `cargo test` can afford. Each of the five sink writers must
//! reproduce the recorded FNV-1a hash and length exactly, so a writer
//! rewrite that changes a single byte fails here rather than only in the
//! benchmark's digests.

use ipsim::cache::InstallPolicy;
use ipsim::cpu::{SystemBuilder, WorkloadSet};
use ipsim::telemetry::sink::{
    write_chrome_trace, write_component_summary_tsv, write_events_jsonl, write_series_tsv,
    write_zoo_tsv,
};
use ipsim::telemetry::TelemetryConfig;
use ipsim::zoo::ZooPlan;

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn bakeoff_telemetry_artifacts_are_byte_identical() {
    let mut system = SystemBuilder::cmp4()
        .install_policy(InstallPolicy::BypassL2UntilUseful)
        .zoo(ZooPlan::parse("nl+nnl+disc+target+stream+mana+pmap").expect("plan parses"))
        .build()
        .expect("valid config");
    system.enable_telemetry(TelemetryConfig::default());
    let mut ws = WorkloadSet::mixed();
    ws.walker_seed = 1;
    system.run_workload(&ws, 90_000, 30_000);
    let run = system.take_telemetry().expect("telemetry enabled");

    let mut artifacts: Vec<(&str, Vec<u8>)> = Vec::new();
    let mut add = |name, write: &dyn Fn(&mut Vec<u8>) -> std::io::Result<()>| {
        let mut bytes = Vec::new();
        write(&mut bytes).expect("writing into memory cannot fail");
        artifacts.push((name, bytes));
    };
    add("events.jsonl", &|w| write_events_jsonl(w, &run));
    add("trace.json", &|w| write_chrome_trace(w, &run));
    add("series.tsv", &|w| write_series_tsv(w, &run.samples));
    add("pf_summary.tsv", &|w| write_component_summary_tsv(w, &run));
    add("zoo.tsv", &|w| write_zoo_tsv(w, &run.zoo));

    let got: Vec<(&str, usize, u64)> = artifacts
        .iter()
        .map(|(name, bytes)| (*name, bytes.len(), fnv1a64(bytes)))
        .collect();
    let want: [(&str, usize, u64); 5] = [
        ("events.jsonl", 14_716_868, 0x66ab_d163_2842_f3ae),
        ("trace.json", 19_858_779, 0x6e9b_f0b4_3b42_5f5b),
        ("series.tsv", 337, 0xfd35_a503_3007_46d2),
        ("pf_summary.tsv", 316, 0xa504_d92f_eb23_ab56),
        ("zoo.tsv", 1_018, 0x2c94_c752_ff3a_c86a),
    ];
    assert_eq!(got, want, "(artifact, bytes, fnv1a64)");
}
