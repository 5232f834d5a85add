//! Shared pieces: seeded workload sets, simulated-statistics digests, the
//! recorded digest table, medians and peak RSS.

use std::collections::BTreeMap;

use ipsim_cpu::{SystemMetrics, WorkloadSet};
use ipsim_harness::hash::fnv1a64;
use ipsim_trace::Workload;
use ipsim_types::MissCategory;

/// SplitMix64 finaliser: spreads a small benchmark seed over 64 bits.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `set` with its program and walker seeds derived from the benchmark seed.
pub fn seeded(mut set: WorkloadSet, seed: u64) -> WorkloadSet {
    set.program_seed = mix(seed.wrapping_mul(2));
    set.walker_seed = mix(seed.wrapping_mul(2) + 1);
    set
}

/// The four single-application columns, seeded.
pub fn single_sets(seed: u64) -> Vec<WorkloadSet> {
    Workload::ALL
        .iter()
        .map(|w| seeded(WorkloadSet::homogeneous(*w), seed))
        .collect()
}

/// The five CMP columns (DB, TPC-W, jApp, Web, Mixed), seeded.
pub fn cmp_sets(seed: u64) -> Vec<WorkloadSet> {
    let mut sets = single_sets(seed);
    sets.push(seeded(WorkloadSet::mixed(), seed));
    sets
}

/// A canonical text of every simulated counter in `m` (host time
/// excluded), hashed. Two runs of one configuration agree on it iff they
/// simulated the same thing.
pub fn metrics_digest(m: &SystemMetrics) -> u64 {
    let mut text = String::new();
    for c in &m.cores {
        let p = &c.prefetch;
        text.push_str(&format!(
            "core|{}|{}|{}|{}|{}|{}|{}|{:?}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}\n",
            c.instructions,
            c.cycles,
            c.line_fetches,
            categories(&c.l1i_misses),
            c.eliminated_misses,
            c.l1d_accesses,
            c.l1d_misses,
            c.branch,
            p.generated,
            p.filtered_recent,
            p.queued,
            p.probes,
            p.probe_hits,
            p.inflight_hits,
            p.mshr_rejected,
            p.issued,
            p.useful,
            p.late,
        ));
    }
    let mem = &m.mem;
    text.push_str(&format!(
        "mem|{}|{}|{}|{}|{}|{}|{}|{}|{:e}\n",
        mem.l2_instr_accesses,
        categories(&mem.l2_instr_misses),
        mem.l2_data_accesses,
        mem.l2_data_misses,
        mem.l2_prefetch_accesses,
        mem.l2_prefetch_misses,
        mem.writebacks,
        m.bus_transfers,
        m.bus_queue_cycles,
    ));
    fnv1a64(text.as_bytes())
}

/// A word-at-a-time FNV-style hash for comparing large deterministic
/// outputs (hundreds of MB) cheaply.
pub fn bytes_hash(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ bytes.len() as u64;
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    for w in words {
        let w = u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes"));
        h = (h ^ w).wrapping_mul(PRIME);
    }
    for &b in tail {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

fn categories(counts: &ipsim_types::stats::CategoryCounts) -> String {
    MissCategory::ALL
        .iter()
        .map(|&cat| counts[cat].to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// Recorded digests: `(seed, workload, run) -> digest`, from
/// `digests.tsv` (compiled in, so a run reads no file for it).
pub struct Digests(BTreeMap<(u64, String, String), u64>);

impl Digests {
    pub fn recorded() -> Digests {
        let mut map = BTreeMap::new();
        for line in include_str!("../digests.tsv").lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let parsed = (|| {
                let seed = f.first()?.parse().ok()?;
                let digest = u64::from_str_radix(f.get(3)?, 16).ok()?;
                Some(((seed, f[1].to_string(), f[2].to_string()), digest))
            })();
            let (key, digest) = parsed.expect("digests.tsv: seed, workload, run, hex digest");
            map.insert(key, digest);
        }
        Digests(map)
    }

    /// Whether digests were recorded for `seed` on `workload`; only then
    /// are runs checked against them.
    pub fn covers(&self, seed: u64, workload: &str) -> bool {
        self.0.keys().any(|(s, w, _)| *s == seed && w == workload)
    }

    /// Whether `digest` matches the recorded one for this run (a run with
    /// no recorded digest under a covered seed does not match).
    pub fn matches(&self, seed: u64, workload: &str, run: &str, digest: u64) -> bool {
        self.0
            .get(&(seed, workload.to_string(), run.to_string()))
            .is_some_and(|&d| d == digest)
    }
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// This process's peak resident set (VmHWM) in MiB, or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_differ_per_benchmark_seed_and_role() {
        let a = seeded(WorkloadSet::mixed(), 1);
        let b = seeded(WorkloadSet::mixed(), 2);
        assert_ne!(a.program_seed, b.program_seed);
        assert_ne!(a.program_seed, a.walker_seed);
        assert_eq!(cmp_sets(3).len(), 5);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
