//! The prefetcher bake-off: every registered scheme head-to-head, per
//! workload, with metrics attributed by the zoo's shadow layer.
//!
//! One zoo run per workload hosts the whole contender pool side by side
//! (plus one no-prefetch baseline run for coverage/MPKI reference), so a
//! scheme's accuracy/timeliness numbers are measured under *contended*
//! conditions — the regime the paper's Figure 9 trade-off lives in. The
//! rendered table is built from the on-disk `zoo.tsv` telemetry
//! artifacts, never from in-process state, which makes the report
//! byte-identical whether the runs executed through the batch CLI
//! (`report sim --bakeoff`) or through an `ipsim-serve` job — the
//! equivalence the serve end-to-end test pins.

use std::collections::BTreeMap;

use ipsim_harness::telemetry::read_zoo;
use ipsim_harness::{RunLengths, RunSpec, Summary, TelemetrySink};
use ipsim_prefetch::ZooPlan;
use ipsim_telemetry::ZooSchemeRow;
use ipsim_types::SystemConfig;

use crate::workload_columns;

/// The contender pool: the paper's sequential and discontinuity schemes
/// plus the lookahead/target paper mechanisms and the three rivals.
/// Order is zoo slot order, so it is also table row order.
pub const BAKEOFF_PLAN: &str = "nl+nnl+disc+target+stream+mana+pmap";

/// The bake-off zoo plan ([`BAKEOFF_PLAN`] parsed).
///
/// # Panics
///
/// Never — the plan literal is covered by tests.
pub fn bakeoff_plan() -> ZooPlan {
    ZooPlan::parse(BAKEOFF_PLAN).expect("bake-off plan literal is valid")
}

/// The bake-off sweep: for each of the five workload columns, one
/// no-prefetch baseline and one full-zoo run on the paper's 4-way CMP.
/// Even indices are baselines, odd indices the paired zoo runs.
pub fn bakeoff_specs(lengths: RunLengths) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for ws in workload_columns(true) {
        let base = RunSpec::new(SystemConfig::cmp4(), ws, lengths);
        specs.push(base.clone());
        specs.push(base.zoo(bakeoff_plan()));
    }
    specs
}

/// Per-scheme counters summed across cores, in zoo slot order.
fn sum_by_scheme(rows: &[ZooSchemeRow]) -> Vec<(String, ZooSchemeRow)> {
    let mut order: Vec<String> = Vec::new();
    let mut by_scheme: BTreeMap<String, ZooSchemeRow> = BTreeMap::new();
    for row in rows {
        let entry = by_scheme.entry(row.scheme.clone()).or_insert_with(|| {
            order.push(row.scheme.clone());
            ZooSchemeRow {
                scheme: row.scheme.clone(),
                slot: row.slot,
                ..ZooSchemeRow::default()
            }
        });
        entry.generated += row.generated;
        entry.issued += row.issued;
        entry.filled += row.filled;
        entry.useful += row.useful;
        entry.late += row.late;
        entry.evicted_used += row.evicted_used;
        entry.evicted_unused += row.evicted_unused;
    }
    order
        .into_iter()
        .map(|scheme| {
            let row = by_scheme.remove(&scheme).expect("scheme recorded");
            (scheme, row)
        })
        .collect()
}

/// Renders the bake-off table from the on-disk artifacts of an executed
/// [`bakeoff_specs`] sweep. `resolve` maps a spec to its run summary
/// (from the scheduler report or the run cache).
///
/// Columns, per workload × scheme:
///
/// * `iss/KI`  — prefetches the scheme got accepted per 1 000 instrs;
/// * `acc%`    — first demand uses / issued (shadow-attributed);
/// * `cover%`  — first uses per baseline L1I miss (the share of the
///   no-prefetch miss stream this scheme's lines absorbed);
/// * `late%`   — first uses that were still in flight when demanded;
/// * the first row of each workload block carries the workload-level
///   L1I MPKI with and without the zoo.
///
/// # Errors
///
/// Returns a message when an artifact is missing or malformed (the
/// caller should treat that as "re-run with telemetry", not a crash).
pub fn render_bakeoff(
    sink: &TelemetrySink,
    specs: &[RunSpec],
    mut resolve: impl FnMut(&RunSpec) -> Summary,
) -> Result<String, String> {
    let mut out = String::new();
    out.push_str(&format!(
        "bake-off: zoo[{BAKEOFF_PLAN}] vs no-prefetch baseline (CMP-4)\n"
    ));
    out.push_str(&format!(
        "{:<8} {:<22} {:>8} {:>6} {:>7} {:>6}   {:>18}\n",
        "workload", "scheme", "iss/KI", "acc%", "cover%", "late%", "L1I MPKI base→zoo"
    ));
    for pair in specs.chunks(2) {
        let [base_spec, zoo_spec] = pair else {
            return Err("bake-off specs must come in baseline/zoo pairs".to_string());
        };
        let base = resolve(base_spec);
        let zoo = resolve(zoo_spec);
        let rows = read_zoo(&sink.dir_for(&zoo_spec.cache_key()))?;
        let instructions = zoo.instructions.max(1) as f64;
        let baseline_misses = base.l1i_mpi * base.instructions.max(1) as f64;
        let pct = |num: u64, den: f64| {
            if den <= 0.0 {
                0.0
            } else {
                num as f64 * 100.0 / den
            }
        };
        let mut first = true;
        for (scheme, c) in sum_by_scheme(&rows) {
            let tail = if first {
                format!(
                    "{:>8.3}→{:<8.3}",
                    base.l1i_mpi * 1_000.0,
                    zoo.l1i_mpi * 1_000.0
                )
            } else {
                String::new()
            };
            out.push_str(&format!(
                "{:<8} {:<22} {:>8.2} {:>6.1} {:>7.1} {:>6.1}   {}\n",
                if first {
                    zoo_spec.workloads.name()
                } else {
                    String::new()
                },
                scheme,
                c.issued as f64 * 1_000.0 / instructions,
                pct(c.useful, c.issued as f64),
                pct(c.useful, baseline_misses),
                pct(c.late, c.useful as f64),
                tail,
            ));
            first = false;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bakeoff_covers_at_least_six_schemes() {
        let plan = bakeoff_plan();
        assert!(plan.canonical().split('+').count() >= 6);
        let specs = bakeoff_specs(RunLengths {
            warm: 10,
            measure: 20,
        });
        assert_eq!(specs.len(), 10, "5 workload columns × (baseline, zoo)");
        for pair in specs.chunks(2) {
            assert!(pair[0].scheme.plan().is_none());
            assert_eq!(pair[1].scheme.plan().unwrap().canonical(), BAKEOFF_PLAN);
            assert_eq!(pair[0].workloads, pair[1].workloads);
        }
    }

    #[test]
    fn scheme_sums_aggregate_across_cores_in_slot_order() {
        let row = |core, slot, scheme: &str, useful| ZooSchemeRow {
            core,
            slot,
            scheme: scheme.to_string(),
            useful,
            issued: useful * 2,
            ..ZooSchemeRow::default()
        };
        let rows = vec![
            row(0, 0, "nl", 3),
            row(0, 1, "disc", 5),
            row(1, 0, "nl", 4),
            row(1, 1, "disc", 6),
        ];
        let summed = sum_by_scheme(&rows);
        assert_eq!(summed.len(), 2);
        assert_eq!(summed[0].0, "nl");
        assert_eq!(summed[0].1.useful, 7);
        assert_eq!(summed[1].0, "disc");
        assert_eq!(summed[1].1.issued, 22);
    }
}
