//! Every figure of the paper (and the extension studies) as a
//! [`Figure`]: a named render function over an executor.
//!
//! The same function both enumerates the runs a figure needs (recording
//! pass) and renders its output from resolved summaries, so the scheduler's
//! job list can never drift from what rendering consumes. Figures 5-11
//! share one shape: a [`scheme_matrix`] of prefetch schemes against
//! workload columns, rendered by `matrix_table` with each cell computed
//! from a run and its no-prefetch baseline.

use ipsim_cache::InstallPolicy;
use ipsim_core::PrefetcherKind;
use ipsim_cpu::{LimitSpec, WorkloadSet};
use ipsim_harness::{Executor, Figure, RunLengths, RunSpec, Summary};
use ipsim_trace::Workload;
use ipsim_types::stats::CategoryCounts;
use ipsim_types::{CacheConfig, MissCategory, SystemConfig};

use crate::{matrix_table, pct, ratio, scheme_matrix, table_string, workload_columns, SYSTEMS};

/// The full figure registry, in paper order. `all_figures` sweeps this,
/// or the subset its `--figures` names.
pub fn all() -> Vec<Figure> {
    let figure = |name, title, render| Figure {
        name,
        title,
        version: 1,
        render,
    };
    vec![
        figure("fig01", "L1I miss rates vs cache geometry", fig01),
        figure("fig02", "L2 instruction miss rates vs L2 capacity", fig02),
        figure("fig03", "instruction miss breakdown by category", fig03),
        figure(
            "fig04",
            "limit study: perfect elimination of miss classes",
            fig04,
        ),
        figure("fig05", "instruction miss rates under prefetching", fig05),
        figure(
            "fig06",
            "prefetch speedup with conventional L2 install",
            fig06,
        ),
        figure(
            "fig07",
            "L2 data pollution from instruction prefetching",
            fig07,
        ),
        figure(
            "fig08",
            "prefetch speedup with L2 bypass until useful",
            fig08,
        ),
        figure(
            "fig09",
            "prefetch accuracy and the next-2-line variant",
            fig09,
        ),
        figure("fig10", "miss coverage vs discontinuity table size", fig10),
        figure(
            "fig11",
            "extension ablations: discontinuity design choices",
            fig11,
        ),
        figure("fig12", "extension: off-chip bandwidth sensitivity", fig12),
        figure("fig13", "extension: memory-latency sensitivity", fig13),
    ]
}

/// A figure's opening lines followed by a blank line.
fn heading(lines: &[&str]) -> String {
    let mut out = lines.join("\n");
    out.push_str("\n\n");
    out
}

/// Schemes labelled with their own [`PrefetcherKind::label`].
fn labelled(kinds: &[PrefetcherKind]) -> Vec<(String, PrefetcherKind)> {
    kinds.iter().map(|kind| (kind.label(), *kind)).collect()
}

/// A cell: the run's speedup over its baseline.
fn speedup(s: &Summary, base: &Summary) -> String {
    format!("{:.3}", s.speedup_over(base))
}

/// A cell: the run's prefetch accuracy (useful / issued).
fn accuracy(s: &Summary, _: &Summary) -> String {
    format!("{:.0}%", s.accuracy * 100.0)
}

/// Figure 1: instruction cache miss rates (% per retired instruction) as
/// cache associativity, line size and capacity are varied.
fn fig01(lengths: RunLengths, x: &mut Executor) -> String {
    // (label, size, assoc, line)
    let configs: [(&str, u64, u32, u64); 10] = [
        ("Default", 32 << 10, 4, 64),
        ("Direct-mapped", 32 << 10, 1, 64),
        ("2-way", 32 << 10, 2, 64),
        ("8-way", 32 << 10, 8, 64),
        ("32B line size", 32 << 10, 4, 32),
        ("128B line size", 32 << 10, 4, 128),
        ("256B line size", 32 << 10, 4, 256),
        ("16KB", 16 << 10, 4, 64),
        ("64KB", 64 << 10, 4, 64),
        ("128KB", 128 << 10, 4, 64),
    ];

    let mut out = heading(&[
        "Figure 1: L1I miss rate (% per instruction) vs cache geometry",
        "(paper: default miss rates 1.32-3.16%, jApp highest; larger lines and",
        " capacity help strongly, associativity modestly)",
    ]);
    let workloads = workload_columns(false);
    let mut rows = Vec::new();
    for (label, size, assoc, line) in configs {
        let mut row = vec![label.to_string()];
        for ws in &workloads {
            let mut config = SystemConfig::single_core();
            config.core.l1i = CacheConfig::new(size, assoc, line).expect("valid geometry");
            let summary = x(&RunSpec::new(config, ws.clone(), lengths));
            row.push(pct(summary.l1i_mpi));
        }
        rows.push(row);
    }
    out.push_str(&table_string(
        &["I$ configuration", "DB", "TPC-W", "jApp", "Web"],
        &rows,
    ));
    out
}

/// Figure 2: L2 cache instruction miss rates for the single-core processor
/// and the 4-way CMP as L2 capacity varies.
fn fig02(lengths: RunLengths, x: &mut Executor) -> String {
    let mut out = heading(&[
        "Figure 2: L2 instruction miss rate (% per instruction) vs L2 capacity",
        "(paper: 2MB CMP rates 0.07-0.44%, Mixed worst; CMP rates exceed single-core;",
        " 1MB→2MB improves more than 2MB→4MB)",
    ]);
    let sets = workload_columns(true);
    let mut rows = Vec::new();
    for mb in [1u64, 2, 4] {
        for cmp in [false, true] {
            let label = format!("{mb}MB {}", if cmp { "4-way CMP" } else { "single core" });
            let mut row = vec![label];
            for ws in &sets {
                if !cmp && ws.per_core.len() > 1 {
                    // The mixed workload needs one core per application.
                    row.push("-".to_string());
                    continue;
                }
                let mut config = if cmp {
                    SystemConfig::cmp4()
                } else {
                    SystemConfig::single_core()
                };
                config.mem.l2 = CacheConfig::new(mb << 20, 4, 64).expect("valid geometry");
                let summary = x(&RunSpec::new(config, ws.clone(), lengths));
                row.push(pct(summary.l2i_mpi));
            }
            rows.push(row);
        }
    }
    out.push_str(&table_string(
        &["L2 configuration", "DB", "TPC-W", "jApp", "Web", "Mix"],
        &rows,
    ));
    out
}

/// A miss-breakdown table: one row per run, the share of each category
/// in the `counts` it selects.
fn breakdown_table(runs: &[(String, Summary)], counts: fn(&Summary) -> &CategoryCounts) -> String {
    let header: Vec<&str> = std::iter::once("workload")
        .chain(MissCategory::ALL.iter().map(|cat| cat.label()))
        .collect();
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|(name, summary)| {
            let counts = counts(summary);
            std::iter::once(name.clone())
                .chain(
                    MissCategory::ALL
                        .iter()
                        .map(|&cat| format!("{:.1}%", counts.fraction(cat) * 100.0)),
                )
                .collect()
        })
        .collect();
    table_string(&header, &rows)
}

/// Figure 3: breakdown of instruction misses by category.
fn fig03(lengths: RunLengths, x: &mut Executor) -> String {
    let mut out = heading(&[
        "Figure 3: instruction miss breakdown by category",
        "(paper: sequential 40-60%; branches 20-40% with cond-tf most prevalent;",
        " calls/jumps/returns 15-20% with Call most prevalent; traps negligible)",
    ]);
    let mut run = |config: SystemConfig, include_mix| -> Vec<(String, Summary)> {
        workload_columns(include_mix)
            .into_iter()
            .map(|ws| (ws.name(), x(&RunSpec::new(config.clone(), ws, lengths))))
            .collect()
    };
    let single = run(SystemConfig::single_core(), false);
    let cmp = run(SystemConfig::cmp4(), true);
    out.push_str("(i) Instruction cache (single core)\n");
    out.push_str(&breakdown_table(&single, |s| &s.l1i_breakdown));
    out.push_str("\n(ii) L2 cache (single core)\n");
    out.push_str(&breakdown_table(&single, |s| &s.l2i_breakdown));
    out.push_str("\n(iii) L2 cache (4-way CMP)\n");
    out.push_str(&breakdown_table(&cmp, |s| &s.l2i_breakdown));
    out
}

/// Figure 4: performance improvement achievable by perfectly eliminating
/// different classes of instruction misses (limit study).
fn fig04(lengths: RunLengths, x: &mut Executor) -> String {
    let mut out = heading(&[
        "Figure 4: speedup from perfect elimination of miss classes",
        "(paper: eliminating all three classes yields far more than any single class;",
        " sequential-only beats branch-only and function-only)",
    ]);
    for (title, config, include_mix) in SYSTEMS {
        let config = config();
        let sets = workload_columns(include_mix);
        let baselines: Vec<Summary> = sets
            .iter()
            .map(|ws| x(&RunSpec::new(config.clone(), ws.clone(), lengths)))
            .collect();
        let rows: Vec<(String, Vec<Summary>)> = LimitSpec::FIG4_SETS
            .iter()
            .map(|&spec| {
                let summaries = sets
                    .iter()
                    .map(|ws| x(&RunSpec::new(config.clone(), ws.clone(), lengths).limit(spec)))
                    .collect();
                (spec.label().to_string(), summaries)
            })
            .collect();
        out.push_str(&format!("{title}\n"));
        out.push_str(&matrix_table(
            "elimination",
            &sets,
            &baselines,
            &rows,
            speedup,
        ));
        out.push('\n');
    }
    out
}

/// Figure 5: instruction miss rates under the HW prefetching schemes,
/// normalised to no prefetching.
fn fig05(lengths: RunLengths, x: &mut Executor) -> String {
    let mut out = heading(&[
        "Figure 5: instruction miss rate under prefetching (normalised to no prefetch)",
        "(paper: discontinuity lowest, reducing misses to ~0.10-0.25 of baseline;",
        " next-4-line clearly beats the next-line variants)",
    ]);
    // (title, config, include Mixed, L2 rather than L1I misses)
    let parts = [
        (
            "(i) Instruction cache (single core)",
            SystemConfig::single_core(),
            false,
            false,
        ),
        (
            "(ii) L2 cache instruction misses (single core)",
            SystemConfig::single_core(),
            false,
            true,
        ),
        (
            "(iii) L2 cache instruction misses (4-way CMP)",
            SystemConfig::cmp4(),
            true,
            true,
        ),
    ];
    let schemes = labelled(&PrefetcherKind::PAPER_SCHEMES);
    for (title, config, include_mix, l2) in parts {
        let sets = workload_columns(include_mix);
        let (baselines, rows) = scheme_matrix(
            &config,
            &sets,
            &schemes,
            InstallPolicy::InstallBoth,
            lengths,
            x,
        );
        out.push_str(&format!("{title}\n"));
        out.push_str(&matrix_table("scheme", &sets, &baselines, &rows, |s, b| {
            let r = if l2 {
                ratio(s.l2i_mpi, b.l2i_mpi)
            } else {
                ratio(s.l1i_mpi, b.l1i_mpi)
            };
            format!("{r:.2}")
        }));
        out.push('\n');
    }
    out
}

/// Figures 6-8: the paper's four schemes on both systems under `policy`,
/// one table per system with `cell(run, baseline)` per workload.
fn paper_schemes_on_both_systems(
    heading_lines: &[&str],
    policy: InstallPolicy,
    cell: fn(&Summary, &Summary) -> String,
    lengths: RunLengths,
    x: &mut Executor,
) -> String {
    let mut out = heading(heading_lines);
    let schemes = labelled(&PrefetcherKind::PAPER_SCHEMES);
    for (title, config, include_mix) in SYSTEMS {
        let sets = workload_columns(include_mix);
        let (baselines, rows) = scheme_matrix(&config(), &sets, &schemes, policy, lengths, x);
        out.push_str(&format!("{title}\n"));
        out.push_str(&matrix_table("scheme", &sets, &baselines, &rows, cell));
        out.push('\n');
    }
    out
}

/// Figure 6: performance gains of the HW prefetching schemes with
/// conventional L2 installation (the polluting regime).
fn fig06(lengths: RunLengths, x: &mut Executor) -> String {
    paper_schemes_on_both_systems(
        &[
            "Figure 6: speedup over no prefetching (prefetches installed in L2)",
            "(paper: gains fall well short of the Figure 4 limits because aggressive",
            " instruction prefetching pollutes the shared L2 with displaced data)",
        ],
        InstallPolicy::InstallBoth,
        speedup,
        lengths,
        x,
    )
}

/// Figure 7: L2 cache *data* miss rate under instruction prefetching,
/// normalised to no prefetching.
fn fig07(lengths: RunLengths, x: &mut Executor) -> String {
    paper_schemes_on_both_systems(
        &[
            "Figure 7: L2 data miss rate (normalised to no prefetch)",
            "(paper: aggressive schemes inflate data misses by up to ~1.35x — speculative",
            " instruction lines evict data from the unified L2)",
        ],
        InstallPolicy::InstallBoth,
        |s, b| format!("{:.3}", ratio(s.l2d_mpi, b.l2d_mpi)),
        lengths,
        x,
    )
}

/// Figure 8: performance gains when instruction prefetches bypass the L2
/// until proven useful (the paper's selective-install policy).
fn fig08(lengths: RunLengths, x: &mut Executor) -> String {
    paper_schemes_on_both_systems(
        &[
            "Figure 8: speedup over no prefetching (prefetches bypass the L2 until useful)",
            "(paper: removing the data pollution lifts the CMP discontinuity speedups from",
            " 1.05-1.28x to 1.08-1.37x; compare with Figure 6)",
        ],
        InstallPolicy::BypassL2UntilUseful,
        speedup,
        lengths,
        x,
    )
}

/// Figure 9: prefetch accuracy for every scheme including the next-2-line
/// discontinuity variant, plus that variant's performance.
fn fig09(lengths: RunLengths, x: &mut Executor) -> String {
    let mut out = heading(&[
        "Figure 9: prefetch accuracy and the next-2-line discontinuity variant (4-way CMP)",
        "(paper: accuracy falls as schemes get more aggressive; discont(2NL) is ~50%",
        " more accurate than next-4-line and still outperforms it)",
    ]);
    let mut kinds = PrefetcherKind::PAPER_SCHEMES.to_vec();
    kinds.push(PrefetcherKind::discontinuity_2nl());
    let sets = workload_columns(true);
    let (baselines, rows) = scheme_matrix(
        &SystemConfig::cmp4(),
        &sets,
        &labelled(&kinds),
        InstallPolicy::BypassL2UntilUseful,
        lengths,
        x,
    );
    out.push_str("(i) prefetch accuracy (useful / issued)\n");
    out.push_str(&matrix_table("scheme", &sets, &baselines, &rows, accuracy));
    out.push_str("\n(ii) speedup over no prefetching\n");
    out.push_str(&matrix_table("scheme", &sets, &baselines, &rows, speedup));
    out
}

/// Figure 10: prefetch coverage for various discontinuity prediction-table
/// sizes, against the next-4-line sequential prefetcher.
fn fig10(lengths: RunLengths, x: &mut Executor) -> String {
    let mut out = heading(&[
        "Figure 10: miss coverage vs discontinuity table size (4-way CMP)",
        "(paper: the 8K-entry table can shrink 4x with minimal coverage loss, and",
        " even 256 entries beats the next-4-line sequential prefetcher)",
    ]);
    let mut variants: Vec<(String, PrefetcherKind)> = [8192usize, 4096, 2048, 1024, 512, 256]
        .iter()
        .map(|&entries| {
            (
                format!("{entries}-entries"),
                PrefetcherKind::Discontinuity {
                    table_entries: entries,
                    ahead: 4,
                },
            )
        })
        .collect();
    variants.push((
        "next-4lines (tagged)".to_string(),
        PrefetcherKind::NextNLineTagged { n: 4 },
    ));
    let sets = workload_columns(true);
    let (baselines, rows) = scheme_matrix(
        &SystemConfig::cmp4(),
        &sets,
        &variants,
        InstallPolicy::BypassL2UntilUseful,
        lengths,
        x,
    );
    for (title, l2) in [
        ("(i) L1 instruction cache coverage", false),
        ("(ii) L2 cache coverage", true),
    ] {
        out.push_str(&format!("{title}\n"));
        out.push_str(&matrix_table(
            "predictor",
            &sets,
            &baselines,
            &rows,
            |s, b| {
                let (v, b) = if l2 {
                    (s.l2i_mpi, b.l2i_mpi)
                } else {
                    (s.l1i_mpi, b.l1i_mpi)
                };
                // No baseline misses: nothing to cover.
                let coverage = if b == 0.0 { 0.0 } else { 1.0 - v / b };
                format!("{:.0}%", coverage * 100.0)
            },
        ));
        out.push('\n');
    }
    out
}

/// Extension ablations (not a paper figure): design-choice studies around
/// the discontinuity prefetcher on the 4-way CMP.
fn fig11(lengths: RunLengths, x: &mut Executor) -> String {
    let mut out =
        heading(&["Ablations (extension): discontinuity design choices, 4-way CMP, bypass policy"]);
    let discont = |ahead| PrefetcherKind::Discontinuity {
        table_entries: 8192,
        ahead,
    };
    let variants: Vec<(String, PrefetcherKind)> = [
        ("discont ahead=1", discont(1)),
        ("discont ahead=2", discont(2)),
        ("discont ahead=4 (paper)", discont(4)),
        ("discont ahead=8", discont(8)),
        (
            "discont gated >=2",
            PrefetcherKind::DiscontinuityGated {
                table_entries: 8192,
                ahead: 4,
                min_confidence: 2,
            },
        ),
        (
            "target (8192)",
            PrefetcherKind::Target {
                table_entries: 8192,
            },
        ),
        ("lookahead-4", PrefetcherKind::Lookahead { n: 4 }),
        ("next-line (always)", PrefetcherKind::NextLineAlways),
        (
            "wrong-path + next-line",
            PrefetcherKind::WrongPath { next_line: true },
        ),
        (
            "markov 2-target",
            PrefetcherKind::Markov {
                table_entries: 8192,
                ahead: 4,
            },
        ),
    ]
    .into_iter()
    .map(|(label, kind)| (label.to_string(), kind))
    .collect();
    let sets = workload_columns(true);
    let (baselines, rows) = scheme_matrix(
        &SystemConfig::cmp4(),
        &sets,
        &variants,
        InstallPolicy::BypassL2UntilUseful,
        lengths,
        x,
    );
    out.push_str("speedup over no prefetching\n");
    out.push_str(&matrix_table("variant", &sets, &baselines, &rows, speedup));
    out.push_str("\nL1I miss ratio (vs no prefetching)\n");
    out.push_str(&matrix_table(
        "variant",
        &sets,
        &baselines,
        &rows,
        |s, b| format!("{:.2}", ratio(s.l1i_mpi, b.l1i_mpi)),
    ));
    out.push_str("\nprefetch accuracy\n");
    out.push_str(&matrix_table("variant", &sets, &baselines, &rows, accuracy));
    out
}

/// Extension experiment: off-chip bandwidth sensitivity (paper §7).
fn fig12(lengths: RunLengths, x: &mut Executor) -> String {
    let mut out = heading(&[
        "Extension: speedup vs off-chip bandwidth (4-way CMP, bypass policy)",
        "(paper: under constrained bandwidth the more accurate discont(2NL) becomes",
        " competitive with / preferable to the default next-4-line window)",
    ]);
    // GB/s at 3 GHz; 20 GB/s is the paper's CMP default.
    let bandwidths = [2.5f64, 5.0, 10.0, 20.0, 40.0];
    let schemes = [
        PrefetcherKind::NextNLineTagged { n: 4 },
        PrefetcherKind::discontinuity_2nl(),
        PrefetcherKind::discontinuity_default(),
    ];
    let header: Vec<String> = std::iter::once("scheme".to_string())
        .chain(bandwidths.iter().map(|bw| format!("{bw}GB/s")))
        .collect();
    for ws in [WorkloadSet::homogeneous(Workload::Db), WorkloadSet::mixed()] {
        out.push_str(&format!("workload: {}\n", ws.name()));
        let mut rows = Vec::new();
        for kind in schemes {
            let mut row = vec![kind.label()];
            for bw in bandwidths {
                let mut config = SystemConfig::cmp4();
                config.mem.offchip_bytes_per_cycle = bw / 3.0;
                let base = x(&RunSpec::new(config.clone(), ws.clone(), lengths));
                let s = x(&RunSpec::new(config, ws.clone(), lengths)
                    .prefetcher(kind)
                    .policy(InstallPolicy::BypassL2UntilUseful));
                row.push(speedup(&s, &base));
            }
            rows.push(row);
        }
        out.push_str(&table_string(&header, &rows));
        out.push('\n');
    }
    out
}

/// Extension experiment: memory-latency sensitivity.
fn fig13(lengths: RunLengths, x: &mut Executor) -> String {
    let mut out = heading(&[
        "Extension: speedup vs memory latency (4-way CMP, DB, bypass policy)",
        "(paper intro: growing memory distance demands longer prefetch lookahead —",
        " shallow next-line windows lose value faster than the 4-line window)",
    ]);
    let latencies = [100u64, 200, 400, 800];
    let schemes = [
        PrefetcherKind::NextLineTagged,
        PrefetcherKind::NextNLineTagged { n: 4 },
        PrefetcherKind::discontinuity_default(),
    ];
    let ws = WorkloadSet::homogeneous(Workload::Db);
    let config = |latency| {
        let mut config = SystemConfig::cmp4();
        config.mem.mem_latency = latency;
        config
    };
    let header: Vec<String> = std::iter::once("scheme".to_string())
        .chain(latencies.iter().map(|l| format!("{l}cyc")))
        .collect();
    let baselines: Vec<Summary> = latencies
        .iter()
        .map(|&lat| x(&RunSpec::new(config(lat), ws.clone(), lengths)))
        .collect();
    let mut rows = vec![std::iter::once("baseline IPC".to_string())
        .chain(baselines.iter().map(|s| format!("{:.3}", s.ipc)))
        .collect::<Vec<String>>()];
    for kind in schemes {
        let mut row = vec![kind.label()];
        for (&lat, base) in latencies.iter().zip(&baselines) {
            let s = x(&RunSpec::new(config(lat), ws.clone(), lengths)
                .prefetcher(kind)
                .policy(InstallPolicy::BypassL2UntilUseful));
            row.push(speedup(&s, base));
        }
        rows.push(row);
    }
    out.push_str(&table_string(&header, &rows));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn registry_is_complete_and_uniquely_named() {
        let figs = all();
        assert_eq!(figs.len(), 13);
        let names: HashSet<&str> = figs.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), figs.len());
        for (i, f) in figs.iter().enumerate() {
            assert_eq!(f.name, format!("fig{:02}", i + 1));
        }
    }

    /// Every figure must enumerate at least one run, and enumeration must be
    /// deterministic (same jobs, same order) — the scheduler depends on it.
    #[test]
    fn job_enumeration_is_deterministic() {
        let lengths = RunLengths {
            warm: 1_000,
            measure: 2_000,
        };
        for fig in all() {
            let a = fig.jobs(lengths).unwrap();
            let b = fig.jobs(lengths).unwrap();
            assert!(!a.is_empty(), "{} enumerates no runs", fig.name);
            let ka: Vec<String> = a.iter().map(RunSpec::cache_key).collect();
            let kb: Vec<String> = b.iter().map(RunSpec::cache_key).collect();
            assert_eq!(ka, kb, "{} job enumeration is unstable", fig.name);
        }
    }
}
