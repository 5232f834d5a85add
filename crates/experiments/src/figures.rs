//! Every figure of the paper (and the extension studies) as a
//! [`Figure`]: a named render function over an executor.
//!
//! The same function both enumerates the runs a figure needs (recording
//! pass) and renders its output from resolved summaries, so the scheduler's
//! job list can never drift from what rendering consumes. Output text is
//! byte-identical to the historical per-figure binaries.

use std::fmt::Write as _;

use ipsim_cache::InstallPolicy;
use ipsim_core::PrefetcherKind;
use ipsim_cpu::{LimitSpec, WorkloadSet};
use ipsim_harness::{Executor, Figure, RunLengths, RunSpec, Summary};
use ipsim_trace::Workload;
use ipsim_types::stats::CategoryCounts;
use ipsim_types::{CacheConfig, MissCategory, SystemConfig};

use crate::{
    pct, scheme_matrix, table_string, table_string_owned, workload_columns, workload_header,
};

/// The full figure registry, in paper order. `all_figures` sweeps this;
/// each thin `figNN_*` binary picks its own entry.
pub fn all() -> Vec<Figure> {
    vec![
        Figure {
            name: "fig01",
            title: "L1I miss rates vs cache geometry",
            version: 1,
            render: fig01,
        },
        Figure {
            name: "fig02",
            title: "L2 instruction miss rates vs L2 capacity",
            version: 1,
            render: fig02,
        },
        Figure {
            name: "fig03",
            title: "instruction miss breakdown by category",
            version: 1,
            render: fig03,
        },
        Figure {
            name: "fig04",
            title: "limit study: perfect elimination of miss classes",
            version: 1,
            render: fig04,
        },
        Figure {
            name: "fig05",
            title: "instruction miss rates under prefetching",
            version: 1,
            render: fig05,
        },
        Figure {
            name: "fig06",
            title: "prefetch speedup with conventional L2 install",
            version: 1,
            render: fig06,
        },
        Figure {
            name: "fig07",
            title: "L2 data pollution from instruction prefetching",
            version: 1,
            render: fig07,
        },
        Figure {
            name: "fig08",
            title: "prefetch speedup with L2 bypass until useful",
            version: 1,
            render: fig08,
        },
        Figure {
            name: "fig09",
            title: "prefetch accuracy and the next-2-line variant",
            version: 1,
            render: fig09,
        },
        Figure {
            name: "fig10",
            title: "miss coverage vs discontinuity table size",
            version: 1,
            render: fig10,
        },
        Figure {
            name: "fig11",
            title: "extension ablations: discontinuity design choices",
            version: 1,
            render: fig11,
        },
        Figure {
            name: "fig12",
            title: "extension: off-chip bandwidth sensitivity",
            version: 1,
            render: fig12,
        },
        Figure {
            name: "fig13",
            title: "extension: memory-latency sensitivity",
            version: 1,
            render: fig13,
        },
    ]
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

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 1: L1I miss rate (% per instruction) vs cache geometry"
    );
    let _ = writeln!(
        out,
        "(paper: default miss rates 1.32-3.16%, jApp highest; larger lines and"
    );
    let _ = writeln!(out, " capacity help strongly, associativity modestly)\n");

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
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 2: L2 instruction miss rate (% per instruction) vs L2 capacity"
    );
    let _ = writeln!(
        out,
        "(paper: 2MB CMP rates 0.07-0.44%, Mixed worst; CMP rates exceed single-core;"
    );
    let _ = writeln!(out, " 1MB→2MB improves more than 2MB→4MB)\n");

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

fn breakdown_row(name: &str, counts: &CategoryCounts) -> Vec<String> {
    let mut row = vec![name.to_string()];
    for cat in MissCategory::ALL {
        row.push(format!("{:.1}%", counts.fraction(cat) * 100.0));
    }
    row
}

fn breakdown_header() -> Vec<&'static str> {
    let mut h = vec!["workload"];
    for cat in MissCategory::ALL {
        h.push(cat.label());
    }
    h
}

/// Figure 3: breakdown of instruction misses by category.
fn fig03(lengths: RunLengths, x: &mut Executor) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 3: instruction miss breakdown by category");
    let _ = writeln!(
        out,
        "(paper: sequential 40-60%; branches 20-40% with cond-tf most prevalent;"
    );
    let _ = writeln!(
        out,
        " calls/jumps/returns 15-20% with Call most prevalent; traps negligible)\n"
    );

    let apps = workload_columns(false);
    let single: Vec<(String, Summary)> = apps
        .iter()
        .map(|ws| {
            (
                ws.name(),
                x(&RunSpec::new(
                    SystemConfig::single_core(),
                    ws.clone(),
                    lengths,
                )),
            )
        })
        .collect();

    let _ = writeln!(out, "(i) Instruction cache (single core)");
    let rows: Vec<Vec<String>> = single
        .iter()
        .map(|(n, s)| breakdown_row(n, &s.l1i_breakdown))
        .collect();
    out.push_str(&table_string(&breakdown_header(), &rows));

    let _ = writeln!(out, "\n(ii) L2 cache (single core)");
    let rows: Vec<Vec<String>> = single
        .iter()
        .map(|(n, s)| breakdown_row(n, &s.l2i_breakdown))
        .collect();
    out.push_str(&table_string(&breakdown_header(), &rows));

    let _ = writeln!(out, "\n(iii) L2 cache (4-way CMP)");
    let mut cmp_sets = apps;
    cmp_sets.push(WorkloadSet::mixed());
    let rows: Vec<Vec<String>> = cmp_sets
        .iter()
        .map(|ws| {
            let s = x(&RunSpec::new(SystemConfig::cmp4(), ws.clone(), lengths));
            breakdown_row(&ws.name(), &s.l2i_breakdown)
        })
        .collect();
    out.push_str(&table_string(&breakdown_header(), &rows));
    out
}

/// Figure 4: performance improvement achievable by perfectly eliminating
/// different classes of instruction misses (limit study).
fn fig04(lengths: RunLengths, x: &mut Executor) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 4: speedup from perfect elimination of miss classes"
    );
    let _ = writeln!(
        out,
        "(paper: eliminating all three classes yields far more than any single class;"
    );
    let _ = writeln!(
        out,
        " sequential-only beats branch-only and function-only)\n"
    );

    for (part, config, include_mix) in [
        ("(i) single core", SystemConfig::single_core(), false),
        ("(ii) 4-way CMP", SystemConfig::cmp4(), true),
    ] {
        let _ = writeln!(out, "{part}");
        let sets = workload_columns(include_mix);
        let mut header = vec!["elimination"];
        let names: Vec<String> = sets.iter().map(|w| w.name()).collect();
        for n in &names {
            header.push(n);
        }
        let baselines: Vec<Summary> = sets
            .iter()
            .map(|ws| x(&RunSpec::new(config.clone(), ws.clone(), lengths)))
            .collect();
        let mut rows = Vec::new();
        for spec in LimitSpec::FIG4_SETS {
            let mut row = vec![spec.label().to_string()];
            for (ws, base) in sets.iter().zip(&baselines) {
                let s = x(&RunSpec::new(config.clone(), ws.clone(), lengths).limit(spec));
                row.push(format!("{:.3}", s.speedup_over(base)));
            }
            rows.push(row);
        }
        out.push_str(&table_string(&header, &rows));
        let _ = writeln!(out);
    }
    out
}

/// Figure 5: instruction miss rates under the HW prefetching schemes,
/// normalised to no prefetching.
fn fig05(lengths: RunLengths, x: &mut Executor) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 5: instruction miss rate under prefetching (normalised to no prefetch)"
    );
    let _ = writeln!(
        out,
        "(paper: discontinuity lowest, reducing misses to ~0.10-0.25 of baseline;"
    );
    let _ = writeln!(out, " next-4-line clearly beats the next-line variants)\n");

    struct Part {
        title: &'static str,
        config: SystemConfig,
        include_mix: bool,
        l2: bool,
    }
    let parts = [
        Part {
            title: "(i) Instruction cache (single core)",
            config: SystemConfig::single_core(),
            include_mix: false,
            l2: false,
        },
        Part {
            title: "(ii) L2 cache instruction misses (single core)",
            config: SystemConfig::single_core(),
            include_mix: false,
            l2: true,
        },
        Part {
            title: "(iii) L2 cache instruction misses (4-way CMP)",
            config: SystemConfig::cmp4(),
            include_mix: true,
            l2: true,
        },
    ];

    for part in parts {
        let _ = writeln!(out, "{}", part.title);
        let sets = workload_columns(part.include_mix);
        let (baselines, per_scheme) = scheme_matrix(
            &part.config,
            &sets,
            &PrefetcherKind::PAPER_SCHEMES,
            InstallPolicy::InstallBoth,
            lengths,
            x,
        );
        let rows: Vec<Vec<String>> = per_scheme
            .iter()
            .map(|(label, summaries)| {
                let mut row = vec![label.clone()];
                for (s, base) in summaries.iter().zip(&baselines) {
                    let (v, b) = if part.l2 {
                        (s.l2i_mpi, base.l2i_mpi)
                    } else {
                        (s.l1i_mpi, base.l1i_mpi)
                    };
                    row.push(format!("{:.2}", if b == 0.0 { 0.0 } else { v / b }));
                }
                row
            })
            .collect();
        out.push_str(&table_string_owned(
            &workload_header("scheme", &sets),
            &rows,
        ));
        let _ = writeln!(out);
    }
    out
}

/// Figure 6: performance gains of the HW prefetching schemes with
/// conventional L2 installation (the polluting regime).
fn fig06(lengths: RunLengths, x: &mut Executor) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 6: speedup over no prefetching (prefetches installed in L2)"
    );
    let _ = writeln!(
        out,
        "(paper: gains fall well short of the Figure 4 limits because aggressive"
    );
    let _ = writeln!(
        out,
        " instruction prefetching pollutes the shared L2 with displaced data)\n"
    );

    for (title, config, include_mix) in [
        ("(i) single core", SystemConfig::single_core(), false),
        ("(ii) 4-way CMP", SystemConfig::cmp4(), true),
    ] {
        let _ = writeln!(out, "{title}");
        let sets = workload_columns(include_mix);
        let (baselines, per_scheme) = scheme_matrix(
            &config,
            &sets,
            &PrefetcherKind::PAPER_SCHEMES,
            InstallPolicy::InstallBoth,
            lengths,
            x,
        );
        let rows: Vec<Vec<String>> = per_scheme
            .iter()
            .map(|(label, summaries)| {
                let mut row = vec![label.clone()];
                for (s, base) in summaries.iter().zip(&baselines) {
                    row.push(format!("{:.3}", s.speedup_over(base)));
                }
                row
            })
            .collect();
        out.push_str(&table_string_owned(
            &workload_header("scheme", &sets),
            &rows,
        ));
        let _ = writeln!(out);
    }
    out
}

/// Figure 7: L2 cache *data* miss rate under instruction prefetching,
/// normalised to no prefetching.
fn fig07(lengths: RunLengths, x: &mut Executor) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 7: L2 data miss rate (normalised to no prefetch)"
    );
    let _ = writeln!(
        out,
        "(paper: aggressive schemes inflate data misses by up to ~1.35x — speculative"
    );
    let _ = writeln!(out, " instruction lines evict data from the unified L2)\n");

    for (title, config, include_mix) in [
        ("(i) single core", SystemConfig::single_core(), false),
        ("(ii) 4-way CMP", SystemConfig::cmp4(), true),
    ] {
        let _ = writeln!(out, "{title}");
        let sets = workload_columns(include_mix);
        let (baselines, per_scheme) = scheme_matrix(
            &config,
            &sets,
            &PrefetcherKind::PAPER_SCHEMES,
            InstallPolicy::InstallBoth,
            lengths,
            x,
        );
        let rows: Vec<Vec<String>> = per_scheme
            .iter()
            .map(|(label, summaries)| {
                let mut row = vec![label.clone()];
                for (s, base) in summaries.iter().zip(&baselines) {
                    let ratio = if base.l2d_mpi == 0.0 {
                        0.0
                    } else {
                        s.l2d_mpi / base.l2d_mpi
                    };
                    row.push(format!("{ratio:.3}"));
                }
                row
            })
            .collect();
        out.push_str(&table_string_owned(
            &workload_header("scheme", &sets),
            &rows,
        ));
        let _ = writeln!(out);
    }
    out
}

/// Figure 8: performance gains when instruction prefetches bypass the L2
/// until proven useful (the paper's selective-install policy).
fn fig08(lengths: RunLengths, x: &mut Executor) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 8: speedup over no prefetching (prefetches bypass the L2 until useful)"
    );
    let _ = writeln!(
        out,
        "(paper: removing the data pollution lifts the CMP discontinuity speedups from"
    );
    let _ = writeln!(out, " 1.05-1.28x to 1.08-1.37x; compare with Figure 6)\n");

    for (title, config, include_mix) in [
        ("(i) single core", SystemConfig::single_core(), false),
        ("(ii) 4-way CMP", SystemConfig::cmp4(), true),
    ] {
        let _ = writeln!(out, "{title}");
        let sets = workload_columns(include_mix);
        let (baselines, per_scheme) = scheme_matrix(
            &config,
            &sets,
            &PrefetcherKind::PAPER_SCHEMES,
            InstallPolicy::BypassL2UntilUseful,
            lengths,
            x,
        );
        let rows: Vec<Vec<String>> = per_scheme
            .iter()
            .map(|(label, summaries)| {
                let mut row = vec![label.clone()];
                for (s, base) in summaries.iter().zip(&baselines) {
                    row.push(format!("{:.3}", s.speedup_over(base)));
                }
                row
            })
            .collect();
        out.push_str(&table_string_owned(
            &workload_header("scheme", &sets),
            &rows,
        ));
        let _ = writeln!(out);
    }
    out
}

/// Figure 9: prefetch accuracy for every scheme including the next-2-line
/// discontinuity variant, plus that variant's performance.
fn fig09(lengths: RunLengths, x: &mut Executor) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 9: prefetch accuracy and the next-2-line discontinuity variant (4-way CMP)"
    );
    let _ = writeln!(
        out,
        "(paper: accuracy falls as schemes get more aggressive; discont(2NL) is ~50%"
    );
    let _ = writeln!(
        out,
        " more accurate than next-4-line and still outperforms it)\n"
    );

    let mut schemes = PrefetcherKind::PAPER_SCHEMES.to_vec();
    schemes.push(PrefetcherKind::discontinuity_2nl());

    let config = SystemConfig::cmp4();
    let sets = workload_columns(true);
    let (baselines, per_scheme) = scheme_matrix(
        &config,
        &sets,
        &schemes,
        InstallPolicy::BypassL2UntilUseful,
        lengths,
        x,
    );

    let _ = writeln!(out, "(i) prefetch accuracy (useful / issued)");
    let rows: Vec<Vec<String>> = per_scheme
        .iter()
        .map(|(label, summaries)| {
            let mut row = vec![label.clone()];
            for s in summaries {
                row.push(format!("{:.0}%", s.accuracy * 100.0));
            }
            row
        })
        .collect();
    out.push_str(&table_string_owned(
        &workload_header("scheme", &sets),
        &rows,
    ));

    let _ = writeln!(out, "\n(ii) speedup over no prefetching");
    let rows: Vec<Vec<String>> = per_scheme
        .iter()
        .map(|(label, summaries)| {
            let mut row = vec![label.clone()];
            for (s, base) in summaries.iter().zip(&baselines) {
                row.push(format!("{:.3}", s.speedup_over(base)));
            }
            row
        })
        .collect();
    out.push_str(&table_string_owned(
        &workload_header("scheme", &sets),
        &rows,
    ));
    out
}

/// Figure 10: prefetch coverage for various discontinuity prediction-table
/// sizes, against the next-4-line sequential prefetcher.
fn fig10(lengths: RunLengths, x: &mut Executor) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 10: miss coverage vs discontinuity table size (4-way CMP)"
    );
    let _ = writeln!(
        out,
        "(paper: the 8K-entry table can shrink 4x with minimal coverage loss, and"
    );
    let _ = writeln!(
        out,
        " even 256 entries beats the next-4-line sequential prefetcher)\n"
    );

    let config = SystemConfig::cmp4();
    let sets = workload_columns(true);
    let baselines: Vec<Summary> = sets
        .iter()
        .map(|ws| x(&RunSpec::new(config.clone(), ws.clone(), lengths)))
        .collect();

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

    let results: Vec<(String, Vec<Summary>)> = variants
        .iter()
        .map(|(label, kind)| {
            let summaries = sets
                .iter()
                .map(|ws| {
                    x(&RunSpec::new(config.clone(), ws.clone(), lengths)
                        .prefetcher(*kind)
                        .policy(InstallPolicy::BypassL2UntilUseful))
                })
                .collect();
            (label.clone(), summaries)
        })
        .collect();

    for (title, l2) in [
        ("(i) L1 instruction cache coverage", false),
        ("(ii) L2 cache coverage", true),
    ] {
        let _ = writeln!(out, "{title}");
        let rows: Vec<Vec<String>> = results
            .iter()
            .map(|(label, summaries)| {
                let mut row = vec![label.clone()];
                for (s, base) in summaries.iter().zip(&baselines) {
                    let (v, b) = if l2 {
                        (s.l2i_mpi, base.l2i_mpi)
                    } else {
                        (s.l1i_mpi, base.l1i_mpi)
                    };
                    let coverage = if b == 0.0 { 0.0 } else { 1.0 - v / b };
                    row.push(format!("{:.0}%", coverage * 100.0));
                }
                row
            })
            .collect();
        out.push_str(&table_string_owned(
            &workload_header("predictor", &sets),
            &rows,
        ));
        let _ = writeln!(out);
    }
    out
}

/// Extension ablations (not a paper figure): design-choice studies around
/// the discontinuity prefetcher on the 4-way CMP.
fn fig11(lengths: RunLengths, x: &mut Executor) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablations (extension): discontinuity design choices, 4-way CMP, bypass policy\n"
    );

    let config = SystemConfig::cmp4();
    let sets = workload_columns(true);
    let baselines: Vec<Summary> = sets
        .iter()
        .map(|ws| x(&RunSpec::new(config.clone(), ws.clone(), lengths)))
        .collect();

    let variants: Vec<(String, PrefetcherKind)> = vec![
        (
            "discont ahead=1".into(),
            PrefetcherKind::Discontinuity {
                table_entries: 8192,
                ahead: 1,
            },
        ),
        (
            "discont ahead=2".into(),
            PrefetcherKind::Discontinuity {
                table_entries: 8192,
                ahead: 2,
            },
        ),
        (
            "discont ahead=4 (paper)".into(),
            PrefetcherKind::Discontinuity {
                table_entries: 8192,
                ahead: 4,
            },
        ),
        (
            "discont ahead=8".into(),
            PrefetcherKind::Discontinuity {
                table_entries: 8192,
                ahead: 8,
            },
        ),
        (
            "discont gated >=2".into(),
            PrefetcherKind::DiscontinuityGated {
                table_entries: 8192,
                ahead: 4,
                min_confidence: 2,
            },
        ),
        (
            "target (8192)".into(),
            PrefetcherKind::Target {
                table_entries: 8192,
            },
        ),
        ("lookahead-4".into(), PrefetcherKind::Lookahead { n: 4 }),
        ("next-line (always)".into(), PrefetcherKind::NextLineAlways),
        (
            "wrong-path + next-line".into(),
            PrefetcherKind::WrongPath { next_line: true },
        ),
        (
            "markov 2-target".into(),
            PrefetcherKind::Markov {
                table_entries: 8192,
                ahead: 4,
            },
        ),
    ];

    let mut speed_rows = Vec::new();
    let mut miss_rows = Vec::new();
    let mut acc_rows = Vec::new();
    for (label, kind) in &variants {
        let mut speed = vec![label.clone()];
        let mut miss = vec![label.clone()];
        let mut acc = vec![label.clone()];
        for (ws, base) in sets.iter().zip(&baselines) {
            let s = x(&RunSpec::new(config.clone(), ws.clone(), lengths)
                .prefetcher(*kind)
                .policy(InstallPolicy::BypassL2UntilUseful));
            speed.push(format!("{:.3}", s.speedup_over(base)));
            miss.push(format!(
                "{:.2}",
                if base.l1i_mpi == 0.0 {
                    0.0
                } else {
                    s.l1i_mpi / base.l1i_mpi
                }
            ));
            acc.push(format!("{:.0}%", s.accuracy * 100.0));
        }
        speed_rows.push(speed);
        miss_rows.push(miss);
        acc_rows.push(acc);
    }

    let _ = writeln!(out, "speedup over no prefetching");
    out.push_str(&table_string_owned(
        &workload_header("variant", &sets),
        &speed_rows,
    ));
    let _ = writeln!(out, "\nL1I miss ratio (vs no prefetching)");
    out.push_str(&table_string_owned(
        &workload_header("variant", &sets),
        &miss_rows,
    ));
    let _ = writeln!(out, "\nprefetch accuracy");
    out.push_str(&table_string_owned(
        &workload_header("variant", &sets),
        &acc_rows,
    ));
    out
}

/// Extension experiment: off-chip bandwidth sensitivity (paper §7).
fn fig12(lengths: RunLengths, x: &mut Executor) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Extension: speedup vs off-chip bandwidth (4-way CMP, bypass policy)"
    );
    let _ = writeln!(
        out,
        "(paper: under constrained bandwidth the more accurate discont(2NL) becomes"
    );
    let _ = writeln!(
        out,
        " competitive with / preferable to the default next-4-line window)\n"
    );

    // GB/s at 3 GHz; 20 GB/s is the paper's CMP default.
    let bandwidths = [2.5f64, 5.0, 10.0, 20.0, 40.0];
    let schemes = [
        PrefetcherKind::NextNLineTagged { n: 4 },
        PrefetcherKind::discontinuity_2nl(),
        PrefetcherKind::discontinuity_default(),
    ];
    let sets = [WorkloadSet::homogeneous(Workload::Db), WorkloadSet::mixed()];

    for ws in &sets {
        let _ = writeln!(out, "workload: {}", ws.name());
        let mut header = vec!["scheme".to_string()];
        for bw in bandwidths {
            header.push(format!("{bw}GB/s"));
        }
        let mut rows = Vec::new();
        for kind in schemes {
            let mut row = vec![kind.label()];
            for bw in bandwidths {
                let mut config = SystemConfig::cmp4();
                config.mem.offchip_bytes_per_cycle = bw / 3.0;
                let base: Summary = x(&RunSpec::new(config.clone(), ws.clone(), lengths));
                let s = x(&RunSpec::new(config, ws.clone(), lengths)
                    .prefetcher(kind)
                    .policy(InstallPolicy::BypassL2UntilUseful));
                row.push(format!("{:.3}", s.speedup_over(&base)));
            }
            rows.push(row);
        }
        out.push_str(&table_string_owned(&header, &rows));
        let _ = writeln!(out);
    }
    out
}

/// Extension experiment: memory-latency sensitivity.
fn fig13(lengths: RunLengths, x: &mut Executor) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Extension: speedup vs memory latency (4-way CMP, DB, bypass policy)"
    );
    let _ = writeln!(
        out,
        "(paper intro: growing memory distance demands longer prefetch lookahead —"
    );
    let _ = writeln!(
        out,
        " shallow next-line windows lose value faster than the 4-line window)\n"
    );

    let latencies = [100u64, 200, 400, 800];
    let schemes = [
        PrefetcherKind::NextLineTagged,
        PrefetcherKind::NextNLineTagged { n: 4 },
        PrefetcherKind::discontinuity_default(),
    ];
    let ws = WorkloadSet::homogeneous(Workload::Db);

    let mut header = vec!["scheme".to_string()];
    for l in latencies {
        header.push(format!("{l}cyc"));
    }
    let mut rows = Vec::new();

    let mut base_row = vec!["baseline IPC".to_string()];
    let baselines: Vec<Summary> = latencies
        .iter()
        .map(|&lat| {
            let mut config = SystemConfig::cmp4();
            config.mem.mem_latency = lat;
            let s = x(&RunSpec::new(config, ws.clone(), lengths));
            base_row.push(format!("{:.3}", s.ipc));
            s
        })
        .collect();
    rows.push(base_row);

    for kind in schemes {
        let mut row = vec![kind.label()];
        for (i, &lat) in latencies.iter().enumerate() {
            let mut config = SystemConfig::cmp4();
            config.mem.mem_latency = lat;
            let s = x(&RunSpec::new(config, ws.clone(), lengths)
                .prefetcher(kind)
                .policy(InstallPolicy::BypassL2UntilUseful));
            row.push(format!("{:.3}", s.speedup_over(&baselines[i])));
        }
        rows.push(row);
    }
    out.push_str(&table_string_owned(&header, &rows));
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
