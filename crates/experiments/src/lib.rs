//! Figure definitions and shared utilities for the experiment binaries.
//!
//! Each figure of the paper lives in [`figures`] as a render function over
//! an [`Executor`] (see `ipsim-harness`). One binary, `all_figures`,
//! sweeps every figure — or the subset `--figures` names — through one
//! shared scheduler in a single process:
//!
//! ```text
//! cargo run --release -p ipsim-experiments --bin all_figures -- [--quick] [--jobs N]
//! cargo run --release -p ipsim-experiments --bin all_figures -- --figures fig01 [--quick]
//! ```
//!
//! `--quick` shrinks the warm-up/measurement windows ~5× for smoke runs;
//! default windows are 10 M warm + 20 M measured instructions per core
//! (the paper used 50 M + 100 M on real traces). `report` reads a
//! sweep's artifacts back (`report sim|sweep|ops|check|trace`);
//! `tests/cli.rs` pins both binaries' exit-code contract. Live
//! one-configuration runs and scheme comparisons are the root `ipsim`
//! command's (`ipsim run|compare|breakdown`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bakeoff;
pub mod figures;
pub mod report;

pub use ipsim_harness::{Executor, RunLengths, RunSpec, Summary};

use ipsim_cache::InstallPolicy;
use ipsim_core::PrefetcherKind;
use ipsim_cpu::WorkloadSet;
use ipsim_trace::Workload;
use ipsim_types::SystemConfig;

/// Formats a fraction as a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// One part of a two-system figure: its title, its configuration, and
/// whether its columns include Mixed.
pub(crate) type SystemPart = (&'static str, fn() -> SystemConfig, bool);

/// The two systems of the paper's two-part figures (4, 6, 7 and 8).
pub(crate) const SYSTEMS: [SystemPart; 2] = [
    ("(i) single core", SystemConfig::single_core, false),
    ("(ii) 4-way CMP", SystemConfig::cmp4, true),
];

/// `v` as a fraction of `base`, or 0 when the baseline is 0.
pub(crate) fn ratio(v: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        v / base
    }
}

/// Runs each labelled scheme over a set of workloads under a given system
/// configuration and install policy, returning the no-prefetch baselines
/// and one row of summaries per scheme. Baselines run first, then each
/// scheme across the workloads in order. Shared by Figures 5-11.
pub fn scheme_matrix(
    config: &SystemConfig,
    sets: &[WorkloadSet],
    schemes: &[(String, PrefetcherKind)],
    policy: InstallPolicy,
    lengths: RunLengths,
    x: &mut Executor,
) -> (Vec<Summary>, Vec<(String, Vec<Summary>)>) {
    let baselines: Vec<Summary> = sets
        .iter()
        .map(|ws| x(&RunSpec::new(config.clone(), ws.clone(), lengths)))
        .collect();
    let rows = schemes
        .iter()
        .map(|(label, kind)| {
            let summaries = sets
                .iter()
                .map(|ws| {
                    x(&RunSpec::new(config.clone(), ws.clone(), lengths)
                        .prefetcher(*kind)
                        .policy(policy))
                })
                .collect();
            (label.clone(), summaries)
        })
        .collect();
    (baselines, rows)
}

/// Formats a [`scheme_matrix`] as a table: a `label` column of row names,
/// then one column per workload set whose cells are `cell(run, baseline)`.
pub(crate) fn matrix_table(
    label: &str,
    sets: &[WorkloadSet],
    baselines: &[Summary],
    rows: &[(String, Vec<Summary>)],
    cell: impl Fn(&Summary, &Summary) -> String,
) -> String {
    let header: Vec<String> = std::iter::once(label.to_string())
        .chain(sets.iter().map(WorkloadSet::name))
        .collect();
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(name, summaries)| {
            std::iter::once(name.clone())
                .chain(summaries.iter().zip(baselines).map(|(s, b)| cell(s, b)))
                .collect()
        })
        .collect();
    table_string(&header, &rows)
}

/// The workload columns of a figure: the four applications (the
/// single-core figures), plus Mixed when `include_mix` (the five columns
/// of the paper's CMP figures: DB, TPC-W, jApp, Web, Mixed).
pub fn workload_columns(include_mix: bool) -> Vec<WorkloadSet> {
    let mut sets: Vec<WorkloadSet> = Workload::ALL
        .iter()
        .map(|w| WorkloadSet::homogeneous(*w))
        .collect();
    if include_mix {
        sets.push(WorkloadSet::mixed());
    }
    sets
}

/// Formats a simple aligned table: a header row, a rule, then data rows.
/// Every line ends with `\n`.
pub fn table_string<S: AsRef<str>>(header: &[S], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.as_ref().len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i == 0 {
                out.push_str(&format!("{:<w$}", c, w = widths[i] + 2));
            } else {
                out.push_str(&format!("{:>w$}", c, w = widths[i] + 2));
            }
        }
        out
    };
    let mut out = String::new();
    out.push_str(&line(
        header.iter().map(|s| s.as_ref().to_string()).collect(),
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().map(|w| w + 2).sum()));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row.clone()));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_sets_cover_the_paper_columns() {
        let cmp = workload_columns(true);
        assert_eq!(cmp.len(), 5);
        assert_eq!(cmp[4].name(), "Mixed");
        assert_eq!(workload_columns(false).len(), 4);
    }

    #[test]
    fn quick_is_shorter_than_full() {
        assert!(RunLengths::quick().measure < RunLengths::full().measure);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.1234), "12.34%");
    }

    #[test]
    fn tables_align_and_terminate_lines() {
        let t = table_string(&["a", "bb"], &[vec!["x".to_string(), "12345".to_string()]]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(t.ends_with('\n'));
        assert_eq!(lines[0].len(), lines[2].len());
    }
}
