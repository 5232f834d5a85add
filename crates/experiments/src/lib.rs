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

use ipsim_cpu::WorkloadSet;
use ipsim_trace::Workload;

/// Formats a fraction as a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Runs the paper's four prefetch schemes over a set of workloads under a
/// given system configuration and install policy, returning per-scheme
/// summaries plus the no-prefetch baselines. Shared by Figures 5-9.
pub fn scheme_matrix(
    config: &ipsim_types::SystemConfig,
    sets: &[WorkloadSet],
    schemes: &[ipsim_core::PrefetcherKind],
    policy: ipsim_cache::InstallPolicy,
    lengths: RunLengths,
    x: &mut Executor,
) -> (Vec<Summary>, Vec<(String, Vec<Summary>)>) {
    let baselines: Vec<Summary> = sets
        .iter()
        .map(|ws| x(&RunSpec::new(config.clone(), ws.clone(), lengths)))
        .collect();
    let per_scheme = schemes
        .iter()
        .map(|kind| {
            let summaries = sets
                .iter()
                .map(|ws| {
                    x(&RunSpec::new(config.clone(), ws.clone(), lengths)
                        .prefetcher(*kind)
                        .policy(policy))
                })
                .collect();
            (kind.label(), summaries)
        })
        .collect();
    (baselines, per_scheme)
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

/// Header row: a label column followed by workload names.
pub fn workload_header(label: &'static str, sets: &[WorkloadSet]) -> Vec<String> {
    let mut h = vec![label.to_string()];
    for ws in sets {
        h.push(ws.name());
    }
    h
}

/// Formats a table whose header cells are owned strings.
pub fn table_string_owned(header: &[String], rows: &[Vec<String>]) -> String {
    let refs: Vec<&str> = header.iter().map(String::as_str).collect();
    table_string(&refs, rows)
}

/// Formats a simple aligned table: a header row, a rule, then data rows.
/// Every line ends with `\n`.
pub fn table_string(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
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
    out.push_str(&line(header.iter().map(|s| s.to_string()).collect()));
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
