//! The sweep report: one queryable summary aggregated from the runlog,
//! the run cache and the telemetry artifacts.
//!
//! Everything a sweep produced is already on disk — v5 runlog rows with
//! per-run wall time and kernel throughput, cache entries with the full
//! metric summaries, telemetry artifacts with prefetch lifecycle counts —
//! but spread over three stores in three formats. `report sweep` folds
//! them into one text report:
//!
//! * **totals** — runs by stream source, wall time, and the aggregate
//!   kernel throughput Σ(sim_mips·sim_s)/Σ sim_s the v5 schema was added
//!   to make computable;
//! * **cache economics** — hit/miss counts and the wall seconds the cache
//!   bought, from the measured costs of hits vs simulations in this log;
//! * **per-workload / per-scheme** — accuracy, coverage (L1I miss
//!   reduction vs the matching no-prefetch baseline), prefetches per
//!   kilo-instruction from the cache summaries, plus timeliness (late and
//!   useless fractions) where a telemetry artifact exists.
//!
//! `--stable` drops everything timing-dependent (timestamps, wall,
//! sources) and keys every remaining line to sorted cache keys: the
//! stable view of a sweep is byte-identical no matter how many workers or
//! invocations produced it — which is what the determinism tests pin.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use ipsim_harness::runlog::RUNLOG_SCHEMA;
use ipsim_harness::telemetry::{read_pf_summary, TelemetryConfig};
use ipsim_harness::{RunCache, TelemetrySink};
use ipsim_telemetry::PfEventKind;

use crate::table_string;

/// Where a report reads its inputs from.
#[derive(Debug, Clone)]
pub struct ReportOptions {
    /// The runlog to aggregate.
    pub runlog: PathBuf,
    /// The run cache holding metric summaries (accuracy, miss rates).
    pub cache_dir: PathBuf,
    /// The telemetry artifact root (timeliness columns); missing artifacts
    /// degrade those columns to `-`, never fail the report.
    pub telemetry_dir: PathBuf,
    /// Emit only the machine-stable view: no timestamps, wall times or
    /// stream sources. Byte-identical across worker counts.
    pub stable: bool,
}

impl ReportOptions {
    /// The stores a sweep run in this environment writes: `$IPSIM_RUNLOG`,
    /// `$IPSIM_CACHE_DIR` and `$IPSIM_TELEMETRY_DIR`, each falling back to
    /// its default under `results/` when unset or empty.
    pub fn from_env() -> ReportOptions {
        ReportOptions {
            runlog: ipsim_harness::runlog::runlog_path_from_env(),
            cache_dir: RunCache::from_env().dir().to_path_buf(),
            telemetry_dir: TelemetrySink::from_env(TelemetryConfig::default())
                .root()
                .to_path_buf(),
            stable: false,
        }
    }
}

/// One parsed v5 runlog row (the fields the report uses).
#[derive(Debug, Clone)]
struct LogRow {
    source: String,
    ok: bool,
    wall_s: f64,
    sim_minstr: f64,
    sim_mips: f64,
    sim_s: f64,
    key: String,
    label: String,
}

/// Parses a v5 runlog. Comment lines are skipped, including the
/// `# batch …` markers older logs carry. Malformed rows are counted, not
/// fatal: a report over a damaged log should describe what is readable
/// and say what was not.
fn parse_runlog(text: &str) -> Result<(Vec<LogRow>, usize), String> {
    let mut lines = text.lines();
    match lines.next() {
        Some(first) if first == RUNLOG_SCHEMA => {}
        Some(first) => return Err(format!("unsupported runlog header `{first}`")),
        None => return Err("empty runlog".to_string()),
    }
    let mut rows = Vec::new();
    let mut malformed = 0usize;
    for line in lines {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        let parsed = (|| -> Option<LogRow> {
            Some(LogRow {
                source: f.get(2)?.to_string(),
                ok: *f.get(3)? == "1",
                wall_s: f.get(4)?.parse().ok()?,
                sim_minstr: f.get(5)?.parse().ok()?,
                sim_mips: f.get(7)?.parse().ok()?,
                sim_s: f.get(8)?.parse().ok()?,
                key: f.get(13)?.to_string(),
                label: f.get(14)?.to_string(),
            })
        })();
        match parsed {
            Some(row) if f.len() == 15 => rows.push(row),
            _ => malformed += 1,
        }
    }
    Ok((rows, malformed))
}

/// Splits a run label `{n}c·{workload}·{scheme}[·bypass][·lim:…]` into
/// (cores, workload, scheme-with-modifiers). Labels that don't follow the
/// shape (none today) land under a catch-all workload.
fn split_label(label: &str) -> (String, String, String) {
    let parts: Vec<&str> = label.split('·').collect();
    if parts.len() >= 3 {
        (
            parts[0].to_string(),
            parts[1].to_string(),
            parts[2..].join("·"),
        )
    } else {
        ("?".to_string(), label.to_string(), "?".to_string())
    }
}

/// Timeliness counters for one run, read from its telemetry artifact.
#[derive(Debug, Clone, Copy)]
struct Timeliness {
    issued: u64,
    first_use: u64,
    first_use_late: u64,
    evict_unused: u64,
}

/// Reads and folds `pf_summary.tsv` across components; `None` when the
/// artifact is absent or unreadable.
fn read_timeliness(telemetry_dir: &Path, key: &str) -> Option<Timeliness> {
    let rows = read_pf_summary(&telemetry_dir.join(key)).ok()?;
    let mut t = Timeliness {
        issued: 0,
        first_use: 0,
        first_use_late: 0,
        evict_unused: 0,
    };
    for (_, counters) in rows {
        t.issued += counters.get(PfEventKind::Issued);
        t.first_use += counters.get(PfEventKind::FirstUse);
        t.first_use_late += counters.get(PfEventKind::FirstUseLate);
        t.evict_unused += counters.get(PfEventKind::EvictUnused);
    }
    Some(t)
}

fn pct_or_dash(num: f64, den: f64) -> String {
    if den > 0.0 {
        format!("{:.1}%", 100.0 * num / den)
    } else {
        "-".to_string()
    }
}

/// Renders the full report text.
///
/// # Errors
///
/// Only a missing or unreadable runlog fails the report; the cache and
/// telemetry inputs degrade gracefully (their columns print `-`).
pub fn render_report(opts: &ReportOptions) -> Result<String, String> {
    let text = std::fs::read_to_string(&opts.runlog)
        .map_err(|e| format!("cannot read runlog {}: {e}", opts.runlog.display()))?;
    let (rows, malformed) = parse_runlog(&text)?;
    let cache = RunCache::at(&opts.cache_dir);

    // One representative row per key (the last one logged) drives the
    // deterministic sections; the full row list drives the timing ones.
    let mut by_key: BTreeMap<String, LogRow> = BTreeMap::new();
    for row in &rows {
        by_key.insert(row.key.clone(), row.clone());
    }

    let mut out = String::new();
    let _ = writeln!(out, "# ipsim sweep report");
    if !opts.stable {
        let _ = writeln!(out, "runlog: {}", opts.runlog.display());
    }

    // --- totals -----------------------------------------------------
    let _ = writeln!(out, "\n== totals ==");
    let _ = writeln!(out, "unique runs: {}", by_key.len());
    let failed = by_key.values().filter(|r| !r.ok).count();
    if failed > 0 {
        let _ = writeln!(out, "failed runs: {failed}");
    }
    if malformed > 0 {
        let _ = writeln!(out, "malformed rows skipped: {malformed}");
    }
    if !opts.stable {
        let _ = writeln!(out, "log rows: {}", rows.len());
        let mut by_source: BTreeMap<&str, usize> = BTreeMap::new();
        for row in &rows {
            *by_source.entry(row.source.as_str()).or_default() += 1;
        }
        let sources: Vec<String> = by_source.iter().map(|(s, n)| format!("{s} {n}")).collect();
        let _ = writeln!(out, "stream sources: {}", sources.join(" · "));
        let wall: f64 = rows.iter().map(|r| r.wall_s).sum();
        let minstr: f64 = rows.iter().map(|r| r.sim_minstr).sum();
        let _ = writeln!(
            out,
            "wall: {wall:.1}s · {minstr:.0}M instructions simulated"
        );
        let sim_s: f64 = rows.iter().map(|r| r.sim_s).sum();
        let weighted: f64 = rows.iter().map(|r| r.sim_mips * r.sim_s).sum();
        if sim_s > 0.0 {
            let _ = writeln!(
                out,
                "aggregate sim-MIPS: {:.2} (kernel-only, sim_s-weighted over {:.1}s)",
                weighted / sim_s,
                sim_s,
            );
        }
        // Per-run kernel throughput distribution, through the same log₂
        // histogram `/v1/metrics` exposes (`ipsim_kernel_sim_mips`), so a
        // runlog report and a live metrics scrape quote comparable
        // percentiles.
        let dist = ipsim_obs::Histogram::new();
        let executed = rows.iter().filter(|r| r.sim_mips > 0.0).count();
        for row in rows.iter().filter(|r| r.sim_mips > 0.0) {
            dist.observe(row.sim_mips.round() as u64);
        }
        if executed > 0 {
            let _ = writeln!(
                out,
                "sim-MIPS distribution: p50 {} · p90 {} · p99 {} (over {executed} executed runs)",
                dist.percentile(50.0),
                dist.percentile(90.0),
                dist.percentile(99.0),
            );
        }
    }

    // --- cache economics (timing-dependent: skipped in stable) ------
    if !opts.stable {
        let hits: Vec<&LogRow> = rows.iter().filter(|r| r.source == "cache").collect();
        let sims: Vec<&LogRow> = rows.iter().filter(|r| r.source != "cache").collect();
        let _ = writeln!(out, "\n== cache economics ==");
        let _ = writeln!(
            out,
            "hits: {} · simulations: {} · hit rate {}",
            hits.len(),
            sims.len(),
            pct_or_dash(hits.len() as f64, rows.len() as f64),
        );
        if !hits.is_empty() && !sims.is_empty() {
            let hit_mean = hits.iter().map(|r| r.wall_s).sum::<f64>() / hits.len() as f64;
            let sim_mean = sims.iter().map(|r| r.wall_s).sum::<f64>() / sims.len() as f64;
            let _ = writeln!(
                out,
                "mean wall: {:.4}s per hit vs {:.3}s per simulation \
                 (~{:.1}s saved by {} hits)",
                hit_mean,
                sim_mean,
                (sim_mean - hit_mean).max(0.0) * hits.len() as f64,
                hits.len(),
            );
        }
        // Corrupt entries the cache moved aside (`<key>.tsv.corrupt`):
        // each one cost a re-simulation and is evidence worth inspecting.
        let quarantined = std::fs::read_dir(&opts.cache_dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .filter(|e| e.file_name().to_string_lossy().ends_with(".corrupt"))
                    .count()
            })
            .unwrap_or(0);
        if quarantined > 0 {
            let _ = writeln!(
                out,
                "quarantined entries: {quarantined} (*.corrupt files under {})",
                opts.cache_dir.display(),
            );
        }
    }

    // --- per-workload / per-scheme ----------------------------------
    // Baselines: for each (cores, workload), the `none` run's summary.
    let mut baselines: BTreeMap<(String, String), f64> = BTreeMap::new();
    for row in by_key.values() {
        let (cores, workload, scheme) = split_label(&row.label);
        if scheme == "none" {
            if let Some(s) = cache.lookup_key(&row.key) {
                baselines.insert((cores, workload), s.l1i_mpi);
            }
        }
    }
    let _ = writeln!(out, "\n== per-workload / per-scheme ==");
    let header = [
        "run", "accuracy", "coverage", "pf/KI", "l1i_mpi", "late", "useless", "key",
    ];
    let mut table: Vec<Vec<String>> = Vec::new();
    for (key, row) in &by_key {
        let (cores, workload, scheme) = split_label(&row.label);
        if scheme == "none" {
            continue;
        }
        let Some(s) = cache.lookup_key(key) else {
            table.push(vec![
                row.label.clone(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                key.clone(),
            ]);
            continue;
        };
        let coverage = match baselines.get(&(cores, workload)) {
            Some(base_mpi) if *base_mpi > 0.0 => {
                format!("{:.1}%", 100.0 * (base_mpi - s.l1i_mpi) / base_mpi)
            }
            _ => "-".to_string(),
        };
        let (late, useless) = match read_timeliness(&opts.telemetry_dir, key) {
            Some(t) => (
                pct_or_dash(
                    t.first_use_late as f64,
                    (t.first_use + t.first_use_late) as f64,
                ),
                pct_or_dash(t.evict_unused as f64, t.issued as f64),
            ),
            None => ("-".to_string(), "-".to_string()),
        };
        table.push(vec![
            row.label.clone(),
            format!("{:.1}%", 100.0 * s.accuracy),
            coverage,
            format!("{:.1}", s.issued_per_ki),
            format!("{:.5}", s.l1i_mpi),
            late,
            useless,
            key.clone(),
        ]);
    }
    if table.is_empty() {
        let _ = writeln!(out, "(no prefetching runs in the log)");
    } else {
        out.push_str(&table_string(&header, &table));
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsim_harness::runlog::{append, RunRecord};
    use ipsim_harness::traces::RunSource;

    fn record(key: &str, label: &str, source: RunSource, wall: f64) -> RunRecord {
        RunRecord {
            key: key.into(),
            label: label.into(),
            source,
            ok: true,
            wall_s: wall,
            sim_instructions: if source == RunSource::Cache {
                0
            } else {
                30_000_000
            },
            mips: 20.0,
            sim_mips: if source == RunSource::Cache {
                0.0
            } else {
                30.0
            },
            sim_s: if source == RunSource::Cache { 0.0 } else { 0.5 },
            decode_mips: 0.0,
            l1i_mpi: 0.02,
            iv_mpki: 0.0,
            telemetry_events: 0,
        }
    }

    fn base(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ipsim-report-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn opts(dir: &Path) -> ReportOptions {
        ReportOptions {
            runlog: dir.join("runlog.tsv"),
            cache_dir: dir.join("cache"),
            telemetry_dir: dir.join("telemetry"),
            stable: false,
        }
    }

    #[test]
    fn report_aggregates_sources_and_schemes() {
        let dir = base("full");
        let o = opts(&dir);
        append(
            &o.runlog,
            1,
            &[record("aaaa", "1c·DB·none", RunSource::Capture, 2.0)],
        )
        .unwrap();
        append(
            &o.runlog,
            1,
            &[record("bbbb", "1c·DB·nl-tagged", RunSource::Replay, 1.5)],
        )
        .unwrap();
        append(
            &o.runlog,
            1,
            &[
                record("aaaa", "1c·DB·none", RunSource::Cache, 0.001),
                record("bbbb", "1c·DB·nl-tagged", RunSource::Cache, 0.001),
            ],
        )
        .unwrap();

        let text = render_report(&o).unwrap();
        assert!(text.contains("unique runs: 2"), "{text}");
        assert!(text.contains("hits: 2 · simulations: 2"), "{text}");
        assert!(text.contains("aggregate sim-MIPS: 30.00"), "{text}");
        // Both executed rows report sim_mips 30, which lands in the
        // [28, 31] log₂ bucket — percentiles quote its upper bound.
        assert!(
            text.contains("sim-MIPS distribution: p50 31 · p90 31 · p99 31 (over 2 executed runs)"),
            "{text}"
        );
        // No corrupt entries: the quarantine line stays silent.
        assert!(!text.contains("quarantined entries"), "{text}");
        // No cache entries on disk: metric columns degrade to dashes.
        assert!(text.contains("1c·DB·nl-tagged"), "{text}");

        // A quarantined entry left by the cache surfaces in the report.
        std::fs::create_dir_all(&o.cache_dir).unwrap();
        std::fs::write(o.cache_dir.join("aaaa.tsv.corrupt"), "junk").unwrap();
        let text = render_report(&o).unwrap();
        assert!(text.contains("quarantined entries: 1"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stable_view_is_independent_of_row_order_sources_and_batches() {
        let dir_a = base("stable-a");
        let dir_b = base("stable-b");
        let dir_c = base("stable-c");
        // Same key set; different sources, wall times, worker counts and
        // row orders — everything the execution shape changes.
        let a = opts(&dir_a);
        append(
            &a.runlog,
            4,
            &[
                record("aaaa", "1c·DB·none", RunSource::Live, 2.0),
                record("bbbb", "1c·DB·nl-tagged", RunSource::Capture, 3.0),
            ],
        )
        .unwrap();
        let b = opts(&dir_b);
        append(
            &b.runlog,
            1,
            &[record("bbbb", "1c·DB·nl-tagged", RunSource::Replay, 9.9)],
        )
        .unwrap();
        append(
            &b.runlog,
            1,
            &[record("aaaa", "1c·DB·none", RunSource::Cache, 0.1)],
        )
        .unwrap();
        // A log written before batch markers became plain comments: one
        // `# batch shard I/N` section per process of a two-process sweep.
        let c = opts(&dir_c);
        std::fs::write(
            &c.runlog,
            format!(
                "{RUNLOG_SCHEMA}\n\
                 # ts\tworkers\tsource\tok\twall_s\tsim_minstr\tmips\tsim_mips\tsim_s\t\
                 dec_mips\tl1i_mpi\tiv_mpki\ttelem\tkey\tlabel\n\
                 # batch shard 0/2\n\
                 1700000000\t1\tcapture\t1\t2.000\t30.00\t20.00\t30.00\t0.5000\t0.00\t\
                 0.02000\t0.00\t0\tbbbb\t1c·DB·nl-tagged\n\
                 # batch shard 1/2\n\
                 1700000000\t1\tlive\t1\t2.000\t30.00\t20.00\t30.00\t0.5000\t0.00\t\
                 0.02000\t0.00\t0\taaaa\t1c·DB·none\n"
            ),
        )
        .unwrap();

        let stable = |mut o: ReportOptions| {
            o.stable = true;
            // Shared (empty) metric stores so the views only differ by log.
            o.cache_dir = dir_a.join("cache");
            o.telemetry_dir = dir_a.join("telemetry");
            render_report(&o).unwrap()
        };
        let view = stable(a);
        assert!(view.contains("unique runs: 2"), "{view}");
        assert!(!view.contains("malformed"), "{view}");
        assert_eq!(view, stable(b));
        assert_eq!(view, stable(c.clone()));
        // The full view reads the old log too, and has no batch section.
        let full = render_report(&c).unwrap();
        assert!(full.contains("unique runs: 2"), "{full}");
        assert!(!full.contains("batch"), "{full}");
        for dir in [&dir_a, &dir_b, &dir_c] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn missing_or_foreign_runlog_is_a_clear_error() {
        let dir = base("errors");
        let mut o = opts(&dir);
        assert!(render_report(&o).unwrap_err().contains("cannot read"));
        std::fs::write(dir.join("other.tsv"), "# some-other-format v9\n").unwrap();
        o.runlog = dir.join("other.tsv");
        assert!(render_report(&o)
            .unwrap_err()
            .contains("unsupported runlog header"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
