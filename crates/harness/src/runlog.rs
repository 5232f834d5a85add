//! Run-level observability: per-run records and the persistent
//! `results/runlog.tsv` appended by every harness invocation.
//!
//! The run log makes simulator performance a first-class, tracked output:
//! each executed configuration contributes one row with its wall time and
//! simulated-MIPS throughput, so a PR that slows the simulator down shows
//! up as a drop in MIPS between log sections rather than as a vague "the
//! sweep felt slower".
//!
//! Schema v2 added stream provenance: a `source` column saying where the
//! run's instruction stream came from (`cache` | `live` | `capture` |
//! `replay`) and a `dec_mips` column with the pure trace-decode throughput
//! of replay runs — together they make the capture-once/replay-many
//! speedup measurable straight from the log.
//!
//! Schema v3 adds `sim_mips`: kernel-only throughput over the timed
//! measure window, excluding system construction, warm-up, trace
//! validation and capture I/O. `mips` (whole-run wall time) answers "how
//! fast is a sweep"; `sim_mips` answers "how fast is the simulation
//! kernel" — the number the bench snapshot tracks, now visible per run.
//!
//! Schema v4 adds the telemetry columns: `l1i_mpi` (the run's headline
//! L1I misses per instruction, so miss-rate anomalies are greppable from
//! the log without opening result files), `iv_mpki` (the *last interval's*
//! L1I misses per 1 000 instructions when telemetry sampled the run — a
//! quick end-of-window vs whole-window comparison), and `telem` (lifecycle
//! events written to the run's artifact; 0 when telemetry was off).
//! A log with an older header found on disk is rotated to
//! `<path>.v<N>.bak` (its own version) rather than mixed or clobbered.
//!
//! Schema v5 adds `sim_s`: wall seconds inside the timed measure window —
//! the denominator of `sim_mips`. With it, sweep-level aggregate kernel
//! throughput is computable from the log (Σ(sim_mips·sim_s) / Σ sim_s), so
//! per-run rates can be weighted by how long each run actually simulated
//! instead of averaged naively.

use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::traces::RunSource;

/// First line of a fresh run log.
pub const RUNLOG_SCHEMA: &str = "# ipsim-runlog v5";

/// Default run-log path, relative to the working directory.
pub const DEFAULT_RUNLOG: &str = "results/runlog.tsv";

/// Environment variable overriding the run-log path.
pub const RUNLOG_ENV: &str = "IPSIM_RUNLOG";

/// The run-log path from `$IPSIM_RUNLOG`, or the default if unset.
pub fn runlog_path_from_env() -> PathBuf {
    match std::env::var_os(RUNLOG_ENV) {
        Some(p) if !p.is_empty() => PathBuf::from(p),
        _ => PathBuf::from(DEFAULT_RUNLOG),
    }
}

/// What happened to one scheduled run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Stable cache key of the spec.
    pub key: String,
    /// Human-readable spec tag.
    pub label: String,
    /// Where the result (and instruction stream) came from.
    pub source: RunSource,
    /// Whether the run produced a summary (false = simulation panicked).
    pub ok: bool,
    /// Wall-clock seconds spent on this run (lookup or simulation).
    pub wall_s: f64,
    /// Instructions simulated (warm + measured, all cores); 0 if cached.
    pub sim_instructions: u64,
    /// Simulated millions of instructions per wall second; 0 if cached.
    pub mips: f64,
    /// Kernel-only throughput (million instructions per host second over
    /// the timed measure window, overhead around the simulation loop
    /// excluded); 0 if cached.
    pub sim_mips: f64,
    /// Wall seconds inside the timed measure window (the denominator of
    /// `sim_mips`); 0 if cached.
    pub sim_s: f64,
    /// Trace-decode throughput (million ops/s) measured while validating
    /// this run's stored streams; 0 unless the run replayed.
    pub decode_mips: f64,
    /// L1I misses per instruction from the run's summary (cache hits
    /// report it too — the summary is what the cache stores).
    pub l1i_mpi: f64,
    /// The final sampling interval's L1I misses per 1 000 instructions;
    /// 0 when telemetry was off or fewer than two samples landed.
    pub iv_mpki: f64,
    /// Lifecycle events written to this run's telemetry artifact; 0 when
    /// telemetry was off.
    pub telemetry_events: u64,
}

impl RunRecord {
    /// Whether the result came from the on-disk run cache.
    pub fn cached(&self) -> bool {
        self.source == RunSource::Cache
    }
}

/// Appends `records` to the run log at `path`, creating it (with a schema
/// header) if missing. A log whose first line is an older schema is
/// rotated aside first, so every surviving log file is internally
/// consistent. One call appends one batch atomically enough for a log: a
/// single buffered write.
pub fn append(path: &Path, workers: usize, records: &[RunRecord]) -> io::Result<()> {
    if records.is_empty() {
        return Ok(());
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    rotate_old_schema(path);
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    let mut out = String::new();
    if file.metadata()?.len() == 0 {
        out.push_str(RUNLOG_SCHEMA);
        out.push('\n');
        out.push_str(
            "# ts\tworkers\tsource\tok\twall_s\tsim_minstr\tmips\tsim_mips\tsim_s\tdec_mips\t\
             l1i_mpi\tiv_mpki\ttelem\tkey\tlabel\n",
        );
    }
    let ts = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    for r in records {
        out.push_str(&format!(
            "{ts}\t{workers}\t{}\t{}\t{:.3}\t{:.2}\t{:.2}\t{:.2}\t{:.4}\t{:.2}\t{:.5}\t{:.2}\t{}\t{}\t{}\n",
            r.source.as_str(),
            u8::from(r.ok),
            r.wall_s,
            r.sim_instructions as f64 / 1e6,
            r.mips,
            r.sim_mips,
            r.sim_s,
            r.decode_mips,
            r.l1i_mpi,
            r.iv_mpki,
            r.telemetry_events,
            r.key,
            r.label,
        ));
    }
    file.write_all(out.as_bytes())
}

/// One parsed runlog row: the columns a report reads back.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRow {
    /// Where the result came from ([`RunSource::as_str`]).
    pub source: String,
    /// Whether the run produced a summary.
    pub ok: bool,
    /// Wall-clock seconds spent on the run.
    pub wall_s: f64,
    /// Millions of instructions simulated; 0 if cached.
    pub sim_minstr: f64,
    /// Kernel-only throughput; 0 if cached.
    pub sim_mips: f64,
    /// Wall seconds inside the timed measure window; 0 if cached.
    pub sim_s: f64,
    /// Stable cache key of the spec.
    pub key: String,
    /// Human-readable spec tag.
    pub label: String,
}

/// Parses a run log written by [`append`]. Comment lines are skipped,
/// including the `# batch …` markers older logs carry. Malformed rows are
/// counted, not fatal: a report over a damaged log should describe what
/// is readable and say what was not.
///
/// # Errors
///
/// An empty log, or one whose header is not [`RUNLOG_SCHEMA`].
pub fn parse(text: &str) -> Result<(Vec<LogRow>, usize), String> {
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
        // The columns of `append`'s header, by position.
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

/// Moves a log whose header is not the current schema to `<path>.v<N>.bak`
/// — the suffix names the *old* log's version, parsed from its header, so
/// successive schema bumps never clobber each other's backups. A header
/// that is not an `# ipsim-runlog vN` line at all falls back to `.v1.bak`
/// (the v1 header predates the version line). Best effort; an unreadable
/// file is left for `append` to surface.
fn rotate_old_schema(path: &Path) {
    let Ok(text) = std::fs::read_to_string(path) else {
        return;
    };
    let first = text.lines().next().unwrap_or("");
    if first == RUNLOG_SCHEMA || text.is_empty() {
        return;
    }
    let old_version = first
        .strip_prefix("# ipsim-runlog v")
        .and_then(|v| v.trim().parse::<u32>().ok())
        .unwrap_or(1);
    let mut backup = path.as_os_str().to_owned();
    backup.push(format!(".v{old_version}.bak"));
    let _ = std::fs::rename(path, PathBuf::from(backup));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(source: RunSource) -> RunRecord {
        RunRecord {
            key: "deadbeefdeadbeef".into(),
            label: "1c·DB·none".into(),
            source,
            ok: true,
            wall_s: 1.25,
            sim_instructions: 30_000_000,
            mips: 24.0,
            sim_mips: 31.5,
            sim_s: 0.635,
            decode_mips: 0.0,
            l1i_mpi: 0.0221,
            iv_mpki: 18.5,
            telemetry_events: 1_234,
        }
    }

    #[test]
    fn appends_header_once_and_rows_every_time() {
        let path =
            std::env::temp_dir().join(format!("ipsim-runlog-test-{}.tsv", std::process::id()));
        let _ = std::fs::remove_file(&path);
        append(&path, 4, &[record(RunSource::Live)]).unwrap();
        append(&path, 1, &[record(RunSource::Replay)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], RUNLOG_SCHEMA);
        assert!(lines[1].starts_with("# ts\t"));
        assert_eq!(lines.len(), 4, "schema + columns + two rows");
        assert!(lines[2].contains("\tdeadbeefdeadbeef\t"));
        assert!(lines[2].contains("\tlive\t"));
        assert!(lines[3].contains("\treplay\t"));
        assert_eq!(lines[2].split('\t').count(), 15);
        assert!(lines[2].contains("\t31.50\t"), "sim_mips column present");
        assert!(lines[2].contains("\t0.6350\t"), "sim_s column present");
        assert!(lines[2].contains("\t0.02210\t"), "l1i_mpi column present");
        assert!(lines[2].contains("\t18.50\t"), "iv_mpki column present");
        assert!(lines[2].contains("\t1234\t"), "telem column present");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parse_reads_back_every_appended_field() {
        let path =
            std::env::temp_dir().join(format!("ipsim-runlog-parse-{}.tsv", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut failed = record(RunSource::Replay);
        failed.ok = false;
        failed.key = "0123456789abcdef".into();
        failed.label = "4c·Mixed·discont·bypass".into();
        append(&path, 2, &[record(RunSource::Live), failed]).unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("# batch marker\nnot\ta\trow\n\n");
        let (rows, malformed) = parse(&text).unwrap();
        assert_eq!(malformed, 1, "the short row is counted, comments are not");
        let want = |source: &str, ok, key: &str, label: &str| LogRow {
            source: source.into(),
            ok,
            wall_s: 1.25,
            sim_minstr: 30.0,
            sim_mips: 31.5,
            sim_s: 0.635,
            key: key.into(),
            label: label.into(),
        };
        assert_eq!(
            rows,
            [
                want("live", true, "deadbeefdeadbeef", "1c·DB·none"),
                want(
                    "replay",
                    false,
                    "0123456789abcdef",
                    "4c·Mixed·discont·bypass"
                ),
            ]
        );

        // A log of another schema, or no log at all, is refused.
        let foreign = text.replacen(RUNLOG_SCHEMA, "# ipsim-runlog v4", 1);
        let err = parse(&foreign).unwrap_err();
        assert!(err.contains("unsupported runlog header"), "{err}");
        assert!(parse("").is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_batches_do_not_create_files() {
        let path =
            std::env::temp_dir().join(format!("ipsim-runlog-empty-{}.tsv", std::process::id()));
        let _ = std::fs::remove_file(&path);
        append(&path, 1, &[]).unwrap();
        assert!(!path.exists());
    }

    fn bak(path: &Path, suffix: &str) -> PathBuf {
        let mut s = path.as_os_str().to_owned();
        s.push(suffix);
        PathBuf::from(s)
    }

    #[test]
    fn old_schema_logs_are_rotated_not_mixed() {
        let path =
            std::env::temp_dir().join(format!("ipsim-runlog-rotate-{}.tsv", std::process::id()));
        let backup = bak(&path, ".v2.bak");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&backup);
        std::fs::write(&path, "# ipsim-runlog v2\n# ts\t...\n1\t2\n").unwrap();
        append(&path, 2, &[record(RunSource::Capture)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(RUNLOG_SCHEMA));
        assert!(text.contains("\tcapture\t"));
        let old = std::fs::read_to_string(&backup).unwrap();
        assert!(old.starts_with("# ipsim-runlog v2"));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&backup);
    }

    #[test]
    fn rotation_suffix_tracks_the_old_logs_version() {
        let path =
            std::env::temp_dir().join(format!("ipsim-runlog-rotate-v1-{}.tsv", std::process::id()));
        let v1_backup = bak(&path, ".v1.bak");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&v1_backup);
        // A v1 log, and an unversioned header (pre-dates the version line):
        // both land in .v1.bak.
        std::fs::write(&path, "# ipsim-runlog v1\nrow\n").unwrap();
        append(&path, 1, &[record(RunSource::Live)]).unwrap();
        assert!(std::fs::read_to_string(&v1_backup)
            .unwrap()
            .starts_with("# ipsim-runlog v1"));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&v1_backup);

        std::fs::write(&path, "wall_s\tmips\n1.0\t2.0\n").unwrap();
        append(&path, 1, &[record(RunSource::Live)]).unwrap();
        assert!(std::fs::read_to_string(&v1_backup)
            .unwrap()
            .starts_with("wall_s"));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&v1_backup);
    }
}
