//! `telemetry_check`: validates every telemetry artifact directory under a
//! root using the exporters' own parsers.
//!
//! For each run directory (identified by its `meta.tsv` completion
//! marker) the check re-reads all four artifacts with the readers that
//! ship alongside their writers:
//!
//! * `events.jsonl`  — schema/field validation, then per-core prefetch
//!   lifecycle state-machine validation;
//! * `trace.json`    — Chrome `trace_event` structural validation (the
//!   one `ipsim_obs::chrome` validator, which also checks loose span
//!   files);
//! * `series.tsv`    — interval time-series parse;
//! * `pf_summary.tsv`— per-component counter parse, cross-checked against
//!   the event counts recovered from the JSONL.
//!
//! Exit status is 0 only if every directory passes; any violation prints
//! the directory and reason and flips the exit code to 1. This is the CI
//! smoke job's teeth: `all_figures --telemetry` followed by
//! `telemetry_check` proves the artifact pipeline end to end.

use std::path::{Path, PathBuf};
use std::process::exit;

use ipsim_harness::telemetry::{
    read_artifact, read_meta, read_pf_summary, DEFAULT_TELEMETRY_DIR, META_FILE, TELEMETRY_DIR_ENV,
};
use ipsim_obs::chrome;
use ipsim_telemetry::sink::{parse_events_jsonl, parse_series_tsv};
use ipsim_telemetry::{validate_lifecycle, PfEventKind};

const USAGE: &str = "\
usage: telemetry_check [ROOT] [TRACE.json ...]

Validates every telemetry artifact directory under ROOT (default:
$IPSIM_TELEMETRY_DIR or results/telemetry). Arguments that are files
are validated as loose Chrome-trace exports instead (e.g. the
spans.trace.json the serving daemon writes on drain). Exits nonzero
if any artifact fails its format or lifecycle validation.
";

/// Parsed positional arguments: an optional artifact root plus any loose
/// Chrome-trace files. A file argument never becomes the root; when only
/// files are given the directory scan is skipped entirely.
fn targets_from_args() -> (Option<PathBuf>, Vec<PathBuf>) {
    let mut root: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other if !other.starts_with('-') => {
                let path = PathBuf::from(other);
                if path.is_file() {
                    files.push(path);
                } else if root.is_none() {
                    root = Some(path);
                } else {
                    eprintln!("more than one ROOT directory given\n\n{USAGE}");
                    exit(2);
                }
            }
            other => {
                eprintln!("unknown argument `{other}`\n\n{USAGE}");
                exit(2);
            }
        }
    }
    if root.is_none() && files.is_empty() {
        root = Some(
            std::env::var(TELEMETRY_DIR_ENV)
                .map(PathBuf::from)
                .unwrap_or_else(|_| PathBuf::from(DEFAULT_TELEMETRY_DIR)),
        );
    }
    (root, files)
}

/// Validates one loose Chrome-trace file with the shared validator.
fn check_trace_file(path: &Path) -> Result<String, String> {
    let events = read_artifact(path, chrome::validate)?;
    Ok(format!("{} trace events", events.len()))
}

/// Validates one artifact directory; returns a one-line pass description.
fn check_dir(dir: &Path) -> Result<String, String> {
    let meta = read_meta(dir).ok_or_else(|| format!("{META_FILE}: missing or malformed"))?;
    let meta_get = |key: &str| -> Option<&str> {
        meta.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    };

    // events.jsonl: format, then the lifecycle state machine per core.
    let events = read_artifact(&dir.join("events.jsonl"), parse_events_jsonl)?;
    let mut issued = 0u64;
    for (core, core_events) in events.per_core.iter().enumerate() {
        let summary = validate_lifecycle(core_events)
            .map_err(|v| format!("events.jsonl: core {core}: lifecycle violation: {v}"))?;
        issued += summary.issues;
    }
    if let Some(want) = meta_get("events").and_then(|v| v.parse::<usize>().ok()) {
        if want != events.total_events() {
            return Err(format!(
                "events.jsonl: {} events, {META_FILE} recorded {want}",
                events.total_events()
            ));
        }
    }

    // trace.json: the Chrome exporter's structural validator.
    let trace_events = read_artifact(&dir.join("trace.json"), chrome::validate)?.len();

    // series.tsv: interval time series.
    let samples = read_artifact(&dir.join("series.tsv"), parse_series_tsv)?;

    // pf_summary.tsv: per-component counters, cross-checked against the
    // issue count recovered from the event stream. The summary counts
    // every event the tracer saw; the JSONL stream loses events only to
    // per-core buffer overflow, so with nothing dropped the counts agree
    // exactly and with drops the summary can only be larger.
    let components = read_pf_summary(dir)?;
    let summary_issued: u64 = components
        .iter()
        .map(|(_, c)| c.get(PfEventKind::Issued))
        .sum();
    let dropped: u64 = events.dropped.iter().sum();
    if dropped == 0 && summary_issued != issued {
        return Err(format!(
            "pf_summary.tsv: {summary_issued} issues, events.jsonl has {issued} \
             (nothing dropped)"
        ));
    }
    if summary_issued < issued {
        return Err(format!(
            "pf_summary.tsv: {summary_issued} issues, fewer than the {issued} \
             in events.jsonl"
        ));
    }

    Ok(format!(
        "{} events ({dropped} dropped) · {trace_events} trace events · {} samples · {} components{}",
        events.total_events(),
        samples.len(),
        components.len(),
        meta_get("label")
            .map(|l| format!(" · {l}"))
            .unwrap_or_default(),
    ))
}

fn main() {
    let (root, files) = targets_from_args();
    let mut failed = 0usize;
    let mut checked = 0usize;

    for file in &files {
        checked += 1;
        let name = file.display();
        match check_trace_file(file) {
            Ok(detail) => println!("ok   {name}  {detail}"),
            Err(reason) => {
                println!("FAIL {name}  {reason}");
                failed += 1;
            }
        }
    }

    if let Some(root) = root {
        let entries = match std::fs::read_dir(&root) {
            Ok(entries) => entries,
            Err(e) => {
                eprintln!("telemetry_check: cannot read {}: {e}", root.display());
                exit(1);
            }
        };
        let mut dirs: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.join(META_FILE).is_file())
            .collect();
        dirs.sort();

        if dirs.is_empty() {
            eprintln!(
                "telemetry_check: no artifact directories under {} \
                 (run a sweep with --telemetry first)",
                root.display()
            );
            exit(1);
        }

        for dir in &dirs {
            checked += 1;
            let name = dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| dir.display().to_string());
            match check_dir(dir) {
                Ok(detail) => println!("ok   {name}  {detail}"),
                Err(reason) => {
                    println!("FAIL {name}  {reason}");
                    failed += 1;
                }
            }
        }
    }

    println!(
        "{checked} artifact{} checked, {failed} failed",
        if checked == 1 { "" } else { "s" },
    );
    if failed > 0 {
        exit(1);
    }
}
