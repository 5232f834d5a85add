//! Host-cost benchmark for the ipsim simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload repeatedly for `--seconds`, one simulation thread
//! and at most one pool worker, checks every simulated result, and
//! prints one JSON object as the last line of stdout: with `--trace 0`
//! the end-to-end metrics (medians over the iterations), with `--trace 1`
//! the per-layer metrics of a separate traced run. See `README.md`.

mod common;
mod figsweep;
mod layers;
mod live;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;

use common::{median, peak_rss_mb, Digests};
use ipsim_harness::{Summary, SweepReport};
use live::Live;

const USAGE: &str =
    "usage: perfbench --workload <figsweep_replay|disc_cmp4_live|zoo_bakeoff_telemetry> \
--seed <n> --seconds <s> --trace <0|1> [--emit-digests]";

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FigsweepReplay,
    DiscCmp4Live,
    ZooBakeoffTelemetry,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "figsweep_replay" => Some(Workload::FigsweepReplay),
            "disc_cmp4_live" => Some(Workload::DiscCmp4Live),
            "zoo_bakeoff_telemetry" => Some(Workload::ZooBakeoffTelemetry),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::FigsweepReplay => "figsweep_replay",
            Workload::DiscCmp4Live => "disc_cmp4_live",
            Workload::ZooBakeoffTelemetry => "zoo_bakeoff_telemetry",
        }
    }

    /// Warm-up and measured instructions per core of each run.
    pub fn lengths(self) -> (u64, u64) {
        match self {
            Workload::FigsweepReplay => (figsweep::LENGTHS.warm, figsweep::LENGTHS.measure),
            Workload::DiscCmp4Live => Live::Disc.lengths(),
            Workload::ZooBakeoffTelemetry => Live::Zoo.lengths(),
        }
    }
}

/// One simulation run's check: whether its outputs were right, the
/// digest of its simulated statistics, and any large artifact checked
/// once per process.
pub struct Check {
    pub run: String,
    pub ok: bool,
    pub digest: u64,
    pub artifact: Option<Artifact>,
}

/// A serialised artifact too large to validate on every iteration (the
/// zoo's Chrome trace): one untimed iteration after the timed ones
/// validates it, and every timed one must have produced the same bytes.
pub struct Artifact {
    pub hash: u64,
    /// `Some(result)` when this iteration ran the validator.
    pub valid: Option<bool>,
}

/// One iteration of a workload: set-up, then the timed phase.
pub struct Iteration {
    pub setup_s: f64,
    pub wall_s: f64,
    /// Instructions in the measured windows, across cores and runs.
    pub instructions: u64,
    pub checks: Vec<Check>,
    pub detail: Detail,
}

/// What an iteration keeps besides its timings and checks.
pub enum Detail {
    Sweep {
        report: SweepReport,
        /// Each unique run's summary, by cache key.
        runs: BTreeMap<String, Summary>,
    },
    Live(Vec<live::Column>),
}

/// Opens a span on the process-global recorder (inert while
/// instrumentation is off).
pub fn span(name: &str) -> ipsim_obs::SpanGuard<'static> {
    ipsim_obs::spans().span(name)
}

/// Runs one iteration. `dir` is the working directory a sweep may use;
/// it is removed again before this returns. With `validate`, large
/// artifacts go through their validator (see [`validate_artifacts`]).
pub fn iterate(workload: Workload, seed: u64, dir: &Path, validate: bool) -> Iteration {
    match workload {
        Workload::FigsweepReplay => figsweep::iterate(seed, dir),
        Workload::DiscCmp4Live => live::iterate(Live::Disc, seed, validate),
        Workload::ZooBakeoffTelemetry => live::iterate(Live::Zoo, seed, validate),
    }
}

/// Runs one more, untimed iteration that validates the workload's large
/// artifacts, after every timed one, so the validator's cost and memory
/// stay out of the timings. Only the zoo has such artifacts.
fn validate_artifacts(workload: Workload, seed: u64, dir: &Path, tally: &mut Tally) {
    if workload == Workload::ZooBakeoffTelemetry {
        tally.add(iterate(workload, seed, dir, true));
    }
}

/// Every run's check, settled into attempted and failed counts once the
/// artifact validations are in.
pub struct Tally {
    workload: Workload,
    seed: u64,
    checks: Vec<Check>,
    probes: Vec<Check>,
}

impl Tally {
    pub fn new(workload: Workload, seed: u64) -> Tally {
        Tally {
            workload,
            seed,
            checks: Vec::new(),
            probes: Vec::new(),
        }
    }

    pub fn add(&mut self, it: Iteration) {
        self.checks.extend(it.checks);
    }

    /// Adds a check that is not a simulation run of the workload (the
    /// traced run's probe and span trace); it carries no digest.
    pub fn add_probe(&mut self, check: Check) {
        self.probes.push(check);
    }

    /// `(attempted, failed)`. A run fails its own check, a recorded
    /// digest for this seed that differs, or an artifact that was
    /// invalid or matches no validated one.
    pub fn settle(&self, digests: &Digests) -> (u64, u64) {
        let name = self.workload.name();
        let checked = digests.covers(self.seed, name);
        let validated: BTreeMap<&str, u64> = self
            .checks
            .iter()
            .filter_map(|c| match &c.artifact {
                Some(Artifact {
                    hash,
                    valid: Some(true),
                }) => Some((c.run.as_str(), *hash)),
                _ => None,
            })
            .collect();
        let mut failed = 0;
        for c in &self.checks {
            let digest_ok = !checked || digests.matches(self.seed, name, &c.run, c.digest);
            let artifact_ok = c.artifact.as_ref().is_none_or(|a| match a.valid {
                Some(valid) => valid,
                None => validated.get(c.run.as_str()) == Some(&a.hash),
            });
            if !(c.ok && digest_ok && artifact_ok) {
                failed += 1;
                eprintln!("perfbench: run {} failed its output check", c.run);
            }
        }
        for p in self.probes.iter().filter(|p| !p.ok) {
            failed += 1;
            eprintln!("perfbench: {} failed its check", p.run);
        }
        ((self.checks.len() + self.probes.len()) as u64, failed)
    }
}

/// A metric value and its unit.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    emit_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut emit_digests = false;
    while let Some(flag) = args.next() {
        if flag == "--emit-digests" {
            emit_digests = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0);
                seconds = Some(s.ok_or_else(bad)?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        emit_digests,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        exit(2);
    });
    // Instrumentation defaults to on; timed runs measure with it off.
    ipsim_obs::set_enabled(false);
    let work_root = PathBuf::from(".perfbench_work");
    let dir = work_root.join(std::process::id().to_string());
    let digests = Digests::recorded();

    if args.emit_digests {
        let it = iterate(args.workload, args.seed, &dir, false);
        for c in &it.checks {
            println!(
                "{}\t{}\t{}\t{:016x}",
                args.seed,
                args.workload.name(),
                c.run,
                c.digest
            );
        }
        let _ = std::fs::remove_dir(&work_root);
        return;
    }

    let mut tally = Tally::new(args.workload, args.seed);
    let metrics = if args.trace {
        layers::traced(args.workload, args.seed, args.seconds, &dir, &mut tally)
    } else {
        timed(args.workload, args.seed, args.seconds, &dir, &mut tally)
    };
    validate_artifacts(args.workload, args.seed, &dir, &mut tally);
    let _ = std::fs::remove_dir(&work_root);
    let (attempted, failed) = tally.settle(&digests);
    println!("{}", result_json(attempted, failed, &metrics));
}

/// Iterates untraced for `seconds` (at least twice) and reports the
/// end-to-end metrics as medians over the iterations.
fn timed(workload: Workload, seed: u64, seconds: f64, dir: &Path, tally: &mut Tally) -> Metrics {
    let start = Instant::now();
    let (mut walls, mut setups, mut mips) = (Vec::new(), Vec::new(), Vec::new());
    let mut peak_rss = 0.0;
    while walls.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let it = iterate(workload, seed, dir, false);
        if walls.is_empty() {
            peak_rss = peak_rss_mb();
        }
        walls.push(it.wall_s);
        setups.push(it.setup_s);
        mips.push(it.instructions as f64 / 1e6 / it.wall_s);
        tally.add(it);
    }
    eprintln!("perfbench: {} iterations; wall_s {:?}", walls.len(), walls);
    let mut m = Metrics::new();
    m.insert("wall_s", (median(&walls), "s"));
    m.insert("sim_mips", (median(&mips), "MIPS"));
    m.insert("setup_s", (median(&setups), "s"));
    m.insert("peak_rss_mb", (peak_rss, "MB"));
    m
}

fn result_json(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            // JSON has no NaN or infinity; a non-finite value reads as 0.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
        })
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        failed == 0 && attempted > 0,
        attempted,
        failed,
        body.join(", ")
    )
}
