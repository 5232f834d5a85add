//! A serde-free, versioned wire encoding for experiment specs.
//!
//! [`RunSpec`] is a rich in-process type (it owns a full `SystemConfig`);
//! the serving path needs something a *client* can author: a small,
//! stable, human-writable description of a run or sweep. [`WireRun`] is
//! that description — a config preset plus the knobs the paper's design
//! space actually sweeps (workload, prefetcher, install policy, limit
//! spec, run windows) — and [`JobSpec`] is a batch of them.
//!
//! Two encodings share one schema version (`ipsim-jobspec v2`):
//!
//! * **JSON** (the HTTP wire format), read back with the hand-rolled
//!   parser from `ipsim-telemetry` — no serde, per the workspace's
//!   vendored-only dependency policy:
//!
//! ```json
//! {"v":2,"runs":[{"config":"cmp4","workload":"mixed",
//!                 "prefetcher":"disc:8192:4","policy":"bypass",
//!                 "warm":2000000,"measure":4000000}]}
//! ```
//!
//! * **TSV** (one run per line, shell-friendly, submitted with
//!   `Content-Type: text/tab-separated-values`):
//!
//! ```text
//! # ipsim-jobspec-tsv v1
//! cmp4<TAB>mixed<TAB>disc:8192:4<TAB>bypass<TAB>-<TAB>2000000<TAB>4000000
//! ```
//!
//! The prefetcher column is a compact text form shared by both encodings
//! (see [`prefetcher_to_wire`]); `limit` is `-` or any `+`-joined subset
//! of `seq`, `br`, `call`. Every decoder is strict: unknown fields,
//! unknown presets and non-integral numbers are errors, not guesses —
//! a daemon must reject malformed jobs at submit time, not discover them
//! mid-queue.
//!
//! **v2** extends v1 in two backward-compatible ways. The JSON
//! `prefetcher` field became *optional* (absent means `none`), and both
//! encodings accept a `zoo:` prefetcher form carrying a registry plan —
//! `zoo:nl+disc:ahead=2` runs the zoo of those schemes with shadow
//! attribution (see `ipsim-prefetch`). Every v1 payload decodes
//! unchanged; a v1-versioned JSON payload that smuggles a `zoo:` form is
//! rejected, since a v1 producer could never have written one.

use ipsim_cache::InstallPolicy;
use ipsim_core::PrefetcherKind;
use ipsim_cpu::{LimitSpec, WorkloadSet};
use ipsim_prefetch::{find_scheme, ZooPlan};
use ipsim_telemetry::json::{self, Json};
use ipsim_trace::Workload;
use ipsim_types::SystemConfig;

use crate::spec::RunSpec;
use crate::RunLengths;

/// Wire-schema version written by every JSON encoder.
pub const WIRE_VERSION: u32 = 2;

/// Oldest wire-schema version decoders still accept.
pub const MIN_WIRE_VERSION: u32 = 1;

/// Header line of the TSV encoding.
pub const TSV_HEADER: &str = "# ipsim-jobspec-tsv v2";

/// The v1 TSV header, still accepted on decode.
pub const TSV_HEADER_V1: &str = "# ipsim-jobspec-tsv v1";

/// Maximum runs accepted in one job spec (a submit-time sanity bound; a
/// bigger sweep is many jobs).
pub const MAX_RUNS_PER_JOB: usize = 256;

/// The system-config presets a wire spec can name.
///
/// `cmpN` (N = 2..=16) builds the paper's CMP memory system with N cores;
/// `cmp4` is the paper's default and `single_core` the uniprocessor
/// baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigPreset {
    /// Core count; 1 selects the single-core memory system.
    pub n_cores: u32,
}

impl ConfigPreset {
    /// Parses `single_core` | `cmp4` | `cmpN`.
    pub fn parse(name: &str) -> Result<ConfigPreset, String> {
        match name {
            "single_core" => Ok(ConfigPreset { n_cores: 1 }),
            _ => {
                let n = name
                    .strip_prefix("cmp")
                    .and_then(|n| n.parse::<u32>().ok())
                    .filter(|n| (2..=16).contains(n))
                    .ok_or_else(|| {
                        format!("unknown config preset `{name}` (expected single_core|cmp2..cmp16)")
                    })?;
                Ok(ConfigPreset { n_cores: n })
            }
        }
    }

    /// The canonical wire name.
    pub fn name(&self) -> String {
        if self.n_cores == 1 {
            "single_core".to_string()
        } else {
            format!("cmp{}", self.n_cores)
        }
    }

    /// Builds the concrete system configuration.
    pub fn to_config(self) -> SystemConfig {
        if self.n_cores == 1 {
            SystemConfig::single_core()
        } else {
            let mut config = SystemConfig::cmp4();
            config.n_cores = self.n_cores;
            config
        }
    }

    /// Recognises a `SystemConfig` produced by [`ConfigPreset::to_config`]
    /// (the encode direction). `None` for configs that did not come from a
    /// preset — those are not wire-expressible.
    pub fn from_config(config: &SystemConfig) -> Option<ConfigPreset> {
        let preset = ConfigPreset {
            n_cores: config.n_cores,
        };
        if &preset.to_config() == config {
            Some(preset)
        } else {
            None
        }
    }
}

/// One wire-expressible run: a config preset plus the swept knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRun {
    /// System preset.
    pub config: ConfigPreset,
    /// Workload name (`db`|`tpcw`|`japp`|`web`|`mixed`).
    pub workload: String,
    /// Per-core prefetcher (ignored when `zoo` is set).
    pub prefetcher: PrefetcherKind,
    /// Optional prefetcher-zoo plan (the `zoo:` wire form, v2+).
    pub zoo: Option<ZooPlan>,
    /// L2 install policy.
    pub policy: InstallPolicy,
    /// Optional limit-study spec.
    pub limit: Option<LimitSpec>,
    /// Warm-up instructions per core.
    pub warm: u64,
    /// Measured instructions per core.
    pub measure: u64,
}

impl WireRun {
    /// Lowers to the executable in-process spec.
    pub fn to_run_spec(&self) -> Result<RunSpec, String> {
        let workloads = parse_workload_set(&self.workload)?;
        let lengths = RunLengths {
            warm: self.warm,
            measure: self.measure,
        };
        let mut spec = RunSpec::new(self.config.to_config(), workloads, lengths)
            .prefetcher(self.prefetcher)
            .policy(self.policy);
        if let Some(plan) = &self.zoo {
            spec = spec.zoo(plan.clone());
        }
        if let Some(limit) = self.limit {
            spec = spec.limit(limit);
        }
        Ok(spec)
    }

    /// Lifts an in-process spec back onto the wire. `None` when the spec
    /// uses a non-preset config or non-default workload seeds (such specs
    /// exist only inside the process and cannot be re-submitted).
    pub fn from_run_spec(spec: &RunSpec) -> Option<WireRun> {
        let config = ConfigPreset::from_config(&spec.config)?;
        let default = WorkloadSet::homogeneous(Workload::Db);
        if spec.workloads.program_seed != default.program_seed
            || spec.workloads.walker_seed != default.walker_seed
        {
            return None;
        }
        let workload = if spec.workloads.per_core.len() == 1 {
            workload_wire_name(spec.workloads.per_core[0]).to_string()
        } else if spec.workloads == WorkloadSet::mixed() {
            "mixed".to_string()
        } else {
            return None;
        };
        Some(WireRun {
            config,
            workload,
            prefetcher: spec.prefetcher,
            zoo: spec.zoo.clone(),
            policy: spec.policy,
            limit: spec.limit,
            warm: spec.lengths.warm,
            measure: spec.lengths.measure,
        })
    }

    /// The prefetcher column value: the zoo form when a plan is set,
    /// else the compact [`prefetcher_to_wire`] form.
    fn prefetcher_column(&self) -> String {
        match &self.zoo {
            Some(plan) => format!("zoo:{}", plan.canonical()),
            None => prefetcher_to_wire(self.prefetcher),
        }
    }

    /// One JSON object (no surrounding whitespace).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"config\":\"{}\",\"workload\":\"{}\",\"prefetcher\":\"{}\",\"policy\":\"{}\"",
            self.config.name(),
            self.workload,
            self.prefetcher_column(),
            policy_to_wire(self.policy),
        );
        if let Some(limit) = self.limit {
            out.push_str(&format!(",\"limit\":\"{}\"", limit_to_wire(limit)));
        }
        out.push_str(&format!(
            ",\"warm\":{},\"measure\":{}}}",
            self.warm, self.measure
        ));
        out
    }

    /// One TSV line (no trailing newline).
    pub fn to_tsv(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.config.name(),
            self.workload,
            self.prefetcher_column(),
            policy_to_wire(self.policy),
            self.limit.map_or_else(|| "-".to_string(), limit_to_wire),
            self.warm,
            self.measure,
        )
    }

    /// Parses one TSV line.
    pub fn from_tsv(line: &str) -> Result<WireRun, String> {
        let parts: Vec<&str> = line.trim_end().split('\t').collect();
        if parts.len() != 7 {
            return Err(format!(
                "expected 7 tab-separated fields (config workload prefetcher policy limit warm measure), got {}",
                parts.len()
            ));
        }
        let (prefetcher, zoo) = prefetcher_column_from_wire(parts[2])?;
        Ok(WireRun {
            config: ConfigPreset::parse(parts[0])?,
            workload: parse_workload_name(parts[1])?,
            prefetcher,
            zoo,
            policy: policy_from_wire(parts[3])?,
            limit: limit_from_wire(parts[4])?,
            warm: parse_window(parts[5], "warm")?,
            measure: parse_window(parts[6], "measure")?,
        })
    }

    /// Parses one JSON object (already parsed into a [`Json`] value).
    pub fn from_json_value(value: &Json) -> Result<WireRun, String> {
        let Json::Obj(fields) = value else {
            return Err("each run must be a JSON object".to_string());
        };
        for (key, _) in fields {
            if !matches!(
                key.as_str(),
                "config" | "workload" | "prefetcher" | "policy" | "limit" | "warm" | "measure"
            ) {
                return Err(format!("unknown run field `{key}`"));
            }
        }
        let str_field = |name: &str| -> Result<&str, String> {
            value
                .get(name)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("run field `{name}` must be a string"))
        };
        let int_field = |name: &str| -> Result<u64, String> {
            let n = value
                .get(name)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("run field `{name}` must be a number"))?;
            if n.fract() != 0.0 || !(0.0..=9e15).contains(&n) {
                return Err(format!("run field `{name}` must be a non-negative integer"));
            }
            Ok(n as u64)
        };
        let limit = match value.get("limit") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => limit_from_wire(s)?,
            Some(_) => return Err("run field `limit` must be a string".to_string()),
        };
        // v2: `prefetcher` is optional; absent means no prefetcher.
        let (prefetcher, zoo) = match value.get("prefetcher") {
            None | Some(Json::Null) => (PrefetcherKind::None, None),
            Some(Json::Str(s)) => prefetcher_column_from_wire(s)?,
            Some(_) => return Err("run field `prefetcher` must be a string".to_string()),
        };
        Ok(WireRun {
            config: ConfigPreset::parse(str_field("config")?)?,
            workload: parse_workload_name(str_field("workload")?)?,
            prefetcher,
            zoo,
            policy: policy_from_wire(str_field("policy")?)?,
            limit,
            warm: int_field("warm")?,
            measure: int_field("measure")?,
        })
    }
}

/// A batch of wire runs: the unit of submission (`POST /v1/jobs`).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The runs, in submission order.
    pub runs: Vec<WireRun>,
}

impl JobSpec {
    /// Wraps runs, enforcing the per-job bounds.
    pub fn new(runs: Vec<WireRun>) -> Result<JobSpec, String> {
        if runs.is_empty() {
            return Err("a job needs at least one run".to_string());
        }
        if runs.len() > MAX_RUNS_PER_JOB {
            return Err(format!(
                "a job is limited to {MAX_RUNS_PER_JOB} runs, got {}",
                runs.len()
            ));
        }
        Ok(JobSpec { runs })
    }

    /// The canonical JSON document.
    pub fn to_json(&self) -> String {
        let runs: Vec<String> = self.runs.iter().map(WireRun::to_json).collect();
        format!("{{\"v\":{WIRE_VERSION},\"runs\":[{}]}}", runs.join(","))
    }

    /// The TSV document (header + one line per run).
    pub fn to_tsv(&self) -> String {
        let mut out = String::from(TSV_HEADER);
        out.push('\n');
        for run in &self.runs {
            out.push_str(&run.to_tsv());
            out.push('\n');
        }
        out
    }

    /// Parses a JSON document.
    pub fn from_json(text: &str) -> Result<JobSpec, String> {
        let value = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        JobSpec::from_json_value(&value)
    }

    /// Parses an already-parsed JSON value (used when the spec is nested
    /// inside another document, e.g. a journal record).
    pub fn from_json_value(value: &Json) -> Result<JobSpec, String> {
        let Json::Obj(fields) = value else {
            return Err("job spec must be a JSON object".to_string());
        };
        for (key, _) in fields {
            if !matches!(key.as_str(), "v" | "runs") {
                return Err(format!("unknown job field `{key}`"));
            }
        }
        let version = match value.get("v").and_then(Json::as_num) {
            Some(v) if (f64::from(MIN_WIRE_VERSION)..=f64::from(WIRE_VERSION)).contains(&v) => {
                v as u32
            }
            Some(v) => return Err(format!("unsupported job-spec version {v}")),
            None => return Err("job spec must carry a numeric `v` field".to_string()),
        };
        let runs = value
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or_else(|| "job spec must carry a `runs` array".to_string())?;
        let runs = runs
            .iter()
            .map(WireRun::from_json_value)
            .collect::<Result<Vec<_>, _>>()?;
        reject_v2_features(version, &runs)?;
        JobSpec::new(runs)
    }

    /// Parses a TSV document (header line required; both the current and
    /// the v1 header are accepted).
    pub fn from_tsv(text: &str) -> Result<JobSpec, String> {
        let mut lines = text.lines();
        let version = match lines.next().map(str::trim_end) {
            Some(TSV_HEADER) => WIRE_VERSION,
            Some(TSV_HEADER_V1) => 1,
            _ => return Err(format!("first line must be `{TSV_HEADER}`")),
        };
        let runs = lines
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .map(WireRun::from_tsv)
            .collect::<Result<Vec<_>, _>>()?;
        reject_v2_features(version, &runs)?;
        JobSpec::new(runs)
    }

    /// Lowers every run to an executable [`RunSpec`].
    pub fn to_run_specs(&self) -> Result<Vec<RunSpec>, String> {
        self.runs.iter().map(WireRun::to_run_spec).collect()
    }
}

/// Rejects runs using v2-only wire features under a v1 version tag: a
/// v1 producer could never have written them, so their presence means a
/// mislabelled payload, not an old one.
fn reject_v2_features(version: u32, runs: &[WireRun]) -> Result<(), String> {
    if version < 2 {
        if let Some(run) = runs.iter().find(|r| r.zoo.is_some()) {
            return Err(format!(
                "`zoo:` prefetchers need job-spec v2, got v{version} (run {})",
                run.to_tsv()
            ));
        }
    }
    Ok(())
}

/// Parses the full prefetcher column: either a compact
/// [`prefetcher_from_wire`] form or a `zoo:` plan.
fn prefetcher_column_from_wire(text: &str) -> Result<(PrefetcherKind, Option<ZooPlan>), String> {
    match text.strip_prefix("zoo:") {
        Some(plan) => {
            let plan = ZooPlan::parse(plan).map_err(|e| format!("zoo prefetcher: {e}"))?;
            Ok((PrefetcherKind::None, Some(plan)))
        }
        None => Ok((prefetcher_from_wire(text)?, None)),
    }
}

/// The compact prefetcher text form, shared by both encodings:
///
/// `none` | `nl_always` | `nl_miss` | `nl_tagged` | `nnl:N` |
/// `lookahead:N` | `disc:T:A` | `disc_gated:T:A:C` | `target:T` |
/// `wrong_path` | `wrong_path+nl` | `markov:T:A`
pub fn prefetcher_to_wire(kind: PrefetcherKind) -> String {
    match kind {
        PrefetcherKind::None => "none".to_string(),
        PrefetcherKind::NextLineAlways => "nl_always".to_string(),
        PrefetcherKind::NextLineOnMiss => "nl_miss".to_string(),
        PrefetcherKind::NextLineTagged => "nl_tagged".to_string(),
        PrefetcherKind::NextNLineTagged { n } => format!("nnl:{n}"),
        PrefetcherKind::Lookahead { n } => format!("lookahead:{n}"),
        PrefetcherKind::Discontinuity {
            table_entries,
            ahead,
        } => format!("disc:{table_entries}:{ahead}"),
        PrefetcherKind::DiscontinuityGated {
            table_entries,
            ahead,
            min_confidence,
        } => format!("disc_gated:{table_entries}:{ahead}:{min_confidence}"),
        PrefetcherKind::Target { table_entries } => format!("target:{table_entries}"),
        PrefetcherKind::WrongPath { next_line } => if next_line {
            "wrong_path+nl"
        } else {
            "wrong_path"
        }
        .to_string(),
        PrefetcherKind::Markov {
            table_entries,
            ahead,
        } => format!("markov:{table_entries}:{ahead}"),
    }
}

/// Parses the compact prefetcher form (see [`prefetcher_to_wire`]). Each
/// numeric argument must lie in the range of the registry knob it sets
/// (`disc:T:A` ↔ `disc:table_entries=T,ahead=A`, …), so every accepted
/// form builds.
pub fn prefetcher_from_wire(text: &str) -> Result<PrefetcherKind, String> {
    let mut parts = text.split(':');
    let head = parts.next().unwrap_or("");
    let args: Vec<&str> = parts.collect();
    let arity = |n: usize| -> Result<(), String> {
        if args.len() == n {
            Ok(())
        } else {
            Err(format!(
                "prefetcher `{head}` takes {n} `:`-argument(s), got {}",
                args.len()
            ))
        }
    };
    let num = |i: usize, scheme: &str, knob: &str| -> Result<u64, String> {
        let value = args[i]
            .parse::<u64>()
            .ok()
            .filter(|v| *v >= 1)
            .ok_or_else(|| format!("prefetcher `{head}`: {knob} must be a positive integer"))?;
        find_scheme(scheme)
            .and_then(|def| def.knob(knob))
            .expect("compact forms map onto registered knobs")
            .check(value)
            .map_err(|expected| {
                format!("prefetcher `{head}`: {knob} must be {expected}, got {value}")
            })?;
        Ok(value)
    };
    match head {
        "none" => {
            arity(0)?;
            Ok(PrefetcherKind::None)
        }
        "nl_always" => {
            arity(0)?;
            Ok(PrefetcherKind::NextLineAlways)
        }
        "nl_miss" => {
            arity(0)?;
            Ok(PrefetcherKind::NextLineOnMiss)
        }
        "nl_tagged" => {
            arity(0)?;
            Ok(PrefetcherKind::NextLineTagged)
        }
        "nnl" => {
            arity(1)?;
            Ok(PrefetcherKind::NextNLineTagged {
                n: num(0, "nnl", "n")? as u32,
            })
        }
        "lookahead" => {
            arity(1)?;
            Ok(PrefetcherKind::Lookahead {
                n: num(0, "lookahead", "n")? as u32,
            })
        }
        "disc" => {
            arity(2)?;
            Ok(PrefetcherKind::Discontinuity {
                table_entries: num(0, "disc", "table_entries")? as usize,
                ahead: num(1, "disc", "ahead")? as u32,
            })
        }
        "disc_gated" => {
            arity(3)?;
            Ok(PrefetcherKind::DiscontinuityGated {
                table_entries: num(0, "disc", "table_entries")? as usize,
                ahead: num(1, "disc", "ahead")? as u32,
                min_confidence: num(2, "disc", "min_confidence")? as u8,
            })
        }
        "target" => {
            arity(1)?;
            Ok(PrefetcherKind::Target {
                table_entries: num(0, "target", "table_entries")? as usize,
            })
        }
        "wrong_path" => {
            arity(0)?;
            Ok(PrefetcherKind::WrongPath { next_line: false })
        }
        "wrong_path+nl" => {
            arity(0)?;
            Ok(PrefetcherKind::WrongPath { next_line: true })
        }
        "markov" => {
            arity(2)?;
            Ok(PrefetcherKind::Markov {
                table_entries: num(0, "markov", "table_entries")? as usize,
                ahead: num(1, "markov", "ahead")? as u32,
            })
        }
        _ => Err(format!("unknown prefetcher `{text}`")),
    }
}

/// `install_both` | `bypass`.
pub fn policy_to_wire(policy: InstallPolicy) -> &'static str {
    match policy {
        InstallPolicy::InstallBoth => "install_both",
        InstallPolicy::BypassL2UntilUseful => "bypass",
    }
}

/// Parses [`policy_to_wire`]'s output.
pub fn policy_from_wire(text: &str) -> Result<InstallPolicy, String> {
    match text {
        "install_both" => Ok(InstallPolicy::InstallBoth),
        "bypass" => Ok(InstallPolicy::BypassL2UntilUseful),
        _ => Err(format!(
            "unknown policy `{text}` (expected install_both|bypass)"
        )),
    }
}

/// `-` for no limit, else a `+`-joined subset of `seq`, `br`, `call`.
pub fn limit_to_wire(limit: LimitSpec) -> String {
    let mut parts = Vec::new();
    if limit.sequential {
        parts.push("seq");
    }
    if limit.branch {
        parts.push("br");
    }
    if limit.function_call {
        parts.push("call");
    }
    if parts.is_empty() {
        "-".to_string()
    } else {
        parts.join("+")
    }
}

/// Parses [`limit_to_wire`]'s output; `-` and the empty set give `None`.
pub fn limit_from_wire(text: &str) -> Result<Option<LimitSpec>, String> {
    if text == "-" {
        return Ok(None);
    }
    let mut limit = LimitSpec {
        sequential: false,
        branch: false,
        function_call: false,
    };
    for part in text.split('+') {
        match part {
            "seq" => limit.sequential = true,
            "br" => limit.branch = true,
            "call" => limit.function_call = true,
            _ => {
                return Err(format!(
                    "unknown limit component `{part}` (expected seq|br|call, `+`-joined, or `-`)"
                ))
            }
        }
    }
    Ok(Some(limit))
}

/// The wire name of one workload.
fn workload_wire_name(w: Workload) -> &'static str {
    match w {
        Workload::Db => "db",
        Workload::TpcW => "tpcw",
        Workload::JApp => "japp",
        Workload::Web => "web",
    }
}

/// Validates and canonicalises a workload name.
fn parse_workload_name(text: &str) -> Result<String, String> {
    match text {
        "db" | "tpcw" | "japp" | "web" | "mixed" => Ok(text.to_string()),
        _ => Err(format!(
            "unknown workload `{text}` (expected db|tpcw|japp|web|mixed)"
        )),
    }
}

/// Builds the workload set a canonical name denotes.
fn parse_workload_set(name: &str) -> Result<WorkloadSet, String> {
    Ok(match name {
        "db" => WorkloadSet::homogeneous(Workload::Db),
        "tpcw" => WorkloadSet::homogeneous(Workload::TpcW),
        "japp" => WorkloadSet::homogeneous(Workload::JApp),
        "web" => WorkloadSet::homogeneous(Workload::Web),
        "mixed" => WorkloadSet::mixed(),
        _ => return Err(format!("unknown workload `{name}`")),
    })
}

/// Parses a run window, bounding it so a malicious submit cannot queue a
/// multi-year simulation (the full paper windows are 10M/20M).
fn parse_window(text: &str, what: &str) -> Result<u64, String> {
    const MAX_WINDOW: u64 = 1_000_000_000;
    let v = text
        .parse::<u64>()
        .map_err(|_| format!("{what} must be a non-negative integer"))?;
    if v > MAX_WINDOW {
        return Err(format!("{what} must be at most {MAX_WINDOW}"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_runs() -> Vec<WireRun> {
        vec![
            WireRun {
                config: ConfigPreset { n_cores: 1 },
                workload: "db".to_string(),
                prefetcher: PrefetcherKind::None,
                zoo: None,
                policy: InstallPolicy::InstallBoth,
                limit: None,
                warm: 1000,
                measure: 2000,
            },
            WireRun {
                config: ConfigPreset { n_cores: 4 },
                workload: "mixed".to_string(),
                prefetcher: PrefetcherKind::Discontinuity {
                    table_entries: 8192,
                    ahead: 4,
                },
                zoo: None,
                policy: InstallPolicy::BypassL2UntilUseful,
                limit: Some(LimitSpec {
                    sequential: true,
                    branch: false,
                    function_call: true,
                }),
                warm: 5000,
                measure: 10000,
            },
            WireRun {
                config: ConfigPreset { n_cores: 1 },
                workload: "web".to_string(),
                prefetcher: PrefetcherKind::None,
                zoo: Some(ZooPlan::parse("nl+disc:ahead=2+mana").unwrap()),
                policy: InstallPolicy::InstallBoth,
                limit: None,
                warm: 1000,
                measure: 2000,
            },
        ]
    }

    #[test]
    fn json_round_trips() {
        let spec = JobSpec::new(sample_runs()).unwrap();
        let text = spec.to_json();
        let back = JobSpec::from_json(&text).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn tsv_round_trips() {
        let spec = JobSpec::new(sample_runs()).unwrap();
        let text = spec.to_tsv();
        let back = JobSpec::from_tsv(&text).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn every_prefetcher_kind_round_trips() {
        let kinds = [
            PrefetcherKind::None,
            PrefetcherKind::NextLineAlways,
            PrefetcherKind::NextLineOnMiss,
            PrefetcherKind::NextLineTagged,
            PrefetcherKind::NextNLineTagged { n: 4 },
            PrefetcherKind::Lookahead { n: 7 },
            PrefetcherKind::Discontinuity {
                table_entries: 8192,
                ahead: 4,
            },
            PrefetcherKind::DiscontinuityGated {
                table_entries: 1024,
                ahead: 2,
                min_confidence: 3,
            },
            PrefetcherKind::Target {
                table_entries: 2048,
            },
            PrefetcherKind::WrongPath { next_line: false },
            PrefetcherKind::WrongPath { next_line: true },
            PrefetcherKind::Markov {
                table_entries: 4096,
                ahead: 2,
            },
        ];
        for kind in kinds {
            let wire = prefetcher_to_wire(kind);
            assert_eq!(prefetcher_from_wire(&wire), Ok(kind), "{wire}");
        }
    }

    #[test]
    fn run_spec_round_trips_through_the_wire() {
        for wire in sample_runs() {
            let spec = wire.to_run_spec().unwrap();
            let back = WireRun::from_run_spec(&spec).unwrap();
            assert_eq!(wire, back);
            // Same cache key after a full wire round trip: the serving
            // dedup layer depends on this.
            assert_eq!(spec.cache_key(), back.to_run_spec().unwrap().cache_key());
        }
    }

    #[test]
    fn v1_payloads_still_decode() {
        // A JSON document exactly as a v1 producer would have written it.
        let v1 = "{\"v\":1,\"runs\":[{\"config\":\"cmp4\",\"workload\":\"mixed\",\
                  \"prefetcher\":\"disc:8192:4\",\"policy\":\"bypass\",\
                  \"warm\":5000,\"measure\":10000}]}";
        let spec = JobSpec::from_json(v1).unwrap();
        assert_eq!(spec.runs[0].zoo, None);
        assert_eq!(
            spec.runs[0].prefetcher,
            PrefetcherKind::Discontinuity {
                table_entries: 8192,
                ahead: 4
            }
        );
        // A v1 TSV document under the old header.
        let tsv = format!("{TSV_HEADER_V1}\ncmp4\tdb\tnone\tinstall_both\t-\t1\t2\n");
        assert_eq!(JobSpec::from_tsv(&tsv).unwrap().runs.len(), 1);
    }

    #[test]
    fn prefetcher_field_is_optional_in_v2() {
        let spec = JobSpec::from_json(
            "{\"v\":2,\"runs\":[{\"config\":\"single_core\",\"workload\":\"db\",\
             \"policy\":\"install_both\",\"warm\":10,\"measure\":20}]}",
        )
        .unwrap();
        assert_eq!(spec.runs[0].prefetcher, PrefetcherKind::None);
        assert_eq!(spec.runs[0].zoo, None);
    }

    #[test]
    fn zoo_plans_ride_the_wire_canonically() {
        let spec = JobSpec::new(sample_runs()).unwrap();
        let json = spec.to_json();
        assert!(json.contains("\"zoo:nl+disc:ahead=2+mana\""), "{json}");
        assert_eq!(JobSpec::from_json(&json).unwrap(), spec);
        let run_spec = spec.runs[2].to_run_spec().unwrap();
        assert_eq!(
            run_spec.zoo,
            Some(ZooPlan::parse("nl+disc:ahead=2+mana").unwrap())
        );
        // Non-canonical knob order canonicalises on decode → same key.
        let (_, messy) = prefetcher_column_from_wire("zoo:nl+disc:ahead=2+mana:degree=8").unwrap();
        assert_eq!(messy.unwrap().canonical(), "nl+disc:ahead=2+mana:degree=8");
    }

    #[test]
    fn zoo_forms_are_rejected_under_v1() {
        let v1_json = "{\"v\":1,\"runs\":[{\"config\":\"single_core\",\"workload\":\"db\",\
                       \"prefetcher\":\"zoo:nl+disc\",\"policy\":\"install_both\",\
                       \"warm\":10,\"measure\":20}]}";
        let err = JobSpec::from_json(v1_json).unwrap_err();
        assert!(err.contains("need job-spec v2"), "{err}");
        let v1_tsv =
            format!("{TSV_HEADER_V1}\nsingle_core\tdb\tzoo:nl+disc\tinstall_both\t-\t10\t20\n");
        assert!(JobSpec::from_tsv(&v1_tsv).is_err());
    }

    #[test]
    fn decoders_are_strict() {
        assert!(JobSpec::from_json("{}").is_err());
        assert!(JobSpec::from_json("{\"v\":1,\"runs\":[]}").is_err());
        assert!(JobSpec::from_json("{\"v\":3,\"runs\":[{}]}").is_err());
        assert!(JobSpec::from_json("{\"v\":2,\"runs\":[{}]}").is_err());
        // Zoo plans are validated against the scheme registry on decode.
        assert!(prefetcher_column_from_wire("zoo:warp").is_err());
        assert!(prefetcher_column_from_wire("zoo:nl:mode=9").is_err());
        assert!(prefetcher_column_from_wire("zoo:").is_err());
        assert!(JobSpec::from_json("{\"v\":1,\"runs\":[{\"config\":\"cmp4\"}]}").is_err());
        // Unknown fields are rejected, not ignored.
        let mut ok = JobSpec::new(sample_runs()).unwrap().to_json();
        ok = ok.replacen("\"config\"", "\"confg\"", 1);
        assert!(JobSpec::from_json(&ok).is_err());
        // Absurd windows are rejected at the door.
        assert!(WireRun::from_tsv("cmp4\tdb\tnone\tinstall_both\t-\t1\t9999999999999").is_err());
        // Bad TSV header.
        assert!(JobSpec::from_tsv("cmp4\tdb\tnone\tinstall_both\t-\t1\t2\n").is_err());
        assert!(prefetcher_from_wire("disc:8192").is_err());
        assert!(prefetcher_from_wire("warp").is_err());
        // Compact forms are held to the registry's knob ranges: these used
        // to decode and then panic when the engine was built.
        for bad in [
            "disc:100:4",
            "target:100",
            "markov:100:4",
            "disc_gated:8192:4:200",
            "nnl:65",
            "disc:8192:0",
        ] {
            assert!(prefetcher_from_wire(bad).is_err(), "{bad}");
            let tsv = format!("cmp4\tdb\t{bad}\tinstall_both\t-\t10\t20");
            assert!(WireRun::from_tsv(&tsv).is_err(), "{bad}");
        }
        assert!(policy_from_wire("both").is_err());
        assert!(limit_from_wire("seq+wat").is_err());
    }

    #[test]
    fn preset_names_round_trip() {
        for name in ["single_core", "cmp2", "cmp4", "cmp16"] {
            let preset = ConfigPreset::parse(name).unwrap();
            assert_eq!(preset.name(), name);
            assert_eq!(ConfigPreset::from_config(&preset.to_config()), Some(preset));
        }
        assert!(ConfigPreset::parse("cmp1").is_err());
        assert!(ConfigPreset::parse("cmp17").is_err());
        assert!(ConfigPreset::parse("mega").is_err());
    }
}
