//! A serde-free, versioned wire encoding for experiment specs.
//!
//! [`RunSpec`] is a rich in-process type (it owns a full `SystemConfig`);
//! the serving path needs something a *client* can author: a small,
//! stable, human-writable description of a run or sweep. [`WireRun`] is
//! that description — a config preset plus the knobs the paper's design
//! space actually sweeps (workload, prefetcher, install policy, limit
//! spec, run windows) — and [`JobSpec`] is a batch of them.
//!
//! Two encodings share one schema version (`ipsim-jobspec v3`):
//!
//! * **JSON** (the HTTP wire format), read back with the hand-rolled
//!   `ipsim_obs::json` parser — no serde, per the workspace's
//!   vendored-only dependency policy:
//!
//! ```json
//! {"v":3,"runs":[{"config":"cmp4","workload":"mixed",
//!                 "prefetcher":"disc","policy":"bypass",
//!                 "warm":2000000,"measure":4000000}]}
//! ```
//!
//! * **TSV** (one run per line, shell-friendly, submitted with
//!   `Content-Type: text/tab-separated-values`):
//!
//! ```text
//! # ipsim-jobspec-tsv v3
//! cmp4<TAB>mixed<TAB>disc<TAB>bypass<TAB>-<TAB>2000000<TAB>4000000
//! ```
//!
//! The prefetcher column is a [`Scheme`]'s text form, shared by both
//! encodings: a registry spec (`disc:ahead=2`) or a `zoo:` plan
//! (`zoo:nl+mana`, run with shadow attribution; see `ipsim-prefetch`).
//! The JSON `prefetcher` field is optional (absent means `none`). `limit`
//! is `-` or any `+`-joined subset of `seq`, `br`, `call`. Every decoder
//! is strict: unknown fields, unknown presets and non-integral numbers
//! are errors, not guesses — a daemon must reject malformed jobs at
//! submit time, not discover them mid-queue.
//!
//! Older payloads and journals still decode. **v1** spelled the
//! prefetcher column in a positional grammar (`nl_tagged`, `disc:8192:4`,
//! `wrong_path+nl`), read through the `COMPACT_FORMS` table; **v2** kept
//! that grammar, made the JSON `prefetcher` field optional and added the
//! `zoo:` form (a v1-tagged payload carrying one is rejected). The table
//! applies only under a v1/v2 tag: the grammars overlap, and `wrong_path`
//! meant `next_line=0` there but is the registry default `next_line=1`
//! in v3.

use ipsim_cache::InstallPolicy;
use ipsim_cpu::{LimitSpec, WorkloadSet};
use ipsim_obs::json::{self, Json};
use ipsim_prefetch::Scheme;
use ipsim_trace::Workload;
use ipsim_types::SystemConfig;

use crate::spec::RunSpec;
use crate::RunLengths;

/// Wire-schema version written by every encoder.
pub const WIRE_VERSION: u32 = 3;

/// Oldest wire-schema version decoders still accept.
pub const MIN_WIRE_VERSION: u32 = 1;

/// Header line of the TSV encoding.
pub const TSV_HEADER: &str = "# ipsim-jobspec-tsv v3";

/// Every TSV header up to its version number; decoders accept
/// [`MIN_WIRE_VERSION`]`..=`[`WIRE_VERSION`] after it.
pub const TSV_PREFIX: &str = "# ipsim-jobspec-tsv v";

/// The v1/v2 prefetcher column forms: `(head, registry scheme, positional
/// knobs, fixed knob)`. `disc:8192:4` reads as the registry spec
/// `disc:table_entries=8192,ahead=4`; positional values must be ≥ 1.
const COMPACT_FORMS: &[(&str, &str, &[&str], Option<&str>)] = &[
    ("none", "none", &[], None),
    ("nl_always", "nl", &[], Some("mode=0")),
    ("nl_miss", "nl", &[], Some("mode=1")),
    ("nl_tagged", "nl", &[], Some("mode=2")),
    ("nnl", "nnl", &["n"], None),
    ("lookahead", "lookahead", &["n"], None),
    ("disc", "disc", &["table_entries", "ahead"], None),
    (
        "disc_gated",
        "disc",
        &["table_entries", "ahead", "min_confidence"],
        None,
    ),
    ("target", "target", &["table_entries"], None),
    ("wrong_path", "wrong_path", &[], Some("next_line=0")),
    ("wrong_path+nl", "wrong_path", &[], Some("next_line=1")),
    ("markov", "markov", &["table_entries", "ahead"], None),
];

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
    /// Per-core prefetch scheme, written as its [`Scheme::text`]; the
    /// encoders panic on a kind the registry cannot name, which neither
    /// the decoders nor [`WireRun::from_run_spec`] ever produce.
    pub scheme: Scheme,
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
        let mut spec =
            RunSpec::new(self.config.to_config(), workloads, lengths).policy(self.policy);
        spec.scheme = self.scheme.clone();
        if let Some(limit) = self.limit {
            spec = spec.limit(limit);
        }
        Ok(spec)
    }

    /// Lifts an in-process spec back onto the wire. `None` when the spec
    /// uses a non-preset config, non-default workload seeds, a prefetcher
    /// the registry cannot name or a window past the decoders' bound of
    /// 10^9 instructions (such specs exist only inside the process and
    /// cannot be re-submitted).
    pub fn from_run_spec(spec: &RunSpec) -> Option<WireRun> {
        let config = ConfigPreset::from_config(&spec.config)?;
        spec.scheme.text()?;
        let default = WorkloadSet::homogeneous(Workload::Db);
        if spec.workloads.program_seed != default.program_seed
            || spec.workloads.walker_seed != default.walker_seed
            || spec.lengths.warm.max(spec.lengths.measure) > MAX_WINDOW
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
            scheme: spec.scheme.clone(),
            policy: spec.policy,
            limit: spec.limit,
            warm: spec.lengths.warm,
            measure: spec.lengths.measure,
        })
    }

    /// The prefetcher column value.
    fn prefetcher_column(&self) -> String {
        self.scheme
            .text()
            .expect("wire runs hold schemes the registry can name")
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

    /// Parses one TSV line of a version-`version` document.
    fn from_tsv(line: &str, version: u32) -> Result<WireRun, String> {
        let parts: Vec<&str> = line.trim_end().split('\t').collect();
        if parts.len() != 7 {
            return Err(format!(
                "expected 7 tab-separated fields (config workload prefetcher policy limit warm measure), got {}",
                parts.len()
            ));
        }
        Ok(WireRun {
            config: ConfigPreset::parse(parts[0])?,
            workload: parse_workload_name(parts[1])?,
            scheme: scheme_from_wire(parts[2], version)?,
            policy: policy_from_wire(parts[3])?,
            limit: limit_from_wire(parts[4])?,
            warm: parse_window(parts[5], "warm")?,
            measure: parse_window(parts[6], "measure")?,
        })
    }

    /// Parses one run object of a version-`version` document.
    fn from_json_value(value: &Json, version: u32) -> Result<WireRun, String> {
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
                .filter(|n| n.as_num().is_some())
                .ok_or_else(|| format!("run field `{name}` must be a number"))?;
            let n = n
                .as_u64()
                .ok_or_else(|| format!("run field `{name}` must be a non-negative integer"))?;
            check_window(n, name)
        };
        let limit = match value.get("limit") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => limit_from_wire(s)?,
            Some(_) => return Err("run field `limit` must be a string".to_string()),
        };
        // v2+: `prefetcher` is optional; absent means no prefetcher.
        let scheme = match value.get("prefetcher") {
            None | Some(Json::Null) => Scheme::default(),
            Some(Json::Str(s)) => scheme_from_wire(s, version)?,
            Some(_) => return Err("run field `prefetcher` must be a string".to_string()),
        };
        Ok(WireRun {
            config: ConfigPreset::parse(str_field("config")?)?,
            workload: parse_workload_name(str_field("workload")?)?,
            scheme,
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
        let v = value.get("v");
        let version = match (v.and_then(Json::as_u64), v.and_then(Json::as_num)) {
            (Some(n), _) if (MIN_WIRE_VERSION.into()..=WIRE_VERSION.into()).contains(&n) => {
                n as u32
            }
            (_, Some(n)) => return Err(format!("unsupported job-spec version {n}")),
            (_, None) => return Err("job spec must carry a numeric `v` field".to_string()),
        };
        let runs = value
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or_else(|| "job spec must carry a `runs` array".to_string())?;
        let runs = runs
            .iter()
            .map(|run| WireRun::from_json_value(run, version))
            .collect::<Result<Vec<_>, _>>()?;
        JobSpec::new(runs)
    }

    /// Parses a TSV document (header line required, any accepted version).
    pub fn from_tsv(text: &str) -> Result<JobSpec, String> {
        let mut lines = text.lines();
        let header = lines.next().unwrap_or("").trim_end();
        let version = (MIN_WIRE_VERSION..=WIRE_VERSION)
            .find(|v| header.strip_prefix(TSV_PREFIX) == Some(&v.to_string()))
            .ok_or_else(|| format!("first line must be `{TSV_HEADER}`"))?;
        let runs = lines
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .map(|line| WireRun::from_tsv(line, version))
            .collect::<Result<Vec<_>, _>>()?;
        JobSpec::new(runs)
    }

    /// Lowers every run to an executable [`RunSpec`].
    pub fn to_run_specs(&self) -> Result<Vec<RunSpec>, String> {
        self.runs.iter().map(WireRun::to_run_spec).collect()
    }
}

/// Reads a version-`version` prefetcher column: [`Scheme`] text, or under
/// v1/v2 a [`COMPACT_FORMS`] entry or (v2 only) a `zoo:` plan.
fn scheme_from_wire(text: &str, version: u32) -> Result<Scheme, String> {
    let zoo = text.starts_with("zoo:");
    if zoo && version < 2 {
        return Err(format!(
            "`zoo:` prefetchers need job-spec v2, got v{version}"
        ));
    }
    let spec = if zoo || version >= 3 {
        text.to_string()
    } else {
        let mut parts = text.split(':');
        let head = parts.next().unwrap_or("");
        let args: Vec<&str> = parts.collect();
        let (_, name, positional, fixed) = COMPACT_FORMS
            .iter()
            .find(|form| form.0 == head)
            .ok_or_else(|| format!("unknown prefetcher `{text}`"))?;
        if args.len() != positional.len() {
            return Err(format!(
                "prefetcher `{head}` takes {} `:`-argument(s), got {}",
                positional.len(),
                args.len()
            ));
        }
        let mut knobs: Vec<String> = fixed.iter().map(|k| k.to_string()).collect();
        for (knob, arg) in positional.iter().zip(args) {
            match arg.parse::<u64>() {
                Ok(value) if value >= 1 => knobs.push(format!("{knob}={value}")),
                _ => {
                    return Err(format!(
                        "prefetcher `{head}`: {knob} must be a positive integer"
                    ))
                }
            }
        }
        if knobs.is_empty() {
            name.to_string()
        } else {
            format!("{name}:{}", knobs.join(","))
        }
    };
    Scheme::parse(&spec).map_err(|e| format!("prefetcher `{text}`: {e}"))
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

/// The longest run window a wire spec may carry, so a malicious submit
/// cannot queue a multi-year simulation (the full paper windows are
/// 10M/20M).
const MAX_WINDOW: u64 = 1_000_000_000;

/// Bounds a decoded run window by [`MAX_WINDOW`].
fn check_window(v: u64, what: &str) -> Result<u64, String> {
    if v > MAX_WINDOW {
        return Err(format!("{what} must be at most {MAX_WINDOW}"));
    }
    Ok(v)
}

/// Parses a TSV run window.
fn parse_window(text: &str, what: &str) -> Result<u64, String> {
    let v = text
        .parse::<u64>()
        .map_err(|_| format!("{what} must be a non-negative integer"))?;
    check_window(v, what)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsim_core::PrefetcherKind;
    use ipsim_prefetch::ZooPlan;

    fn sample_runs() -> Vec<WireRun> {
        vec![
            WireRun {
                config: ConfigPreset { n_cores: 1 },
                workload: "db".to_string(),
                scheme: Scheme::default(),
                policy: InstallPolicy::InstallBoth,
                limit: None,
                warm: 1000,
                measure: 2000,
            },
            WireRun {
                config: ConfigPreset { n_cores: 4 },
                workload: "mixed".to_string(),
                scheme: Scheme::Single(PrefetcherKind::Discontinuity {
                    table_entries: 8192,
                    ahead: 4,
                }),
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
                scheme: Scheme::Zoo(ZooPlan::parse("nl+disc:ahead=2+mana").unwrap()),
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
        assert!(text.starts_with(&format!("{TSV_PREFIX}{WIRE_VERSION}\n")));
        let back = JobSpec::from_tsv(&text).unwrap();
        assert_eq!(spec, back);
    }

    /// Each v1/v2 compact form and its v3 registry spelling decode to the
    /// same scheme, and the scheme writes the v3 spelling back.
    #[test]
    fn compact_forms_and_registry_specs_agree() {
        for (compact, spec) in [
            ("none", "none"),
            ("nl_always", "nl:mode=0"),
            ("nl_miss", "nl:mode=1"),
            ("nl_tagged", "nl"),
            ("nnl:7", "nnl:n=7"),
            ("lookahead:7", "lookahead:n=7"),
            ("disc:8192:4", "disc"),
            (
                "disc_gated:1024:2:3",
                "disc:ahead=2,min_confidence=3,table_entries=1024",
            ),
            ("target:2048", "target:table_entries=2048"),
            ("wrong_path", "wrong_path:next_line=0"),
            ("wrong_path+nl", "wrong_path"),
            ("markov:4096:2", "markov:ahead=2,table_entries=4096"),
        ] {
            let old = scheme_from_wire(compact, 2).unwrap();
            assert_eq!(
                scheme_from_wire(spec, WIRE_VERSION),
                Ok(old.clone()),
                "{spec}"
            );
            assert_eq!(old.text().as_deref(), Some(spec), "{compact}");
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
        assert_eq!(
            spec.runs[0].scheme,
            Scheme::Single(PrefetcherKind::Discontinuity {
                table_entries: 8192,
                ahead: 4
            })
        );
        // A v1 TSV document under the old header.
        let tsv = format!("{TSV_PREFIX}1\ncmp4\tdb\tnone\tinstall_both\t-\t1\t2\n");
        assert_eq!(JobSpec::from_tsv(&tsv).unwrap().runs.len(), 1);
    }

    #[test]
    fn prefetcher_field_is_optional_in_v2() {
        let spec = JobSpec::from_json(
            "{\"v\":2,\"runs\":[{\"config\":\"single_core\",\"workload\":\"db\",\
             \"policy\":\"install_both\",\"warm\":10,\"measure\":20}]}",
        )
        .unwrap();
        assert_eq!(spec.runs[0].scheme, Scheme::default());
    }

    #[test]
    fn zoo_plans_ride_the_wire_canonically() {
        let spec = JobSpec::new(sample_runs()).unwrap();
        let json = spec.to_json();
        assert!(json.contains("\"zoo:nl+disc:ahead=2+mana\""), "{json}");
        assert_eq!(JobSpec::from_json(&json).unwrap(), spec);
        let run_spec = spec.runs[2].to_run_spec().unwrap();
        assert_eq!(
            run_spec.scheme,
            Scheme::Zoo(ZooPlan::parse("nl+disc:ahead=2+mana").unwrap())
        );
        // Non-canonical knob order canonicalises on decode → same key.
        let messy = scheme_from_wire("zoo:nl+disc:ahead=2+mana:degree=8", 2).unwrap();
        assert_eq!(messy.text().unwrap(), "zoo:nl+disc:ahead=2+mana:degree=8");
    }

    #[test]
    fn zoo_forms_are_rejected_under_v1() {
        let v1_json = "{\"v\":1,\"runs\":[{\"config\":\"single_core\",\"workload\":\"db\",\
                       \"prefetcher\":\"zoo:nl+disc\",\"policy\":\"install_both\",\
                       \"warm\":10,\"measure\":20}]}";
        let err = JobSpec::from_json(v1_json).unwrap_err();
        assert!(err.contains("need job-spec v2"), "{err}");
        let v1_tsv =
            format!("{TSV_PREFIX}1\nsingle_core\tdb\tzoo:nl+disc\tinstall_both\t-\t10\t20\n");
        assert!(JobSpec::from_tsv(&v1_tsv).is_err());
    }

    /// Compact forms are read only under v1/v2 tags, registry specs only
    /// under v3; a rival needs `zoo:` in v3 as it did in v2.
    #[test]
    fn prefetcher_grammars_are_version_gated() {
        for version in [1, 2] {
            assert!(scheme_from_wire("disc:ahead=2", version).is_err());
            assert!(scheme_from_wire("nl", version).is_err());
        }
        for compact in ["nl_tagged", "disc:8192:4", "wrong_path+nl"] {
            assert!(scheme_from_wire(compact, 3).is_err(), "{compact}");
        }
        let err = scheme_from_wire("mana", 3).unwrap_err();
        assert!(err.contains("zoo:mana"), "{err}");
        assert!(scheme_from_wire("zoo:mana", 3).is_ok());
    }

    #[test]
    fn decoders_are_strict() {
        assert!(JobSpec::from_json("{}").is_err());
        assert!(JobSpec::from_json("{\"v\":1,\"runs\":[]}").is_err());
        assert!(JobSpec::from_json("{\"v\":3,\"runs\":[{}]}").is_err());
        assert!(JobSpec::from_json("{\"v\":2,\"runs\":[{}]}").is_err());
        // Versions are exact integers in range, never cast.
        let versioned = |v: &str| {
            format!(
                r#"{{"v":{v},"runs":[{{"config":"cmp4","workload":"db","policy":"bypass","warm":1,"measure":2}}]}}"#
            )
        };
        assert!(JobSpec::from_json(&versioned("3")).is_ok());
        for bad in ["0", "4", "1.5", "2.5", "-1", "\"2\""] {
            assert!(JobSpec::from_json(&versioned(bad)).is_err(), "{bad}");
        }
        for bad in ["0", "4", "+3", "03"] {
            let tsv = format!("{TSV_PREFIX}{bad}\ncmp4\tdb\tnone\tinstall_both\t-\t1\t2\n");
            assert!(JobSpec::from_tsv(&tsv).is_err(), "{bad}");
        }
        // Zoo plans are validated against the scheme registry on decode.
        assert!(scheme_from_wire("zoo:warp", 2).is_err());
        assert!(scheme_from_wire("zoo:nl:mode=9", 3).is_err());
        assert!(scheme_from_wire("zoo:", 3).is_err());
        assert!(JobSpec::from_json("{\"v\":1,\"runs\":[{\"config\":\"cmp4\"}]}").is_err());
        // Unknown fields are rejected, not ignored.
        let mut ok = JobSpec::new(sample_runs()).unwrap().to_json();
        ok = ok.replacen("\"config\"", "\"confg\"", 1);
        assert!(JobSpec::from_json(&ok).is_err());
        // Absurd windows are rejected at the door.
        assert!(WireRun::from_tsv("cmp4\tdb\tnone\tinstall_both\t-\t1\t9999999999999", 3).is_err());
        // Window lengths are exact non-negative integers, never cast.
        let job = |warm: &str| {
            format!(
                r#"{{"v":2,"runs":[{{"config":"cmp4","workload":"mixed","policy":"bypass","warm":{warm},"measure":4000000}}]}}"#
            )
        };
        assert!(JobSpec::from_json(&job("2e6")).is_ok());
        for bad in ["-1", "1.5", "1e30", "\"7\"", "1000000001"] {
            assert!(JobSpec::from_json(&job(bad)).is_err(), "{bad}");
        }
        // Bad TSV header.
        assert!(JobSpec::from_tsv("cmp4\tdb\tnone\tinstall_both\t-\t1\t2\n").is_err());
        assert!(scheme_from_wire("disc:8192", 2).is_err());
        assert!(scheme_from_wire("warp", 2).is_err());
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
            assert!(scheme_from_wire(bad, 2).is_err(), "{bad}");
            let tsv = format!("cmp4\tdb\t{bad}\tinstall_both\t-\t10\t20");
            assert!(WireRun::from_tsv(&tsv, 1).is_err(), "{bad}");
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
