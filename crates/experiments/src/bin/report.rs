//! `report`: every read-back view of a sweep's artifacts, one binary with
//! five subcommands.
//!
//! * `report sim` runs the paper's flagship configuration (CMP-4,
//!   discontinuity+sequential prefetcher, bypass-L2-until-useful) against
//!   a no-prefetch baseline on the four commercial workloads plus Mixed,
//!   with telemetry on, and prints the per-component diagnosis table
//!   *read back from the artifacts* (`pf_summary.tsv`), not from memory.
//!   `--bakeoff` prints the prefetcher-zoo bake-off table instead.
//! * `report sweep` folds the runlog, run cache and telemetry artifacts
//!   into one summary (see [`ipsim_experiments::report`]).
//! * `report ops` folds a Chrome-trace span file into a per-span table.
//! * `report check` re-validates telemetry artifact directories and loose
//!   Chrome traces with the exporters' own parsers.
//! * `report trace` prints a workload's dynamic-stream statistics, walked
//!   live, or decodes one captured trace file (`--trace FILE`) and prints
//!   its header, kind mix and footprints.
//!
//! Diagnosis columns (`report sim`), per workload and prefetch component
//! (`seq` = next-N-line, `disc` = discontinuity table):
//!
//! * `iss/KI`   — prefetches issued per 1 000 committed instructions;
//! * `acc%`     — accuracy: first demand uses / issued;
//! * `late%`    — timeliness: first uses that arrived after a demand
//!   fetch had already stalled on the line;
//! * `useless%` — issued prefetches evicted without ever being used;
//! * `l2ins/KI` — lines the bypass policy promoted into L2;
//!
//! plus the workload-level L1I miss rate with and without prefetching and
//! the resulting coverage (fraction of baseline misses removed).
//!
//! Exit status for every subcommand: 0 ok, 1 the report failed, 2 usage.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::exit;

use ipsim_cache::InstallPolicy;
use ipsim_core::PrefetcherKind;
use ipsim_experiments::report::{render_report, ReportOptions};
use ipsim_experiments::{bakeoff, table_string, workload_columns};
use ipsim_harness::pool;
use ipsim_harness::progress::Progress;
use ipsim_harness::telemetry::{read_artifact, read_meta, read_pf_summary, META_FILE};
use ipsim_harness::{
    ProgressMode, RunCache, RunLengths, RunSpec, Summary, TelemetrySink, TraceStore,
};
use ipsim_obs::chrome;
use ipsim_obs::json::Json;
use ipsim_stream::TraceReader;
use ipsim_telemetry::sink::{parse_events_jsonl, parse_series_tsv};
use ipsim_telemetry::{
    validate_lifecycle, ComponentCounters, PfComponent, PfEventKind, TelemetryConfig,
};
use ipsim_trace::{TraceWalker, Workload};
use ipsim_types::instr::{CtiClass, OpKind, TraceOp};
use ipsim_types::{Addr, LineSize, SystemConfig};

const USAGE: &str = "\
usage: report <command> [options]

  sim     per-workload prefetcher diagnosis (or the zoo bake-off) from a
          telemetry-enabled sweep
  sweep   totals, cache economics and per-scheme accuracy/coverage/
          timeliness from a finished sweep's runlog and stores
  ops     per-span totals from a span trace
  check   validate telemetry artifact directories and Chrome traces
  trace   dynamic-stream statistics of a workload or a captured trace file

`report <command> --help` lists a command's options. Exit status: 0 ok,
1 the report failed, 2 usage error.
";

const SIM_USAGE: &str = "\
usage: report sim [--bakeoff] [--quick | --smoke] [--jobs N]

  --bakeoff   run the prefetcher-zoo bake-off instead of the flagship
              report: every registered scheme side by side per workload,
              with accuracy/coverage/timeliness attributed per scheme
  --quick     ~5x shorter warm-up/measurement windows
  --smoke     tiny windows for CI smoke runs (seconds, not minutes)
  --jobs N    worker threads (default: available parallelism)
  --help      this text

Environment: IPSIM_CACHE_DIR, IPSIM_TRACE_DIR, IPSIM_TELEMETRY_DIR,
IPSIM_RUNLOG as for all_figures.
";

const SWEEP_USAGE: &str = "\
usage: report sweep [--runlog PATH] [--cache DIR] [--telemetry DIR] [--stable]

  --runlog PATH     runlog to aggregate (default: $IPSIM_RUNLOG or
                    results/runlog.tsv)
  --cache DIR       run cache with metric summaries (default:
                    $IPSIM_CACHE_DIR or results/cache)
  --telemetry DIR   telemetry artifact root for the timeliness columns
                    (default: $IPSIM_TELEMETRY_DIR or results/telemetry);
                    missing artifacts print `-`, never fail
  --stable          machine-stable view only: no timestamps, wall times
                    or stream sources — byte-identical for any worker
                    count that produced the sweep
  --help            this text
";

const OPS_USAGE: &str = "\
usage: report ops --spans FILE

  --spans FILE   Chrome-trace span file (e.g. perfbench's
                 .perfbench_out/<workload>.spans.trace.json)
  --help         this text
";

const CHECK_USAGE: &str = "\
usage: report check [ROOT] [TRACE.json ...]

Validates every telemetry artifact directory under ROOT (default:
$IPSIM_TELEMETRY_DIR or results/telemetry). Arguments that are files
are validated as loose Chrome-trace exports instead (e.g. perfbench's
.perfbench_out/<workload>.spans.trace.json). Exits nonzero
if any artifact fails its format or lifecycle validation.
";

const TRACE_USAGE: &str = "\
usage: report trace [db|tpcw|japp|web]
       report trace --trace FILE

  db|tpcw|japp|web   walk a synthetic workload live (default: japp)
  --trace FILE       decode a captured trace file (e.g. one under
                     results/traces/) and report its statistics
  --help             this text
";

fn main() {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_default();
    let rest: Vec<String> = args.collect();
    match command.as_str() {
        "--help" | "-h" => print!("{USAGE}"),
        "sim" => sim(Args::new(SIM_USAGE, rest)),
        "sweep" => sweep(Args::new(SWEEP_USAGE, rest)),
        "ops" => ops(Args::new(OPS_USAGE, rest)),
        "check" => check(Args::new(CHECK_USAGE, rest)),
        "trace" => trace(Args::new(TRACE_USAGE, rest)),
        "" => Args::new(USAGE, Vec::new()).fail("missing command"),
        other => Args::new(USAGE, Vec::new()).fail(&format!("unknown command `{other}`")),
    }
}

/// One subcommand's arguments. `--help` anywhere prints the usage to
/// stdout and exits 0; every usage error prints it to stderr and exits 2.
struct Args {
    usage: &'static str,
    rest: std::vec::IntoIter<String>,
}

impl Args {
    fn new(usage: &'static str, rest: Vec<String>) -> Args {
        if rest.iter().any(|a| a == "--help" || a == "-h") {
            print!("{usage}");
            exit(0);
        }
        Args {
            usage,
            rest: rest.into_iter(),
        }
    }

    fn next(&mut self) -> Option<String> {
        self.rest.next()
    }

    /// The value following `flag`.
    fn value(&mut self, flag: &str) -> String {
        self.rest
            .next()
            .unwrap_or_else(|| self.fail(&format!("{flag} needs a value")))
    }

    fn fail(&self, message: &str) -> ! {
        eprintln!("{message}\n\n{}", self.usage);
        exit(2);
    }
}

/// Prints `error` prefixed with the subcommand and exits 1.
fn die(command: &str, error: impl std::fmt::Display) -> ! {
    eprintln!("report {command}: {error}");
    exit(1);
}

// ---------------------------------------------------------------- sim

fn sim(mut args: Args) {
    let mut lengths = RunLengths::full();
    let mut workers = ipsim_harness::args::default_workers();
    let mut bakeoff = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bakeoff" => bakeoff = true,
            "--quick" => lengths = RunLengths::quick(),
            "--smoke" => {
                lengths = RunLengths {
                    warm: 20_000,
                    measure: 50_000,
                }
            }
            "--jobs" | "-j" => match args.value("--jobs").parse::<usize>() {
                Ok(n) if n >= 1 => workers = n,
                _ => args.fail("--jobs needs a positive integer"),
            },
            other => args.fail(&format!("unknown argument `{other}`")),
        }
    }

    // One baseline and one flagship-prefetcher spec per workload set — or
    // the bake-off sweep (baseline + full-zoo run per workload).
    let workload_sets = workload_columns(true);
    let specs: Vec<RunSpec> = if bakeoff {
        bakeoff::bakeoff_specs(lengths)
    } else {
        workload_sets
            .iter()
            .flat_map(|ws| {
                let base = RunSpec::new(SystemConfig::cmp4(), ws.clone(), lengths);
                let flagship = base
                    .clone()
                    .prefetcher(PrefetcherKind::discontinuity_default())
                    .policy(InstallPolicy::BypassL2UntilUseful);
                [base, flagship]
            })
            .collect()
    };

    let cache = RunCache::from_env();
    let traces = TraceStore::from_env();
    let sink = TelemetrySink::from_env(TelemetryConfig::default());
    let progress = Progress::new(ProgressMode::Auto, specs.len());
    // Each stream's runs share as few cohorts as the bounds allow, so a
    // warm stream decodes once per cohort.
    let streams = pool::streams(&specs);
    let streams: Vec<&[RunSpec]> = streams.iter().map(Vec::as_slice).collect();
    let groups = pool::cohort_groups(&streams, workers, Some(sink.config()), |spec| {
        cache.contains(spec) && sink.has(&spec.cache_key())
    });
    let groups: Vec<&[RunSpec]> = groups.iter().map(Vec::as_slice).collect();
    let report = pool::execute_groups(&groups, workers, &cache, &traces, Some(&sink), &progress);
    progress.finish();

    let resolve = |spec: &RunSpec| -> Summary {
        match report.results.get(&spec.cache_key()) {
            Some(Ok(summary)) => summary.clone(),
            Some(Err(e)) => die("sim", format!("run `{}` failed: {e}", spec.label())),
            None => unreachable!("every spec was scheduled"),
        }
    };

    if bakeoff {
        match bakeoff::render_bakeoff(&sink, &specs, resolve) {
            Ok(table) => print!("{table}"),
            Err(e) => die("sim", format!("bake-off failed: {e}")),
        }
        return;
    }

    println!(
        "sim_report: discontinuity+sequential prefetcher vs no-prefetch baseline \
         (CMP-{}, bypass-L2-until-useful, warm={} measure={})",
        SystemConfig::cmp4().n_cores,
        lengths.warm,
        lengths.measure
    );
    println!(
        "{:<8} {:<6} {:>8} {:>6} {:>6} {:>9} {:>9}   {:>18} {:>9}",
        "workload",
        "comp",
        "iss/KI",
        "acc%",
        "late%",
        "useless%",
        "l2ins/KI",
        "L1I MPI base→pf",
        "cover%"
    );

    for (ws, pair) in workload_sets.iter().zip(specs.chunks(2)) {
        let base = resolve(&pair[0]);
        let pf = resolve(&pair[1]);
        let instructions = pf.instructions.max(1) as f64;

        // Per-component counters from the on-disk artifact, not memory.
        let components =
            read_pf_summary(&sink.dir_for(&pair[1].cache_key())).unwrap_or_else(|e| die("sim", e));

        let coverage = if base.l1i_mpi > 0.0 {
            (1.0 - pf.l1i_mpi / base.l1i_mpi) * 100.0
        } else {
            0.0
        };
        let mut first = true;
        for (component, counters) in &components {
            if *component == PfComponent::Target || counters.total() == 0 {
                continue;
            }
            let (name, tail) = if first {
                (
                    ws.name(),
                    format!(
                        "{:>8.4}→{:<7.4} {:>8.1}",
                        base.l1i_mpi, pf.l1i_mpi, coverage
                    ),
                )
            } else {
                (String::new(), String::new())
            };
            println!(
                "{:<8} {}",
                name,
                component_row(*component, counters, instructions, &tail)
            );
            first = false;
        }
    }
}

/// One formatted component row; `tail` carries the workload-level columns
/// printed only on the first row of each workload block.
fn component_row(
    component: PfComponent,
    counters: &ComponentCounters,
    instructions: f64,
    tail: &str,
) -> String {
    let issued = counters.get(PfEventKind::Issued);
    let first_uses = counters.first_uses();
    let late = counters.get(PfEventKind::FirstUseLate);
    let useless = counters.get(PfEventKind::EvictUnused);
    let l2_installs = counters.get(PfEventKind::L2Install);
    let pct = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 * 100.0 / den as f64
        }
    };
    format!(
        "{:<6} {:>8.2} {:>6.1} {:>6.1} {:>9.1} {:>9.2}   {}",
        component.name(),
        issued as f64 * 1_000.0 / instructions,
        pct(first_uses, issued),
        pct(late, first_uses),
        pct(useless, issued),
        l2_installs as f64 * 1_000.0 / instructions,
        tail,
    )
}

// -------------------------------------------------------------- sweep

fn sweep(mut args: Args) {
    let mut opts = ReportOptions::from_env();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--stable" => opts.stable = true,
            "--runlog" => opts.runlog = args.value("--runlog").into(),
            "--cache" => opts.cache_dir = args.value("--cache").into(),
            "--telemetry" => opts.telemetry_dir = args.value("--telemetry").into(),
            other => args.fail(&format!("unknown argument `{other}`")),
        }
    }
    match render_report(&opts) {
        Ok(text) => print!("{text}"),
        Err(e) => die("sweep", e),
    }
}

// ---------------------------------------------------------------- ops

fn ops(mut args: Args) {
    let mut spans: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--spans" => spans = Some(args.value("--spans").into()),
            other => args.fail(&format!("unknown argument `{other}`")),
        }
    }
    let Some(path) = spans else {
        args.fail("nothing to report: pass --spans");
    };
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| die("ops", format!("cannot read {}: {e}", path.display())));
    match span_table(&text) {
        Ok(table) => print!("{table}"),
        Err(e) => die("ops", format!("{}: {e}", path.display())),
    }
}

/// Folds a Chrome-trace span file into per-name totals: spans, total and
/// maximum wall micros, over the events the shared validator returns.
fn span_table(text: &str) -> Result<String, String> {
    let events = chrome::validate(text)?;
    // name -> (spans, total duration micros, max duration micros)
    let mut by_name: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for event in &events {
        if event.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let name = event
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let dur = event.get("dur").and_then(Json::as_num).unwrap_or(0.0) as u64;
        let entry = by_name.entry(name).or_insert((0, 0, 0));
        entry.0 += 1;
        entry.1 += dur;
        entry.2 = entry.2.max(dur);
    }
    let rows: Vec<Vec<String>> = by_name
        .iter()
        .map(|(name, (n, total, max))| {
            vec![
                name.clone(),
                n.to_string(),
                total.to_string(),
                (total / (*n).max(1)).to_string(),
                max.to_string(),
            ]
        })
        .collect();
    let mut out = String::from("== spans ==\n");
    if rows.is_empty() {
        out.push_str("(no complete spans in the trace)\n");
    } else {
        out.push_str(&table_string(
            &["span", "count", "total_us", "mean_us", "max_us"],
            &rows,
        ));
    }
    Ok(out)
}

// -------------------------------------------------------------- check

fn check(mut args: Args) {
    // A file argument never becomes the root; when only files are given
    // the directory scan is skipped entirely.
    let mut root: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();
    while let Some(arg) = args.next() {
        if arg.starts_with('-') {
            args.fail(&format!("unknown argument `{arg}`"));
        }
        let path = PathBuf::from(arg);
        if path.is_file() {
            files.push(path);
        } else if root.is_none() {
            root = Some(path);
        } else {
            args.fail("more than one ROOT directory given");
        }
    }
    if root.is_none() && files.is_empty() {
        root = Some(ReportOptions::from_env().telemetry_dir);
    }

    let mut failed = 0usize;
    let mut checked = 0usize;
    let mut verdict = |name: &str, outcome: Result<String, String>| {
        checked += 1;
        match outcome {
            Ok(detail) => println!("ok   {name}  {detail}"),
            Err(reason) => {
                println!("FAIL {name}  {reason}");
                failed += 1;
            }
        }
    };

    for file in &files {
        let outcome = read_artifact(file, chrome::validate)
            .map(|events| format!("{} trace events", events.len()));
        verdict(&file.display().to_string(), outcome);
    }

    if let Some(root) = root {
        let entries = std::fs::read_dir(&root)
            .unwrap_or_else(|e| die("check", format!("cannot read {}: {e}", root.display())));
        let mut dirs: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.join(META_FILE).is_file())
            .collect();
        dirs.sort();
        if dirs.is_empty() {
            die(
                "check",
                format!(
                    "no artifact directories under {} (run a sweep with --telemetry first)",
                    root.display()
                ),
            );
        }
        for dir in &dirs {
            let name = dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| dir.display().to_string());
            verdict(&name, check_dir(dir));
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

/// Validates one artifact directory with the exporters' own parsers;
/// returns a one-line pass description.
///
/// * `events.jsonl`   — schema, then the per-core lifecycle state machine;
/// * `trace.json`     — the shared Chrome trace_event validator;
/// * `series.tsv`     — interval time-series parse;
/// * `pf_summary.tsv` — per-component counters, cross-checked against the
///   issue count recovered from the event stream.
fn check_dir(dir: &Path) -> Result<String, String> {
    let meta = read_meta(dir).ok_or_else(|| format!("{META_FILE}: missing or malformed"))?;
    let meta_get = |key: &str| -> Option<&str> {
        meta.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    };

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

    let trace_events = read_artifact(&dir.join("trace.json"), chrome::validate)?.len();
    let samples = read_artifact(&dir.join("series.tsv"), parse_series_tsv)?;

    // The summary counts every event the tracer saw; the JSONL stream
    // loses events only to per-core buffer overflow, so with nothing
    // dropped the counts agree exactly and with drops the summary can
    // only be larger.
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

// -------------------------------------------------------------- trace

fn trace(mut args: Args) {
    let mut file: Option<String> = None;
    let mut workload: Option<Workload> = None;
    while let Some(arg) = args.next() {
        let w = match arg.as_str() {
            "--trace" => {
                if file.replace(args.value("--trace")).is_some() {
                    args.fail("more than one --trace FILE given");
                }
                continue;
            }
            "db" => Workload::Db,
            "tpcw" => Workload::TpcW,
            "japp" => Workload::JApp,
            "web" => Workload::Web,
            other => args.fail(&format!("unknown argument `{other}`")),
        };
        if workload.replace(w).is_some() {
            args.fail("more than one workload given");
        }
    }
    match (file, workload) {
        (Some(_), Some(_)) => args.fail("--trace takes no workload"),
        (Some(path), None) => {
            if let Err(e) = trace_file_stats(&path) {
                die("trace", format!("{path}: {e}"));
            }
        }
        (None, w) => live_walker_stats(w.unwrap_or(Workload::JApp)),
    }
}

/// Decodes one captured trace file and prints its statistics.
fn trace_file_stats(path: &str) -> Result<(), String> {
    let file = File::open(path).map_err(|e| e.to_string())?;
    let file_bytes = file.metadata().map(|m| m.len()).unwrap_or(0);
    let mut reader = TraceReader::open(BufReader::new(file)).map_err(|e| e.to_string())?;

    println!("trace {path}");
    println!("  meta        {}", reader.meta());
    println!("  core        {}", reader.core_id());
    println!(
        "  blocks      {} ({} ops indexed)",
        reader.block_count(),
        reader.total_ops()
    );

    let ls = LineSize::default();
    let mut ops = 0u64;
    let mut counts: HashMap<String, u64> = HashMap::new();
    let mut code_lines = HashSet::new();
    let mut data_lines = HashSet::new();
    while let Some(op) = reader.next_op().map_err(|e| e.to_string())? {
        ops += 1;
        code_lines.insert(op.pc.line(ls));
        let kind = match op.kind {
            OpKind::Other => "Other".to_string(),
            OpKind::Load { addr } => {
                data_lines.insert(addr.line(ls));
                "Load".to_string()
            }
            OpKind::Store { addr } => {
                data_lines.insert(addr.line(ls));
                "Store".to_string()
            }
            OpKind::Cti { class, taken, .. } => format!("Cti {class:?} taken={taken}"),
        };
        *counts.entry(kind).or_insert(0) += 1;
    }
    println!("  decoded     {ops} ops");
    if ops > 0 && file_bytes > 0 {
        println!(
            "  size        {} bytes ({:.2} bytes/op)",
            file_bytes,
            file_bytes as f64 / ops as f64
        );
    }
    // Decode throughput, both ways through the same file: per op, as a
    // cohort window or a detached replay reads it, and in one pass into a
    // whole-trace arena (`decode_all_into`). The two rates are close by
    // construction (same codec underneath).
    if ops > 0 {
        reader.rewind().map_err(|e| e.to_string())?;
        let t0 = std::time::Instant::now();
        let mut buffered = 0u64;
        while reader.next_op().map_err(|e| e.to_string())?.is_some() {
            buffered += 1;
        }
        let buffered_s = t0.elapsed().as_secs_f64();

        // Pre-fault the arena allocation (resize touches every page) so the
        // timing compares decode paths, not first-touch page faults.
        let filler = TraceOp {
            pc: Addr(0),
            kind: OpKind::Other,
        };
        let mut arena = vec![filler; ops as usize];
        arena.clear();
        let t0 = std::time::Instant::now();
        reader
            .decode_all_into(&mut arena)
            .map_err(|e| e.to_string())?;
        let arena_s = t0.elapsed().as_secs_f64();

        let mips = |n: u64, s: f64| if s > 0.0 { n as f64 / 1e6 / s } else { 0.0 };
        println!(
            "  dec_mips    {:.1} buffered (per-op), {:.1} zero-copy (arena)",
            mips(buffered, buffered_s),
            mips(arena.len() as u64, arena_s),
        );
    }
    println!("  kind mix:");
    let mut keys: Vec<_> = counts.iter().collect();
    keys.sort();
    for (k, v) in keys {
        println!(
            "    {:<28} {:>10}  ({:>6.2}%)",
            k,
            v,
            *v as f64 / ops as f64 * 100.0
        );
    }
    for (name, lines) in [("code", code_lines.len()), ("data", data_lines.len())] {
        println!(
            "  {name} footprint  {lines} lines ({} KB)",
            lines * 64 / 1024
        );
    }
    Ok(())
}

/// Walks a synthetic workload live for 2M instructions and prints its
/// control-transfer rates, transaction length, stack depth and footprint.
fn live_walker_stats(w: Workload) {
    let prog = w.build_program(0x5EED_0001);
    let mut walker = TraceWalker::new(&prog, w.profile(), 0, 0x5EED_1001);
    let n = 2_000_000u64;
    let ls = LineSize::default();

    let mut counts: HashMap<String, u64> = HashMap::new();
    let mut lines = HashSet::new();
    let mut dispatches = 0u64; // jump while stack empty
    let mut depth_sum = 0u64;
    let mut max_depth = 0usize;
    for _ in 0..n {
        let was_empty = walker.stack_depth() == 0;
        let op = walker.next_op();
        lines.insert(op.pc.line(ls));
        depth_sum += walker.stack_depth() as u64;
        max_depth = max_depth.max(walker.stack_depth());
        if let OpKind::Cti { class, taken, .. } = op.kind {
            *counts
                .entry(format!("{class:?} taken={taken}"))
                .or_insert(0) += 1;
            if class == CtiClass::Jump && was_empty {
                dispatches += 1;
            }
        }
    }
    println!("workload {} over {}k instrs:", w.name(), n / 1000);
    let mut keys: Vec<_> = counts.iter().collect();
    keys.sort();
    for (k, v) in keys {
        println!("  {:<28} {:>8.2}/1k", k, *v as f64 / n as f64 * 1000.0);
    }
    println!(
        "  dispatch jumps               {:>8.2}/1k (mean txn {} instrs)",
        dispatches as f64 / n as f64 * 1000.0,
        n.checked_div(dispatches).unwrap_or(0)
    );
    println!(
        "  mean stack depth {:.1}, max {}",
        depth_sum as f64 / n as f64,
        max_depth
    );
    println!(
        "  touched {} lines ({} KB)",
        lines.len(),
        lines.len() * 64 / 1024
    );
}
