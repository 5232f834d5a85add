//! `sim_report`: per-workload prefetcher diagnosis from telemetry
//! artifacts.
//!
//! Runs the paper's flagship configuration (CMP-4, discontinuity+sequential
//! prefetcher, bypass-L2-until-useful install policy) against a no-prefetch
//! baseline for each of the four commercial workloads plus the mixed
//! schedule, with telemetry enabled. Every run writes its artifact
//! directory through the harness pipeline; the report is then built by
//! *reading the artifacts back* — the per-component accuracy, coverage and
//! timeliness numbers come from `pf_summary.tsv`, not from in-process
//! state, so the binary doubles as an end-to-end check of the artifact
//! pipeline.
//!
//! Columns, per workload and prefetch component (`seq` = next-N-line,
//! `disc` = discontinuity table):
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

use std::process::exit;

use ipsim_cache::InstallPolicy;
use ipsim_core::PrefetcherKind;
use ipsim_cpu::WorkloadSet;
use ipsim_harness::pool;
use ipsim_harness::progress::Progress;
use ipsim_harness::telemetry::read_pf_summary;
use ipsim_harness::{
    ProgressMode, RunCache, RunLengths, RunSpec, Summary, TelemetrySink, TraceStore,
};
use ipsim_telemetry::{ComponentCounters, PfComponent, PfEventKind, TelemetryConfig};
use ipsim_types::SystemConfig;

const USAGE: &str = "\
usage: sim_report [--bakeoff] [--quick | --smoke] [--jobs N]

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

fn parse_args() -> (RunLengths, usize, bool) {
    let mut lengths = RunLengths::full();
    let mut workers = ipsim_harness::args::default_workers();
    let mut bakeoff = false;
    let mut args = std::env::args().skip(1);
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
            "--jobs" | "-j" => {
                let v = args.next().unwrap_or_default();
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => workers = n,
                    _ => {
                        eprintln!("--jobs needs a positive integer\n\n{USAGE}");
                        exit(2);
                    }
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => {
                eprintln!("unknown argument `{other}`\n\n{USAGE}");
                exit(2);
            }
        }
    }
    (lengths, workers, bakeoff)
}

fn main() {
    let (lengths, workers, bakeoff) = parse_args();
    let workload_sets: Vec<WorkloadSet> = ipsim_trace::Workload::ALL
        .iter()
        .map(|w| WorkloadSet::homogeneous(*w))
        .chain(std::iter::once(WorkloadSet::mixed()))
        .collect();

    // One baseline and one flagship-prefetcher spec per workload set — or
    // the bake-off sweep (baseline + full-zoo run per workload).
    let mut specs: Vec<RunSpec> = Vec::new();
    if bakeoff {
        specs = ipsim_experiments::bakeoff::bakeoff_specs(lengths);
    } else {
        for ws in &workload_sets {
            let base = RunSpec::new(SystemConfig::cmp4(), ws.clone(), lengths);
            specs.push(base.clone());
            specs.push(
                base.prefetcher(PrefetcherKind::discontinuity_default())
                    .policy(InstallPolicy::BypassL2UntilUseful),
            );
        }
    }

    let cache = RunCache::from_env();
    let traces = TraceStore::from_env();
    let sink = TelemetrySink::from_env(TelemetryConfig::default());
    let progress = Progress::new(ProgressMode::Auto, specs.len());
    let report = pool::execute(&specs, workers, &cache, &traces, Some(&sink), &progress);
    progress.finish();

    let resolve = |spec: &RunSpec| -> Summary {
        match report.results.get(&spec.cache_key()) {
            Some(Ok(summary)) => summary.clone(),
            Some(Err(e)) => {
                eprintln!("run `{}` failed: {e}", spec.label());
                exit(1);
            }
            None => unreachable!("every spec was scheduled"),
        }
    };

    if bakeoff {
        match ipsim_experiments::bakeoff::render_bakeoff(&sink, &specs, resolve) {
            Ok(table) => {
                print!("{table}");
                return;
            }
            Err(e) => {
                eprintln!("bake-off failed: {e}");
                exit(1);
            }
        }
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

    for (i, ws) in workload_sets.iter().enumerate() {
        let base = resolve(&specs[2 * i]);
        let pf_spec = &specs[2 * i + 1];
        let pf = resolve(pf_spec);
        let instructions = pf.instructions.max(1) as f64;

        // Per-component counters from the on-disk artifact, not memory.
        let components = match read_pf_summary(&sink.dir_for(&pf_spec.cache_key())) {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!("{e}");
                exit(1);
            }
        };

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
