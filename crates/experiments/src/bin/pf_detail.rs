//! Development tool: dumps the full prefetch-pipeline counters for each
//! scheme so calibration problems can be localised.

use ipsim_cache::InstallPolicy;
use ipsim_cpu::{SystemBuilder, WorkloadSet};
use ipsim_experiments::{pct, run, tool_args, RunLengths};
use ipsim_prefetch::{Scheme, ZooPlan};
use ipsim_trace::Workload;

const USAGE: &str = "\
usage: pf_detail [--bypass] [--prefetcher SPEC]

  --bypass             use the BypassL2UntilUseful install policy
  --prefetcher SPEC    dump one registry scheme instead of the default
                       trio; SPEC is a registry spec like `disc:ahead=2`,
                       `mana` or `pmap:depth=2` (run via a zoo of one)
  --help               this text
";

fn main() {
    let mut bypass = false;
    let mut contenders: Vec<Scheme> = ["nnl", "disc", "disc:min_confidence=2"]
        .map(|text| Scheme::parse(text).expect("valid scheme"))
        .to_vec();
    let mut args = tool_args(USAGE).into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bypass" => bypass = true,
            "--prefetcher" => {
                let spec = args.next().unwrap_or_default();
                match ZooPlan::parse(&spec) {
                    Ok(plan) => contenders = vec![Scheme::Zoo(plan)],
                    Err(e) => {
                        eprintln!("--prefetcher: {e}\n\n{USAGE}");
                        std::process::exit(2);
                    }
                }
            }
            _ => {
                eprintln!("unknown argument `{arg}`\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let lengths = RunLengths::quick();
    let ws = WorkloadSet::homogeneous(Workload::JApp);
    let base = run(SystemBuilder::cmp4(), &ws, lengths);
    {
        let bd = base.l1i_miss_breakdown();
        println!("baseline L1I misses by category (per 1k instr):");
        for (cat, count) in bd.iter() {
            if count > 0 {
                println!(
                    "  {:<18} {:.2}",
                    cat.label(),
                    count as f64 / base.instructions() as f64 * 1000.0
                );
            }
        }
        println!();
    }
    for scheme in &contenders {
        let label = scheme.label();
        let m = run(
            SystemBuilder::cmp4()
                .scheme(scheme.clone())
                .install_policy(if bypass {
                    InstallPolicy::BypassL2UntilUseful
                } else {
                    InstallPolicy::InstallBoth
                }),
            &ws,
            lengths,
        );
        let pf = m.prefetch();
        let ki = m.instructions() as f64 / 1000.0;
        println!("== {label} ==");
        println!(
            "L1I {} (ratio {:.2})  L2I ratio {:.2}  L2D ratio {:.2}  speedup {:.3}",
            pct(m.l1i_miss_per_instr()),
            m.l1i_miss_ratio_vs(&base),
            m.l2_instr_miss_ratio_vs(&base),
            m.l2_data_miss_ratio_vs(&base),
            m.speedup_over(&base)
        );
        println!(
            "per 1k instr: generated {:.1} filtered {:.1} queued {:.1} probes {:.1} \
             probe_hits {:.1} inflight {:.1} mshr_rej {:.1} issued {:.1} useful {:.1} late {:.1}",
            pf.generated as f64 / ki,
            pf.filtered_recent as f64 / ki,
            pf.queued as f64 / ki,
            pf.probes as f64 / ki,
            pf.probe_hits as f64 / ki,
            pf.inflight_hits as f64 / ki,
            pf.mshr_rejected as f64 / ki,
            pf.issued as f64 / ki,
            pf.useful as f64 / ki,
            pf.late as f64 / ki,
        );
        // Queue-level stats from core 0 are not exposed; approximate with
        // issued vs queued.
        println!(
            "accuracy {:.0}%  queue loss (queued-probes) {:.1}/1k",
            pf.accuracy() * 100.0,
            (pf.queued as i64 - pf.probes as i64) as f64 / ki,
        );
        let bd = m.l1i_miss_breakdown();
        println!("remaining L1I misses by category (per 1k instr):");
        for (cat, count) in bd.iter() {
            if count > 0 {
                println!(
                    "  {:<18} {:.2}",
                    cat.label(),
                    count as f64 / ki / 1000.0 * 1000.0
                );
            }
        }
        println!();
    }
}
