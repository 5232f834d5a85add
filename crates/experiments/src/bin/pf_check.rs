//! Calibration snapshot for the prefetchers: miss-rate reduction,
//! accuracy, pollution and speedup for each scheme on the 4-way CMP.
//! Development tool; the paper figures have dedicated binaries.

use ipsim_cache::InstallPolicy;
use ipsim_core::PrefetcherKind;
use ipsim_cpu::{SystemBuilder, WorkloadSet};
use ipsim_experiments::{pct, print_table, run, tool_args, RunLengths};
use ipsim_prefetch::{Scheme, ZooPlan};
use ipsim_trace::Workload;

const USAGE: &str = "\
usage: pf_check [db|tpcw|japp|web] [--quick] [--prefetcher SPEC]

  db|tpcw|japp|web     workload to check (default: japp)
  --quick              ~5x shorter warm-up/measurement windows
  --prefetcher SPEC    check one registry scheme instead of the paper
                       set; SPEC is a registry spec like `disc:ahead=2`,
                       `mana` or `stream:degree=8` (run via a zoo of one)
  --help               this text
";

fn main() {
    let mut lengths = RunLengths::full();
    let mut workload = Workload::JApp;
    let mut contenders: Vec<Scheme> = PrefetcherKind::PAPER_SCHEMES.map(Scheme::Single).to_vec();
    let mut args = tool_args(USAGE).into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => lengths = RunLengths::quick(),
            "db" => workload = Workload::Db,
            "tpcw" => workload = Workload::TpcW,
            "japp" => workload = Workload::JApp,
            "web" => workload = Workload::Web,
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
    let ws = WorkloadSet::homogeneous(workload);
    println!("workload: {}", ws.name());

    let base = run(SystemBuilder::cmp4(), &ws, lengths);
    println!(
        "baseline: L1I {}  L2I {}  L2D {}  IPC {:.3}\n",
        pct(base.l1i_miss_per_instr()),
        pct(base.l2_instr_miss_per_instr()),
        pct(base.l2_data_miss_per_instr()),
        base.ipc()
    );

    let mut rows = Vec::new();
    for scheme in &contenders {
        for policy in [
            InstallPolicy::InstallBoth,
            InstallPolicy::BypassL2UntilUseful,
        ] {
            let builder = SystemBuilder::cmp4().scheme(scheme.clone());
            let m = run(builder.install_policy(policy), &ws, lengths);
            rows.push(vec![
                scheme.label(),
                match policy {
                    InstallPolicy::InstallBoth => "install".to_string(),
                    InstallPolicy::BypassL2UntilUseful => "bypass".to_string(),
                },
                format!("{:.2}", m.l1i_miss_ratio_vs(&base)),
                format!("{:.2}", m.l2_instr_miss_ratio_vs(&base)),
                format!("{:.2}", m.l2_data_miss_ratio_vs(&base)),
                format!("{:.0}%", m.prefetch_accuracy() * 100.0),
                format!("{:.3}", m.speedup_over(&base)),
            ]);
        }
    }
    print_table(
        &[
            "scheme",
            "policy",
            "L1I ratio",
            "L2I ratio",
            "L2D ratio",
            "acc",
            "speedup",
        ],
        &rows,
    );
}
