//! `ipsim` — command-line front end for the instruction-prefetching CMP
//! simulator.
//!
//! ```text
//! ipsim run       --workload db --cores 4 --prefetcher disc:ahead=2 --policy bypass
//! ipsim compare   --workload japp
//! ipsim breakdown --workload db
//! ipsim info
//! ```

use std::process::ExitCode;

use ipsim::cache::InstallPolicy;
use ipsim::cpu::{SystemBuilder, SystemMetrics, WorkloadSet};
use ipsim::prefetch::PrefetcherKind;
use ipsim::trace::Workload;
use ipsim::types::{MissCategory, SystemConfig};
use ipsim::zoo::{registry, Scheme};

const USAGE: &str = "\
ipsim — instruction prefetching in chip multiprocessors (HPCA 2005 reproduction)

USAGE:
    ipsim <COMMAND> [OPTIONS]

COMMANDS:
    run        simulate one configuration and print its metrics
    compare    run every prefetching scheme on one workload
    breakdown  print the miss-category breakdown for one workload
    info       list workloads, the scheme registry and the default configuration

OPTIONS (run / compare / breakdown):
    --workload <db|tpcw|japp|web|mixed>   workload (default: db)
    --cores <1|4>                         core count (default: 4)
    --warm <N>                            warm-up instructions per core (default: 2000000)
    --measure <N>                         measured instructions per core (default: 5000000)

OPTIONS (run):
    --prefetcher <SCHEME>                 a registry spec such as `disc:ahead=2`, or
                                          `zoo:<spec>+<spec>...` (default: disc; see `ipsim info`)
    --policy <install|bypass>             L2 install policy (default: bypass)
";

#[derive(Debug)]
struct Options {
    workload: WorkloadSet,
    cores: u32,
    warm: u64,
    measure: u64,
    prefetcher: Scheme,
    policy: InstallPolicy,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options {
            workload: WorkloadSet::homogeneous(Workload::Db),
            cores: 4,
            warm: 2_000_000,
            measure: 5_000_000,
            prefetcher: Scheme::Single(PrefetcherKind::discontinuity_default()),
            policy: InstallPolicy::BypassL2UntilUseful,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = |it: &mut std::slice::Iter<'_, String>| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--workload" => {
                    opts.workload = match value(&mut it)?.as_str() {
                        "db" => WorkloadSet::homogeneous(Workload::Db),
                        "tpcw" => WorkloadSet::homogeneous(Workload::TpcW),
                        "japp" => WorkloadSet::homogeneous(Workload::JApp),
                        "web" => WorkloadSet::homogeneous(Workload::Web),
                        "mixed" => WorkloadSet::mixed(),
                        other => return Err(format!("unknown workload '{other}'")),
                    };
                }
                "--cores" => {
                    opts.cores = value(&mut it)?
                        .parse()
                        .map_err(|_| "cores must be a number".to_string())?;
                }
                "--warm" => {
                    opts.warm = value(&mut it)?
                        .parse()
                        .map_err(|_| "warm must be a number".to_string())?;
                }
                "--measure" => {
                    opts.measure = value(&mut it)?
                        .parse()
                        .map_err(|_| "measure must be a number".to_string())?;
                }
                "--prefetcher" => {
                    opts.prefetcher = Scheme::parse(&value(&mut it)?).map_err(|e| e.to_string())?;
                }
                "--policy" => {
                    opts.policy = match value(&mut it)?.as_str() {
                        "install" => InstallPolicy::InstallBoth,
                        "bypass" => InstallPolicy::BypassL2UntilUseful,
                        other => return Err(format!("unknown policy '{other}'")),
                    };
                }
                other => return Err(format!("unknown option '{other}'")),
            }
        }
        if opts.cores != 1 && opts.cores != 4 {
            return Err("cores must be 1 or 4 (the paper's design points)".to_string());
        }
        Ok(opts)
    }

    fn config(&self) -> SystemConfig {
        if self.cores == 1 {
            SystemConfig::single_core()
        } else {
            SystemConfig::cmp4()
        }
    }

    fn simulate(&self, scheme: Scheme, policy: InstallPolicy) -> SystemMetrics {
        let mut system = SystemBuilder::new(self.config())
            .scheme(scheme)
            .install_policy(policy)
            .build()
            .expect("the paper design points are valid configurations");
        system.run_workload(&self.workload, self.warm, self.measure)
    }
}

fn print_metrics(label: &str, m: &SystemMetrics, base: Option<&SystemMetrics>) {
    print!(
        "{label:<26} IPC {:>6.3}  L1I {:>5.2}%  L2I {:>6.3}%  L2D {:>6.3}%",
        m.ipc(),
        m.l1i_miss_per_instr() * 100.0,
        m.l2_instr_miss_per_instr() * 100.0,
        m.l2_data_miss_per_instr() * 100.0,
    );
    if m.prefetch().issued > 0 {
        print!("  acc {:>3.0}%", m.prefetch_accuracy() * 100.0);
    }
    if let Some(b) = base {
        print!("  speedup {:.3}x", m.speedup_over(b));
    }
    println!();
}

fn cmd_run(opts: &Options) {
    println!(
        "{} on {} core(s), {} / bypassing={}",
        opts.workload.name(),
        opts.cores,
        opts.prefetcher.label(),
        opts.policy == InstallPolicy::BypassL2UntilUseful,
    );
    let base = opts.simulate(Scheme::default(), InstallPolicy::InstallBoth);
    print_metrics("no prefetch", &base, None);
    if opts.prefetcher != Scheme::default() {
        let m = opts.simulate(opts.prefetcher.clone(), opts.policy);
        print_metrics(&opts.prefetcher.label(), &m, Some(&base));
    }
}

fn cmd_compare(opts: &Options) {
    println!(
        "all schemes, {} on {} core(s), bypass policy",
        opts.workload.name(),
        opts.cores
    );
    let base = opts.simulate(Scheme::default(), InstallPolicy::InstallBoth);
    print_metrics("no prefetch", &base, None);
    for text in [
        "nl:mode=1",
        "nl",
        "nnl",
        "wrong_path",
        "target:table_entries=8192",
        "markov",
        "disc:ahead=2",
        "disc",
    ] {
        let scheme = Scheme::parse(text).expect("registry spec");
        let m = opts.simulate(scheme.clone(), InstallPolicy::BypassL2UntilUseful);
        print_metrics(&scheme.label(), &m, Some(&base));
    }
}

fn cmd_breakdown(opts: &Options) {
    println!(
        "miss breakdown, {} on {} core(s), no prefetching",
        opts.workload.name(),
        opts.cores
    );
    let m = opts.simulate(Scheme::default(), InstallPolicy::InstallBoth);
    let l1i = m.l1i_miss_breakdown();
    let l2i = m.l2_instr_miss_breakdown();
    println!("{:<18} {:>8} {:>8}", "category", "L1I", "L2I");
    for cat in MissCategory::ALL {
        println!(
            "{:<18} {:>7.1}% {:>7.1}%",
            cat.label(),
            l1i.fraction(cat) * 100.0,
            l2i.fraction(cat) * 100.0,
        );
    }
    println!(
        "\ntotals: L1I {:.2}%/instr   L2I {:.3}%/instr",
        m.l1i_miss_per_instr() * 100.0,
        m.l2_instr_miss_per_instr() * 100.0
    );
}

fn cmd_info() {
    println!("workloads (synthetic, calibrated to the paper's published statistics):");
    for w in Workload::ALL {
        let p = w.profile();
        println!(
            "  {:<6} {:>6} functions, hot tier {:>4}, txn ~{} instrs",
            w.name(),
            p.n_functions,
            p.code_hot_fns,
            p.txn_len_mean as u64,
        );
    }
    println!("  Mixed  one application per core (4-way CMP only)");
    println!("\nprefetch schemes (--prefetcher name[:knob=value,...]; rivals only in zoo:a+b):");
    for def in registry() {
        println!("  {:<11} {}", def.name, def.doc);
        for k in def.knobs {
            let pow2 = if k.pow2 { ", power of two" } else { "" };
            println!(
                "    {}={} ({}..={}{pow2}) {}",
                k.name, k.default, k.min, k.max, k.doc
            );
        }
    }
    println!("\ndefault system (paper Section 5):");
    let c = SystemConfig::cmp4();
    println!(
        "  {} cores, 8-wide fetch / 3-wide issue / 64-entry ROB / 16-stage pipe",
        c.n_cores
    );
    println!(
        "  32KB 4-way L1I+L1D per core; shared {}MB {}-way L2; 25/400-cycle L2/memory",
        c.mem.l2.size_bytes() >> 20,
        c.mem.l2.assoc()
    );
    println!(
        "  off-chip bandwidth {:.1} B/cycle (20 GB/s at 3 GHz)",
        c.mem.offchip_bytes_per_cycle
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    match Options::parse(&args[1..]) {
        Ok(opts) => {
            match command {
                "run" => cmd_run(&opts),
                "compare" => cmd_compare(&opts),
                "breakdown" => cmd_breakdown(&opts),
                "info" => cmd_info(),
                "help" | "--help" | "-h" => print!("{USAGE}"),
                other => {
                    eprintln!("unknown command '{other}'\n");
                    eprint!("{USAGE}");
                    return ExitCode::from(2);
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
