//! `ipsim` — command-line front end for the instruction-prefetching CMP
//! simulator.
//!
//! ```text
//! ipsim run       --workload db --cores 4 --prefetcher disc:ahead=2 --policy bypass
//! ipsim compare   --workload japp --policy install
//! ipsim breakdown --workload db --prefetcher disc
//! ipsim info
//! ```
//!
//! `--help` after any command prints the usage and exits 0; an option the
//! command does not read is a usage error (exit 2), like an unknown one.

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
    --policy <install|bypass>             L2 install policy of the prefetching runs
                                          (default: bypass; breakdown: only with --prefetcher)

OPTIONS (run / breakdown):
    --prefetcher <SCHEME>                 a registry spec such as `disc:ahead=2`, or
                                          `zoo:<spec>+<spec>...` (see `ipsim info`; default:
                                          disc for run, no prefetching for breakdown)

`run` adds the prefetch pipeline's counters per 1k instructions; `breakdown
--prefetcher` adds the remaining L1I misses per 1k instructions.
";

/// Every option `ipsim` has; `compare` reads all but the last.
const OPTIONS: [&str; 6] = [
    "--workload",
    "--cores",
    "--warm",
    "--measure",
    "--policy",
    "--prefetcher",
];

/// The options each command reads; any other is a usage error.
fn command_options(command: &str) -> Option<&'static [&'static str]> {
    match command {
        "run" | "breakdown" => Some(&OPTIONS),
        // `compare` runs a fixed scheme list.
        "compare" => Some(&OPTIONS[..5]),
        "info" => Some(&[]),
        _ => None,
    }
}

#[derive(Debug)]
struct Options {
    workload: WorkloadSet,
    cores: u32,
    warm: u64,
    measure: u64,
    /// `None`: the command's default (disc for `run`, none for `breakdown`).
    prefetcher: Option<Scheme>,
    /// `None`: bypass for every prefetching run.
    policy: Option<InstallPolicy>,
}

impl Options {
    fn parse(command: &str, accepted: &[&str], args: &[String]) -> Result<Options, String> {
        let mut opts = Options {
            workload: WorkloadSet::homogeneous(Workload::Db),
            cores: 4,
            warm: 2_000_000,
            measure: 5_000_000,
            prefetcher: None,
            policy: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !accepted.contains(&flag.as_str()) {
                return Err(if OPTIONS.contains(&flag.as_str()) {
                    format!("`ipsim {command}` takes no {flag}")
                } else {
                    format!("unknown option '{flag}'")
                });
            }
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
                    opts.prefetcher =
                        Some(Scheme::parse(&value(&mut it)?).map_err(|e| e.to_string())?);
                }
                "--policy" => {
                    opts.policy = Some(match value(&mut it)?.as_str() {
                        "install" => InstallPolicy::InstallBoth,
                        "bypass" => InstallPolicy::BypassL2UntilUseful,
                        other => return Err(format!("unknown policy '{other}'")),
                    });
                }
                _ => unreachable!("every accepted option is matched"),
            }
        }
        if opts.cores != 1 && opts.cores != 4 {
            return Err("cores must be 1 or 4 (the paper's design points)".to_string());
        }
        if opts.policy.is_some() && opts.prefetcher.is_none() && command == "breakdown" {
            return Err("`ipsim breakdown` takes --policy only with --prefetcher".to_string());
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

    /// The install policy of the prefetching runs.
    fn prefetch_policy(&self) -> InstallPolicy {
        self.policy.unwrap_or(InstallPolicy::BypassL2UntilUseful)
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

/// The prefetch pipeline per 1k instructions, from generation through the
/// recent-fetch filter, queue, cache probes and MSHRs to first use.
fn print_pipeline(m: &SystemMetrics) {
    let pf = m.prefetch();
    let ki = m.instructions() as f64 / 1000.0;
    println!(
        "  per 1k instr: generated {:.1} filtered {:.1} queued {:.1} probes {:.1} \
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
}

fn cmd_run(opts: &Options) {
    let scheme = opts
        .prefetcher
        .clone()
        .unwrap_or(Scheme::Single(PrefetcherKind::discontinuity_default()));
    let policy = opts.prefetch_policy();
    println!(
        "{} on {} core(s), {} / bypassing={}",
        opts.workload.name(),
        opts.cores,
        scheme.label(),
        policy == InstallPolicy::BypassL2UntilUseful,
    );
    let base = opts.simulate(Scheme::default(), InstallPolicy::InstallBoth);
    print_metrics("no prefetch", &base, None);
    if scheme != Scheme::default() {
        let m = opts.simulate(scheme.clone(), policy);
        print_metrics(&scheme.label(), &m, Some(&base));
        print_pipeline(&m);
    }
}

fn cmd_compare(opts: &Options) {
    let policy = opts.prefetch_policy();
    println!(
        "all schemes, {} on {} core(s), {} policy",
        opts.workload.name(),
        opts.cores,
        match policy {
            InstallPolicy::InstallBoth => "install",
            InstallPolicy::BypassL2UntilUseful => "bypass",
        },
    );
    let base = opts.simulate(Scheme::default(), InstallPolicy::InstallBoth);
    print_metrics("no prefetch", &base, None);
    for text in [
        "nl:mode=0",
        "nl:mode=1",
        "nl",
        "nnl",
        "lookahead",
        "wrong_path",
        "target:table_entries=8192",
        "markov",
        "disc:ahead=2",
        "disc",
    ] {
        let scheme = Scheme::parse(text).expect("registry spec");
        let m = opts.simulate(scheme.clone(), policy);
        print_metrics(&scheme.label(), &m, Some(&base));
    }
}

fn cmd_breakdown(opts: &Options) {
    let m = match &opts.prefetcher {
        None => {
            println!(
                "miss breakdown, {} on {} core(s), no prefetching",
                opts.workload.name(),
                opts.cores
            );
            opts.simulate(Scheme::default(), InstallPolicy::InstallBoth)
        }
        Some(scheme) => {
            let policy = opts.prefetch_policy();
            println!(
                "miss breakdown, {} on {} core(s), {} / bypassing={}",
                opts.workload.name(),
                opts.cores,
                scheme.label(),
                policy == InstallPolicy::BypassL2UntilUseful,
            );
            opts.simulate(scheme.clone(), policy)
        }
    };
    // With a prefetcher, the misses that remain per 1k instructions.
    let per_ki = opts.prefetcher.is_some();
    let ki = m.instructions() as f64 / 1000.0;
    let l1i = m.l1i_miss_breakdown();
    let l2i = m.l2_instr_miss_breakdown();
    print!("{:<18} {:>8} {:>8}", "category", "L1I", "L2I");
    if per_ki {
        print!(" {:>8}", "L1I/1k");
    }
    println!();
    for cat in MissCategory::ALL {
        print!(
            "{:<18} {:>7.1}% {:>7.1}%",
            cat.label(),
            l1i.fraction(cat) * 100.0,
            l2i.fraction(cat) * 100.0,
        );
        if per_ki {
            print!(" {:>8.2}", l1i[cat] as f64 / ki);
        }
        println!();
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
    let Some((command, rest)) = args.split_first() else {
        return usage_error("missing command");
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some(accepted) = command_options(command) else {
        return usage_error(&format!("unknown command '{command}'"));
    };
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match Options::parse(command, accepted, rest) {
        Ok(opts) => opts,
        Err(e) => return usage_error(&e),
    };
    match command.as_str() {
        "run" => cmd_run(&opts),
        "compare" => cmd_compare(&opts),
        "breakdown" => cmd_breakdown(&opts),
        _ => cmd_info(),
    }
    ExitCode::SUCCESS
}

/// Prints `message` and the usage to stderr; exit status 2.
fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}\n");
    eprint!("{USAGE}");
    ExitCode::from(2)
}
