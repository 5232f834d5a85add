//! The serving daemon: binds the v1 API, executes jobs until a signal
//! (SIGINT/SIGTERM) begins a graceful drain.

use std::time::Duration;

use ipsim_serve::{start, ServeConfig, Service};

const USAGE: &str = "\
usage: ipsim_serve [options]

  --bind ADDR       listen address (default 127.0.0.1:7791)
  --dir DIR         serve state dir: journal + runlog (default results/serve)
  --cache DIR       run-cache dir shared with the batch CLI (default results/cache)
  --traces DIR      trace-store dir; `none` disables (default results/traces)
  --telemetry DIR   collect per-run telemetry artifacts under DIR (default off)
  --workers N       job-executing worker threads (default: half the cores)
  --max-queue N     queued-job bound before 429 (default 64)
  --no-sync         skip the per-append journal fsync (benchmarks only)
  --help            this text

Signals: first SIGINT/SIGTERM drains (finish in-flight runs, keep queued
jobs journaled for the next boot); a second one kills the process.
";

fn main() {
    let mut bind = "127.0.0.1:7791".to_string();
    let mut config = ServeConfig::default_at("results/serve");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{name} needs a value\n\n{USAGE}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--bind" => bind = value("--bind"),
            "--dir" => config.dir = value("--dir").into(),
            "--cache" => config.cache_dir = value("--cache").into(),
            "--traces" => {
                let dir = value("--traces");
                config.trace_dir = (dir != "none").then(|| dir.into());
            }
            "--telemetry" => config.telemetry_root = Some(value("--telemetry").into()),
            "--workers" => config.workers = parse(&value("--workers"), "--workers"),
            "--max-queue" => config.max_queue = parse(&value("--max-queue"), "--max-queue"),
            "--no-sync" => config.sync_journal = false,
            _ => {
                eprintln!("unknown argument `{arg}`\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    ipsim_signal::install();
    let service = match Service::open(config) {
        Ok(service) => service,
        Err(e) => {
            eprintln!("ipsim_serve: {e}");
            std::process::exit(1);
        }
    };
    let recovered = service
        .stats
        .recovered
        .load(std::sync::atomic::Ordering::Relaxed);
    let handle = match start(service, &bind) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("ipsim_serve: bind {bind}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "ipsim_serve: listening on {} ({} workers, {} jobs recovered)",
        handle.addr,
        handle.service().config.workers,
        recovered
    );

    while !ipsim_signal::triggered() {
        std::thread::sleep(Duration::from_millis(100));
    }
    let queued = handle.service().queue_len();
    eprintln!("ipsim_serve: draining ({queued} queued jobs stay journaled)");
    let state_dir = handle.service().config.dir.clone();
    handle.join();
    // Export the operational span timeline next to the journal — the
    // same Chrome trace_event format the sim telemetry sink writes, so
    // `report check` validates it and one viewer merges both.
    let span_path = state_dir.join("spans.trace.json");
    match std::fs::File::create(&span_path) {
        Ok(mut file) => {
            if let Err(e) = ipsim_obs::spans().write_chrome_trace(&mut file) {
                eprintln!("warning: writing {}: {e}", span_path.display());
            } else {
                eprintln!("ipsim_serve: spans exported to {}", span_path.display());
            }
        }
        Err(e) => eprintln!("warning: creating {}: {e}", span_path.display()),
    }
    eprintln!("ipsim_serve: drained");
    std::process::exit(130);
}

fn parse<T: std::str::FromStr>(text: &str, flag: &str) -> T {
    text.parse().unwrap_or_else(|_| {
        eprintln!("bad value `{text}` for {flag}\n\n{USAGE}");
        std::process::exit(2);
    })
}
