//! Regenerates every figure in one process through the shared scheduler.
//!
//! All figures' runs are collected up front, deduplicated globally by cache
//! key, executed once across a worker pool (`--jobs N`), then each figure
//! is rendered and teed into `results/figNN.txt`. Output is byte-identical
//! for any worker count. A failing figure no longer aborts the sweep: every
//! figure runs, a pass/fail summary is printed at the end, and only then
//! does the process exit nonzero.
//!
//! The incremental manifest (`results/figures/manifest.tsv`) skips figures
//! whose input runs and renderer are unchanged since their output file was
//! written; `--force` bypasses it.

use std::path::PathBuf;
use std::process::exit;

use ipsim_experiments::figures;
use ipsim_harness::{run_sweep, Figure, HarnessArgs, SweepOptions};

fn main() {
    ipsim_signal::install();
    let args = HarnessArgs::from_env_or_exit();
    let all = figures::all();
    let selected: Vec<Figure> = match &args.figures {
        None => all,
        Some(names) => {
            let picked: Vec<Figure> = all
                .iter()
                .filter(|f| names.iter().any(|n| n == f.name))
                .copied()
                .collect();
            let known: Vec<&str> = all.iter().map(|f| f.name).collect();
            if let Some(bad) = names.iter().find(|n| !known.contains(&n.as_str())) {
                eprintln!("unknown figure `{bad}` (known: {})", known.join(", "));
                exit(2);
            }
            picked
        }
    };

    let mut opts = SweepOptions::new(args.lengths, args.workers);
    opts.results_dir = Some(PathBuf::from("results"));
    opts.traces = args.traces;
    opts.manifest = Some(PathBuf::from(ipsim_harness::manifest::DEFAULT_MANIFEST));
    opts.force = args.force;
    if args.telemetry {
        opts.telemetry = Some(ipsim_telemetry::TelemetryConfig::default());
    }
    let report = run_sweep(&selected, &opts);

    for fig in &report.figures {
        println!(
            "==> {}{}",
            fig.name,
            if fig.skipped { " (unchanged)" } else { "" }
        );
        match &fig.outcome {
            Ok(text) => println!("{text}"),
            Err(e) => println!("FAILED: {e}\n"),
        }
    }

    println!(
        "{} figures ({} rendered, {} unchanged) · {} runs ({} unique: {} cached, {} simulated{}) · {:.1}s with {} worker{}",
        report.figures.len(),
        report.figures.len() - report.figures_skipped,
        report.figures_skipped,
        report.total_jobs,
        report.unique_jobs,
        report.cache_hits,
        report.cache_misses,
        if report.quarantined > 0 {
            format!(", {} corrupt cache entries quarantined", report.quarantined)
        } else {
            String::new()
        },
        report.wall.as_secs_f64(),
        args.workers,
        if args.workers == 1 { "" } else { "s" },
    );
    if report.telemetry_written > 0 {
        println!(
            "telemetry: {} artifact director{} written under results/telemetry/",
            report.telemetry_written,
            if report.telemetry_written == 1 {
                "y"
            } else {
                "ies"
            },
        );
    }
    if report.traces_captured + report.traces_replayed + report.traces_quarantined > 0 {
        println!(
            "traces: {} stream{} captured · {} run{} replayed{}{}",
            report.traces_captured,
            if report.traces_captured == 1 { "" } else { "s" },
            report.traces_replayed,
            if report.traces_replayed == 1 { "" } else { "s" },
            if report.streams_decoded > 0 {
                format!(
                    " · {} stream{} decoded, window peak {} ops",
                    report.streams_decoded,
                    if report.streams_decoded == 1 { "" } else { "s" },
                    report.window_peak_ops
                )
            } else {
                String::new()
            },
            if report.traces_quarantined > 0 {
                format!(
                    " · {} corrupt trace file(s) quarantined",
                    report.traces_quarantined
                )
            } else {
                String::new()
            },
        );
    }
    for fig in &report.figures {
        println!(
            "  {}  {} — {}",
            if fig.outcome.is_err() {
                "FAIL"
            } else if fig.skipped {
                "skip"
            } else {
                "ok  "
            },
            fig.name,
            fig.title,
        );
    }
    if report.interrupted {
        eprintln!(
            "interrupted: {} completed runs flushed to the runlog; rerun to resume from cache",
            report.runs_recorded,
        );
        exit(130);
    }
    if report.all_ok() {
        println!("all figures written to results/");
    } else {
        let failed = report.figures.iter().filter(|f| f.outcome.is_err()).count();
        eprintln!("{failed} figure(s) failed");
        exit(1);
    }
}
