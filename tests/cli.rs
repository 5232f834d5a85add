//! The `ipsim` binary at its command line: `info` lists the scheme
//! registry, `run --prefetcher` takes scheme text, and a bad scheme exits
//! 2 with the registry's own error message. Every command answers
//! `--help` on stdout with exit 0, and an unknown option, or one the
//! command does not read, on stderr with exit 2.

use std::process::{Command, Output};

use ipsim::zoo::{registry, Scheme};

const COMMANDS: [&str; 4] = ["run", "compare", "breakdown", "info"];

/// Short single-core windows: every command finishes in well under a
/// second.
const SHORT: [&str; 6] = ["--cores", "1", "--warm", "20000", "--measure", "40000"];

fn ipsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ipsim"))
        .args(args)
        .output()
        .expect("ipsim binary runs")
}

#[test]
fn info_lists_every_registered_scheme() {
    let out = ipsim(&["info"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for def in registry() {
        assert!(
            stdout
                .lines()
                .any(|line| line.split_whitespace().next() == Some(def.name)),
            "`ipsim info` does not list {:?}:\n{stdout}",
            def.name
        );
    }
}

#[test]
fn run_takes_a_registry_spec() {
    let out = ipsim(&[
        "run",
        "--cores",
        "1",
        "--warm",
        "20000",
        "--measure",
        "40000",
        "--prefetcher",
        "disc:ahead=2",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("discont (2NL, 8192)"), "{stdout}");
}

#[test]
fn bad_schemes_exit_2_with_the_registry_error() {
    for text in ["warp_drive", "disc:ahead=0", "mana", "nl:mode=9", ""] {
        let want = Scheme::parse(text).unwrap_err().to_string();
        let out = ipsim(&["run", "--prefetcher", text]);
        assert_eq!(out.status.code(), Some(2), "{text}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&want), "{text}: want {want:?} in\n{stderr}");
    }
}

#[test]
fn every_command_prints_usage_on_help_and_exits_zero() {
    for command in COMMANDS {
        for help in ["--help", "-h"] {
            let out = ipsim(&[command, help]);
            assert_eq!(out.status.code(), Some(0), "{command} {help}: {out:?}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(stdout.contains("USAGE"), "{command} {help}:\n{stdout}");
            assert!(out.stderr.is_empty(), "{command} {help} wrote to stderr");
        }
    }
}

/// Unknown options, and options the command does not read, exit 2 with
/// the usage on stderr before anything is simulated.
#[test]
fn every_command_rejects_options_it_does_not_read_with_exit_two() {
    let cases: [&[&str]; 8] = [
        &["run", "--definitely-not-a-real-flag"],
        &["compare", "--definitely-not-a-real-flag"],
        &["breakdown", "--definitely-not-a-real-flag"],
        &["info", "--definitely-not-a-real-flag"],
        // Windows are --warm/--measure.
        &["run", "--quick"],
        // The scheme list is fixed.
        &["compare", "--prefetcher", "disc"],
        // The policy places prefetched lines.
        &["breakdown", "--policy", "bypass"],
        &["info", "--cores", "1"],
    ];
    for args in cases {
        let out = ipsim(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("USAGE"), "{args:?}:\n{stderr}");
    }
}

#[test]
fn run_prints_the_prefetch_pipeline_of_a_zoo_scheme() {
    let mut args = vec!["run", "--prefetcher", "zoo:mana:degree=4"];
    args.extend(SHORT);
    let out = ipsim(&args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let pipeline = stdout.lines().last().unwrap();
    for counter in [
        "generated",
        "filtered",
        "queued",
        "probes",
        "probe_hits",
        "inflight",
        "mshr_rej",
        "issued",
        "useful",
        "late",
    ] {
        assert!(
            pipeline.contains(&format!(" {counter} ")),
            "{counter}: {stdout}"
        );
    }
}

#[test]
fn compare_runs_every_scheme_under_the_chosen_policy() {
    for (policy, header) in [("install", "install policy"), ("bypass", "bypass policy")] {
        let mut args = vec!["compare", "--policy", policy];
        args.extend(SHORT);
        let out = ipsim(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{stdout}");
        assert!(stdout.lines().next().unwrap().ends_with(header), "{stdout}");
        for label in ["next-line (always)", "lookahead-4", "discontinuity"] {
            assert!(stdout.contains(label), "{label}: {stdout}");
        }
        assert_eq!(stdout.lines().count(), 12, "{stdout}");
    }
}

#[test]
fn breakdown_adds_remaining_misses_only_with_a_prefetcher() {
    let out = ipsim(&[&["breakdown"][..], &SHORT].concat());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        stdout.lines().next().unwrap().ends_with("no prefetching"),
        "{stdout}"
    );
    assert!(!stdout.contains("L1I/1k"), "{stdout}");

    let args = [
        &["breakdown", "--prefetcher", "nnl", "--policy", "install"][..],
        &SHORT,
    ]
    .concat();
    let out = ipsim(&args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        stdout.contains("next-4-lines (tagged) / bypassing=false"),
        "{stdout}"
    );
    assert!(stdout.contains("L1I/1k"), "{stdout}");
}
