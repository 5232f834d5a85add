//! Pins the command-line contract shared by every binary in this crate,
//! and by each `report` subcommand: `--help` prints usage to stdout and
//! exits 0; an unknown flag prints usage to stderr and exits 2. Scripts and CI jobs rely on that split to
//! tell "you called it wrong" from "the experiment failed" (exit 1).

use std::process::Command;

/// Every binary this crate builds, by `CARGO_BIN_EXE_*` path.
const BINS: &[(&str, &str)] = &[
    ("all_figures", env!("CARGO_BIN_EXE_all_figures")),
    ("report", env!("CARGO_BIN_EXE_report")),
];

/// A new tool cannot escape the contract: every source file in
/// `src/bin/` must be listed in [`BINS`].
#[test]
fn bins_lists_every_binary_in_the_crate() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            path.file_stem().unwrap().to_string_lossy().into_owned()
        })
        .collect();
    on_disk.sort();
    let listed: Vec<&str> = BINS.iter().map(|(name, _)| *name).collect();
    assert_eq!(on_disk, listed, "src/bin/ and BINS disagree");
}

#[test]
fn every_binary_prints_usage_on_help_and_exits_zero() {
    for (name, path) in BINS {
        let out = Command::new(path)
            .arg("--help")
            .output()
            .unwrap_or_else(|e| panic!("{name}: could not run: {e}"));
        assert_eq!(
            out.status.code(),
            Some(0),
            "{name} --help exited {:?}\nstderr: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("usage"),
            "{name} --help printed no usage text:\n{stdout}"
        );
    }
}

#[test]
fn every_binary_rejects_unknown_flags_with_exit_two() {
    for (name, path) in BINS {
        let out = Command::new(path)
            .arg("--definitely-not-a-real-flag")
            .output()
            .unwrap_or_else(|e| panic!("{name}: could not run: {e}"));
        assert_eq!(
            out.status.code(),
            Some(2),
            "{name} accepted an unknown flag (exit {:?})\nstdout: {}\nstderr: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage"),
            "{name} rejected the flag without printing usage:\n{stderr}"
        );
    }
}

/// An empty figure list, and the flags of the retired process-shard
/// engine, are usage errors: exit 2 with usage on stderr, before any run.
#[test]
fn all_figures_rejects_empty_figure_lists_and_shard_flags_with_exit_two() {
    let all_figures = BINS.iter().find(|(n, _)| *n == "all_figures").unwrap().1;
    for args in [
        &["--figures", ""][..],
        &["--figures", ","],
        &["--figures="],
        &["--shards", "2"],
        &["--shard-exec", "0/1"],
    ] {
        let out = Command::new(all_figures)
            .args(args)
            .output()
            .unwrap_or_else(|e| panic!("all_figures {args:?}: could not run: {e}"));
        assert_eq!(out.status.code(), Some(2), "all_figures {args:?}: {out:?}");
        assert!(
            out.stdout.is_empty(),
            "all_figures {args:?} wrote to stdout"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage"), "all_figures {args:?}:\n{stderr}");
    }
}

/// `report` and each of its subcommands answer `--help` on stdout with
/// exit 0, and every misuse — no command, an unknown command, an unknown
/// subcommand flag, `ops` with nothing to read, `trace` with two inputs
/// or no file after `--trace` — on stderr with exit 2.
#[test]
fn report_subcommands_keep_the_exit_code_contract() {
    let report = BINS.iter().find(|(n, _)| *n == "report").unwrap().1;
    let run = |args: &[&str]| {
        Command::new(report)
            .args(args)
            .output()
            .unwrap_or_else(|e| panic!("report {args:?}: could not run: {e}"))
    };
    for args in [
        &["--help"][..],
        &["sim", "--help"],
        &["sweep", "--help"],
        &["ops", "--help"],
        &["check", "--help"],
        &["trace", "--help"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(0), "report {args:?}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with("usage: report"),
            "report {args:?}:\n{stdout}"
        );
    }
    for args in [
        &[][..],
        &["wat"],
        &["sweep", "--wat"],
        &["ops"],
        &["trace", "--wat"],
        &["trace", "mixed"],
        &["trace", "db", "web"],
        &["trace", "--trace"],
        &["trace", "--trace", "a.itrace", "db"],
        &["trace", "--trace", "a.itrace", "--trace", "b.itrace"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "report {args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "report {args:?} wrote to stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: report"),
            "report {args:?}:\n{stderr}"
        );
    }
}
