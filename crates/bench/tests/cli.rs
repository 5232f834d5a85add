//! `bench_snapshot` rejects a bad command line before it measures or
//! writes anything, so a typo never overwrites the committed snapshot,
//! and answers a help request with its usage.

use std::process::Command;

/// Runs `bench_snapshot` with `args`, the snapshot path pointed at a
/// scratch file, and asserts exit 2 with nothing written.
fn assert_rejected(tag: &str, args: &[&str]) {
    let out =
        std::env::temp_dir().join(format!("ipsim-bench-cli-{}-{tag}.json", std::process::id()));
    let _ = std::fs::remove_file(&out);
    let args: Vec<String> = args
        .iter()
        .map(|a| a.replace("<tmp>", &out.display().to_string()))
        .collect();
    let status = Command::new(env!("CARGO_BIN_EXE_bench_snapshot"))
        .args(&args)
        .env("IPSIM_BENCH_BASELINE", &out)
        .env("IPSIM_BENCH_REPS", "1")
        .status()
        .expect("spawn bench_snapshot");
    let written = out.exists();
    let _ = std::fs::remove_file(&out);
    assert_eq!(status.code(), Some(2), "{args:?} must exit 2");
    assert!(!written, "{args:?} must not write a snapshot");
}

#[test]
fn bad_arguments_exit_2_without_writing() {
    assert_rejected("bogus", &["--out", "<tmp>", "--bogus"]);
    assert_rejected("typo", &["--chek"]);
    assert_rejected("dangling", &["--out"]);
    assert_rejected("flag-as-path", &["--out", "--check"]);
}

/// A help request is not misuse: `--help` and `-h` print the usage on
/// stdout and exit 0, measuring and writing nothing.
#[test]
fn help_prints_usage_and_exits_0() {
    for flag in ["--help", "-h"] {
        let snapshot = std::env::temp_dir().join(format!(
            "ipsim-bench-cli-{}-help{flag}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&snapshot);
        let out = Command::new(env!("CARGO_BIN_EXE_bench_snapshot"))
            .args(["--out", &snapshot.display().to_string(), flag])
            .env("IPSIM_BENCH_REPS", "1")
            .output()
            .expect("spawn bench_snapshot");
        let written = snapshot.exists();
        let _ = std::fs::remove_file(&snapshot);
        assert_eq!(out.status.code(), Some(0), "{flag} must exit 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with("usage: bench_snapshot"),
            "{flag}: {stdout}"
        );
        assert!(out.stderr.is_empty(), "{flag} measured something");
        assert!(!written, "{flag} must not write a snapshot");
    }
}
