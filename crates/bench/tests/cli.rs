//! `bench_snapshot` rejects a bad command line before it measures or
//! writes anything, so a typo never overwrites the committed snapshot.

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
