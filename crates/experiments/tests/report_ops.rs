//! End-to-end contract of `report ops`: a span trace renders as a table,
//! a garbage span file exits 1 rather than panicking, and no input at all
//! is a usage error.

use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_report");

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ipsim-report-ops-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn span_trace() -> String {
    let recorder = ipsim_obs::SpanRecorder::new(64);
    {
        let _outer = recorder.span("harness.run");
        let _inner = recorder.span("cache.probe");
    }
    let mut out = Vec::new();
    recorder.write_chrome_trace(&mut out).unwrap();
    String::from_utf8(out).unwrap()
}

#[test]
fn renders_the_span_table() {
    let dir = tmp("tables");
    let spans = dir.join("spans.trace.json");
    std::fs::write(&spans, span_trace()).unwrap();

    let out = Command::new(BIN)
        .arg("ops")
        .args(["--spans", spans.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("== spans =="), "{stdout}");
    assert!(stdout.contains("harness.run"), "{stdout}");
    assert!(stdout.contains("cache.probe"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invalid_inputs_fail_cleanly() {
    let dir = tmp("invalid");
    // A garbage span file exits 1, never 101 (a panic).
    let bad = dir.join("garbage.trace.json");
    std::fs::write(&bad, "this is not a trace {{\n").unwrap();
    let out = Command::new(BIN)
        .arg("ops")
        .args(["--spans", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    // No inputs at all is a usage error, not a report failure.
    let out = Command::new(BIN).arg("ops").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
