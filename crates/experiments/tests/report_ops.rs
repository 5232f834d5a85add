//! End-to-end contract of `report ops`: a saved metrics snapshot and a
//! span trace render as tables, `--require` fails on a missing family,
//! and garbage inputs exit 1 rather than panicking.

use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_report");

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ipsim-report-ops-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small exposition page shaped exactly like the daemon's: a counter
/// family with labels, a gauge, and one histogram.
fn snapshot() -> String {
    let registry = ipsim_obs::Registry::new();
    registry
        .counter("ipsim_serve_requests_total", &[("endpoint", "jobs")])
        .add(7);
    registry.gauge("ipsim_serve_queue_depth", &[]).set(3);
    let hist = registry.histogram("ipsim_serve_request_micros", &[("endpoint", "jobs")]);
    for v in [120, 450, 900, 4_000] {
        hist.observe(v);
    }
    registry.render_prometheus()
}

fn span_trace() -> String {
    let recorder = ipsim_obs::SpanRecorder::new(64);
    {
        let _outer = recorder.span("serve.request");
        let _inner = recorder.span("serve.parse");
    }
    let mut out = Vec::new();
    recorder.write_chrome_trace(&mut out).unwrap();
    String::from_utf8(out).unwrap()
}

#[test]
fn renders_tables_from_metrics_and_spans() {
    let dir = tmp("tables");
    let metrics = dir.join("metrics.prom");
    let spans = dir.join("spans.trace.json");
    std::fs::write(&metrics, snapshot()).unwrap();
    std::fs::write(&spans, span_trace()).unwrap();

    let out = Command::new(BIN)
        .arg("ops")
        .args(["--metrics", metrics.to_str().unwrap()])
        .args(["--spans", spans.to_str().unwrap()])
        .args([
            "--require",
            "ipsim_serve_requests_total,ipsim_serve_request_micros",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("counters and gauges"), "{stdout}");
    assert!(stdout.contains("ipsim_serve_requests_total"), "{stdout}");
    assert!(stdout.contains("endpoint=jobs"), "{stdout}");
    assert!(stdout.contains("== histograms =="), "{stdout}");
    assert!(stdout.contains("== spans =="), "{stdout}");
    assert!(stdout.contains("serve.request"), "{stdout}");
    assert!(stdout.contains("serve.parse"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn require_fails_on_missing_family() {
    let dir = tmp("require");
    let metrics = dir.join("metrics.prom");
    std::fs::write(&metrics, snapshot()).unwrap();
    let out = Command::new(BIN)
        .arg("ops")
        .args(["--metrics", metrics.to_str().unwrap()])
        .args(["--require", "ipsim_serve_requests_total,ipsim_not_a_family"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("ipsim_not_a_family"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invalid_inputs_fail_cleanly() {
    let dir = tmp("invalid");
    // Garbage exits 1. So does a histogram the parser rejects (a NaN
    // `+Inf` count), while one with a fractional count still renders:
    // neither may panic the percentile computation (exit 101).
    let pages = [
        ("this is not exposition format {{\n", 1),
        (
            "# TYPE h histogram\nh_bucket{le=\"+Inf\"} NaN\nh_sum 1\n",
            1,
        ),
        (
            "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 0.5\nh_count 0.5\nh_sum 1\n",
            0,
        ),
    ];
    for (i, (page, code)) in pages.iter().enumerate() {
        let bad = dir.join(format!("page{i}.prom"));
        std::fs::write(&bad, page).unwrap();
        let out = Command::new(BIN)
            .arg("ops")
            .args(["--metrics", bad.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(*code), "page {i}: {out:?}");
    }

    // No inputs at all is a usage error, not a report failure.
    let out = Command::new(BIN).arg("ops").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
