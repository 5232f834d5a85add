//! Load generator for the serving daemon: N concurrent clients submit a
//! mixed corpus of job specs (with deliberate duplicates to exercise
//! dedup), poll them to completion, and report throughput plus latency
//! percentiles for both the submit round-trip and end-to-end completion.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ipsim_obs::json::Json;
use ipsim_serve::client::{self, Response};

const USAGE: &str = "\
usage: serve_load [options]

  --addr ADDR     daemon address (default 127.0.0.1:7791)
  --clients N     concurrent client threads (default 8)
  --jobs M        jobs submitted per client (default 4)
  --warm N        warm-up instructions per run (default 2000)
  --measure N     measured instructions per run (default 5000)
  --help          this text

Exit code 1 when any submission or job fails.
";

/// The spec corpus: clients cycle through these, so every spec is
/// submitted by several clients — duplicate submissions are the point.
const CORPUS: &[(&str, &str)] = &[
    ("db", "none"),
    ("db", "nl"),
    ("tpcw", "nl"),
    ("japp", "disc:table_entries=4096"),
    ("web", "nl"),
    ("db", "disc:table_entries=4096"),
];

fn main() {
    let mut addr = "127.0.0.1:7791".to_string();
    let mut clients = 8usize;
    let mut jobs = 4usize;
    let mut warm = 2_000u64;
    let mut measure = 5_000u64;
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
            "--addr" => addr = value("--addr"),
            "--clients" => clients = parse(&value("--clients"), "--clients"),
            "--jobs" => jobs = parse(&value("--jobs"), "--jobs"),
            "--warm" => warm = parse(&value("--warm"), "--warm"),
            "--measure" => measure = parse(&value("--measure"), "--measure"),
            _ => {
                eprintln!("unknown argument `{arg}`\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    let failures = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut submit_ms: Vec<f64> = Vec::new();
    let mut complete_ms: Vec<f64> = Vec::new();

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..clients {
            let addr = addr.clone();
            let failures = Arc::clone(&failures);
            handles.push(scope.spawn(move || {
                let mut submit_ms = Vec::new();
                let mut complete_ms = Vec::new();
                let mut pending: Vec<(String, Instant)> = Vec::new();
                for j in 0..jobs {
                    let (workload, prefetcher) = CORPUS[(c + j) % CORPUS.len()];
                    let spec = format!(
                        "{{\"v\":3,\"runs\":[{{\"config\":\"single_core\",\
                         \"workload\":\"{workload}\",\"prefetcher\":\"{prefetcher}\",\
                         \"policy\":\"install_both\",\"warm\":{warm},\"measure\":{measure}}}]}}"
                    );
                    let t0 = Instant::now();
                    let response = submit_with_backoff(&addr, &spec);
                    submit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    match response {
                        Ok(response) if response.status == 200 || response.status == 202 => {
                            match response.json().ok().as_ref().and_then(job_id) {
                                Some(id) => pending.push((id, t0)),
                                None => {
                                    eprintln!("bad submit body: {}", response.body);
                                    failures.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        Ok(response) => {
                            eprintln!("submit: HTTP {} {}", response.status, response.body);
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            eprintln!("submit: {e}");
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                for (id, t0) in pending {
                    match client::wait_terminal(&addr, &id, Duration::from_secs(600)) {
                        Ok(state) => {
                            complete_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                            if state != "done" {
                                eprintln!("job {id} ended `{state}`");
                                failures.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(e) => {
                            eprintln!("job {id}: {e}");
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                (submit_ms, complete_ms)
            }));
        }
        for handle in handles {
            let (s, c) = handle.join().unwrap();
            submit_ms.extend(s);
            complete_ms.extend(c);
        }
    });

    let wall = started.elapsed().as_secs_f64();
    let total = clients * jobs;
    println!("serve_load: {clients} clients x {jobs} jobs against {addr}");
    println!(
        "  wall {:.2}s, {:.1} jobs/s submitted, {} completions observed",
        wall,
        total as f64 / wall.max(1e-9),
        complete_ms.len()
    );
    print_percentiles("submit rtt", &mut submit_ms);
    print_percentiles("completion", &mut complete_ms);
    if let Ok(stats) = client::request(&addr, "GET", "/v1/stats", &[], None) {
        println!("  daemon stats: {}", stats.body);
    }
    // Daemon-side view of the same traffic, scraped from `/v1/metrics`:
    // client percentiles include the network and the poll loop, the
    // daemon's own histograms isolate parse→respond and queue→done.
    match client::request(&addr, "GET", "/v1/metrics", &[], None) {
        Ok(metrics) if metrics.status == 200 => print_daemon_percentiles(&metrics.body),
        Ok(metrics) => eprintln!("warning: /v1/metrics returned HTTP {}", metrics.status),
        Err(e) => eprintln!("warning: /v1/metrics scrape failed: {e}"),
    }
    // Machine-readable line for EXPERIMENTS.md.
    println!(
        "tsv\t{}\t{}\t{:.2}\t{:.1}\t{:.1}\t{:.1}\t{:.1}\t{:.0}\t{:.0}\t{:.0}",
        clients,
        total,
        wall,
        total as f64 / wall.max(1e-9),
        percentile(&mut submit_ms, 50.0),
        percentile(&mut submit_ms, 95.0),
        percentile(&mut submit_ms, 99.0),
        percentile(&mut complete_ms, 50.0),
        percentile(&mut complete_ms, 95.0),
        percentile(&mut complete_ms, 99.0),
    );
    if failures.load(Ordering::Relaxed) > 0 {
        eprintln!("serve_load: {} failures", failures.load(Ordering::Relaxed));
        std::process::exit(1);
    }
}

/// Submits, retrying briefly on 429 — the backpressure answer is part of
/// normal operation for a bursty load generator.
fn submit_with_backoff(addr: &str, spec: &str) -> Result<Response, String> {
    let mut delay = Duration::from_millis(50);
    for _ in 0..50 {
        let response = client::submit_json(addr, spec)?;
        if response.status != 429 {
            return Ok(response);
        }
        std::thread::sleep(delay);
        delay = (delay * 2).min(Duration::from_secs(1));
    }
    Err("still 429 after 50 retries".to_string())
}

fn job_id(body: &Json) -> Option<String> {
    body.get("id").and_then(Json::as_str).map(str::to_string)
}

/// Prints the daemon's own latency histograms (in ms, to line up with the
/// client-side rows above) from one Prometheus exposition scrape.
fn print_daemon_percentiles(text: &str) {
    let exposition = match ipsim_obs::parse_text(text) {
        Ok(exposition) => exposition,
        Err(e) => {
            eprintln!("warning: /v1/metrics did not parse: {e}");
            return;
        }
    };
    type Row = (
        &'static str,
        &'static str,
        &'static [(&'static str, &'static str)],
    );
    let rows: [Row; 3] = [
        (
            "daemon jobs",
            "ipsim_serve_request_micros",
            &[("endpoint", "jobs")],
        ),
        ("daemon queue", "ipsim_serve_queue_wait_micros", &[]),
        ("daemon exec", "ipsim_serve_job_execute_micros", &[]),
    ];
    for (name, family, want) in rows {
        let buckets = exposition.histogram_buckets(family, want);
        let count = buckets.last().map_or(0.0, |&(_, n)| n);
        if count <= 0.0 {
            continue;
        }
        let ms = |p: f64| ipsim_obs::histogram_percentile(&buckets, p) / 1e3;
        println!(
            "  {name:<11} p50 {:>8.1} ms   p95 {:>8.1} ms   p99 {:>8.1} ms   ({count:.0} samples)",
            ms(50.0),
            ms(95.0),
            ms(99.0),
        );
    }
}

fn print_percentiles(name: &str, samples: &mut [f64]) {
    println!(
        "  {name:<11} p50 {:>8.1} ms   p95 {:>8.1} ms   p99 {:>8.1} ms   ({} samples)",
        percentile(samples, 50.0),
        percentile(samples, 95.0),
        percentile(samples, 99.0),
        samples.len()
    );
}

/// Nearest-rank percentile; 0 for an empty sample set.
fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0 * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

fn parse<T: std::str::FromStr>(text: &str, flag: &str) -> T {
    text.parse().unwrap_or_else(|_| {
        eprintln!("bad value `{text}` for {flag}\n\n{USAGE}");
        std::process::exit(2);
    })
}
