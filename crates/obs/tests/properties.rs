//! Property tests for the observability primitives: histogram accounting
//! exactness, the percentile-within-one-bucket guarantee against a sorted
//! reference, span nesting validity under concurrent recording, and the
//! JSON and Prometheus parsers (which read untrusted input) never
//! panicking.

use std::sync::Arc;
use std::thread;

use ipsim_obs::hist::{bucket_index, bucket_upper};
use ipsim_obs::json::{self, MAX_DEPTH};
use ipsim_obs::{chrome, histogram_percentile, parse_text, Histogram, Registry, SpanRecorder};
use proptest::prelude::*;

/// Exact nearest-rank percentile over a sorted slice — the reference the
/// histogram estimate is compared against.
fn exact_percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

proptest! {
    /// Every observation lands in exactly one bucket: the bucket sum and
    /// the count always equal the number of observations, and the sum of
    /// values is exact.
    #[test]
    fn bucket_sum_equals_observation_count(values in prop::collection::vec(0u64..1 << 48, 0..300)) {
        let h = Histogram::new();
        for &v in &values {
            h.observe(v);
        }
        let snap = h.snapshot();
        let bucket_sum: u64 = snap.buckets.iter().sum();
        prop_assert_eq!(bucket_sum, values.len() as u64);
        prop_assert_eq!(snap.count, values.len() as u64);
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum(), values.iter().sum::<u64>());
    }

    /// The histogram's nearest-rank estimate falls in the same bucket as
    /// the exact order statistic computed from a sorted copy — i.e. the
    /// estimate is within one bucket (≤25% relative error) of the truth.
    #[test]
    fn percentile_within_one_bucket_of_sorted_reference(
        values in prop::collection::vec(0u64..u64::MAX, 1..300),
        p in 0.0f64..100.0,
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.observe(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let exact = exact_percentile(&sorted, p);
        let estimate = h.percentile(p);
        prop_assert_eq!(
            bucket_index(estimate),
            bucket_index(exact),
            "p{} estimate {} not in exact value {}'s bucket",
            p,
            estimate,
            exact
        );
        prop_assert_eq!(estimate, bucket_upper(bucket_index(exact)));
        prop_assert!(estimate >= exact);
    }
}

/// Concurrent RAII recording keeps nesting valid: every recorded parent
/// link points to a span on the same thread whose interval contains the
/// child's, and no spans are lost below the ring capacity.
#[test]
fn concurrent_span_nesting_stays_valid() {
    const THREADS: usize = 8;
    const ITERS: usize = 40;
    let rec = Arc::new(SpanRecorder::new(THREADS * ITERS * 3 + 16));
    thread::scope(|scope| {
        for t in 0..THREADS {
            let rec = Arc::clone(&rec);
            scope.spawn(move || {
                for i in 0..ITERS {
                    let outer = rec.span(&format!("outer.{t}"));
                    let _ = outer.id();
                    {
                        let _mid = rec.span("mid");
                        if i % 2 == 0 {
                            let _leaf = rec.span("leaf");
                        }
                    }
                }
            });
        }
    });
    let spans = rec.completed();
    assert_eq!(rec.dropped(), 0);
    assert_eq!(
        spans.len(),
        THREADS * ITERS * 2 + THREADS * ITERS / 2,
        "every guard recorded exactly once"
    );
    let by_id: std::collections::HashMap<u64, _> = spans.iter().map(|s| (s.id, s)).collect();
    assert_eq!(by_id.len(), spans.len(), "span ids are unique");
    for s in &spans {
        let Some(parent) = s.parent else {
            assert!(
                s.name.starts_with("outer."),
                "only outer spans may be roots, got {}",
                s.name
            );
            continue;
        };
        let p = by_id
            .get(&parent)
            .unwrap_or_else(|| panic!("span {} has unknown parent {parent}", s.id));
        assert_eq!(p.tid, s.tid, "parent on a different thread");
        assert!(
            p.start_micros <= s.start_micros,
            "child starts before parent"
        );
        assert!(
            s.start_micros + s.dur_micros <= p.start_micros + p.dur_micros,
            "child {} ends after parent {}",
            s.name,
            p.name
        );
    }
}

/// Valid documents of every JSON shape the workspace reads: a wire job
/// spec, telemetry JSONL lines (each line is one document), a span
/// export, a lifecycle trace, and one exercising escapes, `\u` sequences and multi-byte
/// UTF-8.
fn seed_documents() -> Vec<String> {
    let rec = SpanRecorder::new(8);
    rec.record("serve.request", 5, 10, None);
    rec.record("odd \"name\"\\\n", 7, 1, Some(1));
    let mut spans = Vec::new();
    rec.write_chrome_trace(&mut spans).unwrap();
    vec![
        r#"{"v":2,"runs":[{"config":"cmp4","workload":"mixed","prefetcher":"disc:8192:4","policy":"bypass","warm":2000000,"measure":4000000},{"config":"single_core","workload":"db","prefetcher":"zoo:nl+disc:ahead=2","limit":"seq+br","warm":1,"measure":2.5e1}]}"#.to_string(),
        r#"{"schema":"ipsim-telemetry-v1","interval":1000,"cores":2,"dropped":[0,3]}"#.to_string(),
        r#"{"core":0,"cycle":5,"line":"0x1f80","component":"seq","kind":"queued"}"#.to_string(),
        String::from_utf8(spans).unwrap(),
        r#"{"traceEvents":[{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"core0"}},{"name":"seq:fill","cat":"pf","ph":"i","s":"t","ts":90,"pid":1,"tid":0,"args":{"line":"0x1f80"}}],"displayTimeUnit":"ns"}"#.to_string(),
        "{\"s\":\"caf\u{e9} \u{2615} \\u00e9\\ud83d\\/\\b\\f\",\"n\":[-0,1.5E+3,true,false,null,{}]}".to_string(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Truncating a valid document anywhere and flipping up to four of
    /// its bits never panics the parser or the Chrome validator: every
    /// input returns `Ok` or `Err`.
    #[test]
    fn json_parse_never_panics_on_damaged_documents(
        doc in 0usize..6,
        cut in 0usize..1 << 16,
        flips in prop::collection::vec((0usize..1 << 16, 0u8..8), 0..5),
    ) {
        let mut bytes = seed_documents()[doc].clone().into_bytes();
        prop_assert!(json::parse(std::str::from_utf8(&bytes).unwrap()).is_ok());
        for (at, bit) in flips {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        bytes.truncate(cut % (bytes.len() + 1));
        let text = String::from_utf8_lossy(&bytes);
        let _ = json::parse(&text);
        let _ = chrome::validate(&text);
    }

    /// Any string escapes to a literal that parses back to itself.
    #[test]
    fn escape_round_trips_any_string(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let literal = format!("\"{}\"", json::escape(&text));
        prop_assert_eq!(json::parse(&literal), Ok(json::Json::Str(text)));
    }

    /// Nesting of any depth up to 100k, balanced or not, arrays or
    /// objects, returns instead of recursing off the stack; balanced
    /// documents parse exactly up to [`MAX_DEPTH`].
    #[test]
    fn json_nesting_is_bounded_at_any_depth(
        depth in 0usize..100_000,
        objects in any::<bool>(),
        balanced in any::<bool>(),
    ) {
        let (open, close) = if objects { (r#"{"k":"#, "}") } else { ("[", "]") };
        let mut text = open.repeat(depth);
        if balanced {
            text.push('0');
            text.push_str(&close.repeat(depth));
        }
        let parsed = json::parse(&text);
        prop_assert_eq!(parsed.is_ok(), balanced && depth <= MAX_DEPTH);
    }
}

/// Valid exposition pages: a rendered registry page shaped like the
/// daemon's scrape (labelled counters, a negative gauge, labelled and
/// unlabelled histograms spanning many buckets), and a hand-written one
/// with fractional counts and a negative bound, which a scrape of a
/// foreign exporter may carry.
fn exposition_pages() -> [String; 2] {
    let hand_written = "# HELP h a hand-written histogram\n# TYPE h histogram\n\
                        h_bucket{le=\"-1\"} 0.25\nh_bucket{le=\"0.5\"} 0.5\n\
                        h_bucket{le=\"+Inf\"} 0.75\nh_count 0.75\nh_sum 1e-3\n";
    [rendered_page(), hand_written.to_string()]
}

fn rendered_page() -> String {
    let r = Registry::new();
    r.counter("ipsim_serve_requests_total", &[("endpoint", "jobs")])
        .add(7);
    r.counter("ipsim_serve_requests_total", &[("endpoint", "stats")])
        .add(1);
    r.gauge("ipsim_serve_queue_depth", &[]).set(-3);
    for (endpoint, values) in [("jobs", &[5u64, 90, 1_700][..]), ("stats", &[0, 1 << 40])] {
        let h = r.histogram("ipsim_serve_request_micros", &[("endpoint", endpoint)]);
        for &v in values {
            h.observe(v);
        }
    }
    r.histogram("ipsim_serve_queue_wait_micros", &[])
        .observe(12);
    r.render_prometheus()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Truncating a valid page anywhere and flipping up to four of its
    /// bits never panics the parser; on every page it accepts, merging
    /// any family's buckets and reading percentiles never panics either.
    #[test]
    fn prom_parse_never_panics_on_damaged_expositions(
        page in 0usize..2,
        cut in 0usize..1 << 16,
        flips in prop::collection::vec((0usize..1 << 16, 0u8..8), 0..5),
    ) {
        let mut bytes = exposition_pages()[page].clone().into_bytes();
        prop_assert!(parse_text(std::str::from_utf8(&bytes).unwrap()).is_ok());
        for (at, bit) in flips {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        bytes.truncate(cut % (bytes.len() + 1));
        let Ok(exposition) = parse_text(&String::from_utf8_lossy(&bytes)) else {
            return Ok(());
        };
        for family in &exposition.families {
            let mut wants: Vec<Vec<(&str, &str)>> = vec![Vec::new()];
            for sample in &family.samples {
                wants.push(
                    sample
                        .labels
                        .iter()
                        .filter(|(k, _)| k != "le")
                        .map(|(k, v)| (k.as_str(), v.as_str()))
                        .collect(),
                );
            }
            for want in &wants {
                let buckets = exposition.histogram_buckets(&family.name, want);
                for p in [0.0, 50.0, 99.0, 100.0] {
                    let _ = histogram_percentile(&buckets, p);
                }
            }
        }
    }
}
