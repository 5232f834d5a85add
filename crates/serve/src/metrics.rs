//! The daemon's operational metric handles, pre-registered on the
//! process-global [`ipsim_obs`] registry.
//!
//! Registration happens once at [`Service::open`] time so `GET
//! /v1/metrics` exposes every core family — requests, queue depth,
//! dedup, rejections, latency histograms — even before the first byte of
//! traffic, and so hot paths only touch `Arc`-backed atomics, never the
//! registry lock. Family naming follows the workspace convention
//! `ipsim_<subsystem>_<what>_<unit>`.
//!
//! [`Service::open`]: crate::state::Service::open

use ipsim_obs::{Counter, Gauge, Histogram};

/// Normalised endpoint labels, in the order `/v1/stats` reports their
/// latency percentiles. `invalid` covers requests that never parsed.
pub const ENDPOINTS: [&str; 8] = [
    "healthz",
    "stats",
    "metrics",
    "jobs",
    "job_status",
    "job_result",
    "other",
    "invalid",
];

/// All serve-side metric handles. One instance lives on the `Service`.
pub struct ServeMetrics {
    /// `ipsim_serve_requests_total{endpoint}` + latency histogram per
    /// endpoint, indexed like [`ENDPOINTS`].
    requests: Vec<(Counter, Histogram)>,
    /// `ipsim_serve_queue_depth` — jobs waiting for a worker.
    pub queue_depth: Gauge,
    /// `ipsim_serve_inflight_jobs` — jobs a worker is executing.
    pub inflight_jobs: Gauge,
    /// `ipsim_serve_jobs_submitted_total` — accepted submissions.
    pub submitted: Counter,
    /// `ipsim_serve_dedup_total{kind="cache"}`.
    pub dedup_cache: Counter,
    /// `ipsim_serve_dedup_total{kind="inflight"}`.
    pub dedup_inflight: Counter,
    /// `ipsim_serve_rejected_total{reason="queue_full"}`.
    pub rejected_queue_full: Counter,
    /// `ipsim_serve_rejected_total{reason="draining"}`.
    pub rejected_draining: Counter,
    /// `ipsim_serve_jobs_total{state="done"}`.
    pub jobs_done: Counter,
    /// `ipsim_serve_jobs_total{state="failed"}`.
    pub jobs_failed: Counter,
    /// `ipsim_serve_queue_wait_micros` — enqueue → worker claim.
    pub queue_wait: Histogram,
    /// `ipsim_serve_job_execute_micros` — worker claim → terminal.
    pub execute: Histogram,
}

impl Default for ServeMetrics {
    fn default() -> ServeMetrics {
        ServeMetrics::new()
    }
}

impl ServeMetrics {
    /// Registers every serve family on the global registry.
    pub fn new() -> ServeMetrics {
        let m = ipsim_obs::metrics();
        ServeMetrics {
            requests: ENDPOINTS
                .iter()
                .map(|&endpoint| {
                    (
                        m.counter("ipsim_serve_requests_total", &[("endpoint", endpoint)]),
                        m.histogram("ipsim_serve_request_micros", &[("endpoint", endpoint)]),
                    )
                })
                .collect(),
            queue_depth: m.gauge("ipsim_serve_queue_depth", &[]),
            inflight_jobs: m.gauge("ipsim_serve_inflight_jobs", &[]),
            submitted: m.counter("ipsim_serve_jobs_submitted_total", &[]),
            dedup_cache: m.counter("ipsim_serve_dedup_total", &[("kind", "cache")]),
            dedup_inflight: m.counter("ipsim_serve_dedup_total", &[("kind", "inflight")]),
            rejected_queue_full: m
                .counter("ipsim_serve_rejected_total", &[("reason", "queue_full")]),
            rejected_draining: m.counter("ipsim_serve_rejected_total", &[("reason", "draining")]),
            jobs_done: m.counter("ipsim_serve_jobs_total", &[("state", "done")]),
            jobs_failed: m.counter("ipsim_serve_jobs_total", &[("state", "failed")]),
            queue_wait: m.histogram("ipsim_serve_queue_wait_micros", &[]),
            execute: m.histogram("ipsim_serve_job_execute_micros", &[]),
        }
    }

    /// Counts one finished request and records its wall time.
    pub fn observe_request(&self, endpoint: &str, micros: u64) {
        let idx = ENDPOINTS
            .iter()
            .position(|&e| e == endpoint)
            .unwrap_or(ENDPOINTS.len() - 2); // "other"
        let (counter, histogram) = &self.requests[idx];
        counter.inc();
        histogram.observe(micros);
    }

    /// The latency histogram for one endpoint label, for `/v1/stats`
    /// percentiles.
    pub fn request_histogram(&self, endpoint: &str) -> Option<&Histogram> {
        ENDPOINTS
            .iter()
            .position(|&e| e == endpoint)
            .map(|idx| &self.requests[idx].1)
    }
}
