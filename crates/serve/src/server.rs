//! The HTTP front end: a thread-per-connection accept loop routing the
//! five-endpoint v1 API onto [`Service`].
//!
//! ```text
//! POST /v1/jobs              submit a job spec (JSON or TSV body)
//! GET  /v1/jobs/{id}         state + done/total progress
//! GET  /v1/jobs/{id}/result  terminal results (+ ?format=tsv)
//! GET  /v1/healthz           liveness
//! GET  /v1/stats             counters, queue depth, latency percentiles
//! GET  /v1/metrics           Prometheus text exposition (scrapeable)
//! ```
//!
//! Submissions answer `202` (queued), `200` (dedup — completed from the
//! run cache or coalesced onto an in-flight twin), `400` (malformed
//! spec), `429` (queue full, with `Retry-After`), or
//! `503` (draining). Results answer `409` until the job is terminal, so
//! pollers cannot mistake a partial job for a finished one.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ipsim_harness::wire::{JobSpec, TSV_PREFIX};
use ipsim_harness::Summary;
use ipsim_obs::json;

use crate::http::{self, error_body, ParseError, Request};
use crate::metrics::ENDPOINTS;
use crate::state::{Job, Service, SubmitError};

/// A running server: accept loop + workers, with a handle to drain it.
pub struct ServerHandle {
    /// The bound address (useful with `:0` binds in tests).
    pub addr: SocketAddr,
    service: Arc<Service>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The shared service, for in-process inspection.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Begins a graceful drain: stop accepting, reject new submissions
    /// with 503, let each worker finish the run it has in flight.
    pub fn shutdown(&self) {
        self.service.begin_shutdown();
    }

    /// Drains and waits for the accept loop and all workers to exit.
    pub fn join(mut self) {
        self.service.begin_shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Binds `bind_addr` (e.g. `127.0.0.1:0`) and starts the accept loop and
/// the configured worker threads.
pub fn start(service: Arc<Service>, bind_addr: &str) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(bind_addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let workers = (0..service.config.workers)
        .map(|_| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.worker_loop())
        })
        .collect();

    let accept = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || accept_loop(&listener, &service))
    };

    Ok(ServerHandle {
        addr,
        service,
        accept: Some(accept),
        workers,
    })
}

/// Accepts until a drain begins. Nonblocking + poll so the drain flag is
/// noticed promptly without needing a wake-up connection.
fn accept_loop(listener: &TcpListener, service: &Arc<Service>) {
    loop {
        if service.draining() {
            return;
        }
        match listener.accept() {
            Ok((stream, peer)) => {
                let service = Arc::clone(service);
                std::thread::spawn(move || handle_connection(stream, peer, &service));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Serves one connection: one request, one response, close. The whole
/// exchange is a `serve.request` span with `serve.parse` /
/// `serve.route` / `serve.respond` children, and lands one sample in
/// `ipsim_serve_request_micros{endpoint}`.
fn handle_connection(mut stream: TcpStream, peer: SocketAddr, service: &Arc<Service>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let spans = ipsim_obs::spans();
    let request_span = spans.span("serve.request");
    let started = spans.now_micros();
    let parsed = {
        let _parse = spans.span("serve.parse");
        http::read_request(&mut stream)
    };
    let (endpoint, status, body) = match parsed {
        Ok(request) => {
            let endpoint = endpoint_name(&request);
            let (status, body) = {
                let _route = spans.span("serve.route");
                route(&request, peer, service)
            };
            (endpoint, status, body)
        }
        Err(ParseError::Bad(e)) => ("invalid", 400, error_body(&e)),
        Err(ParseError::TooLarge(e)) => ("invalid", 413, error_body(&e)),
        Err(ParseError::Io(_)) => {
            drop(request_span);
            service
                .obs
                .observe_request("invalid", spans.now_micros().saturating_sub(started));
            return;
        }
    };
    {
        let _respond = spans.span("serve.respond");
        respond(&mut stream, status, endpoint, &body);
    }
    drop(request_span);
    service
        .obs
        .observe_request(endpoint, spans.now_micros().saturating_sub(started));
}

/// The normalised endpoint label for metrics — one of
/// [`ENDPOINTS`](crate::metrics::ENDPOINTS).
fn endpoint_name(request: &Request) -> &'static str {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["v1", "healthz"]) => "healthz",
        ("GET", ["v1", "stats"]) => "stats",
        ("GET", ["v1", "metrics"]) => "metrics",
        ("POST", ["v1", "jobs"]) => "jobs",
        ("GET", ["v1", "jobs", _]) => "job_status",
        ("GET", ["v1", "jobs", _, "result"]) => "job_result",
        _ => "other",
    }
}

fn respond(stream: &mut TcpStream, status: u16, endpoint: &str, body: &str) {
    let extra: &[(&str, &str)] = if status == 429 {
        &[("Retry-After", "1")]
    } else {
        &[]
    };
    let content_type = if endpoint == "metrics" && status == 200 {
        "text/plain; version=0.0.4; charset=utf-8"
    } else {
        "application/json"
    };
    let _ = http::write_response(stream, status, content_type, extra, body);
}

/// Routes one request to its endpoint.
fn route(request: &Request, peer: SocketAddr, service: &Arc<Service>) -> (u16, String) {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["v1", "healthz"]) => (
            200,
            format!(
                "{{\"ok\":true,\"service\":\"ipsim-serve\",\"v\":1,\"draining\":{}}}",
                service.draining()
            ),
        ),
        ("GET", ["v1", "stats"]) => (200, stats_body(service)),
        ("GET", ["v1", "metrics"]) => (200, ipsim_obs::metrics().render_prometheus()),
        ("POST", ["v1", "jobs"]) => submit(request, peer, service),
        ("GET", ["v1", "jobs", id]) => match service.with_job(id, status_body) {
            Some(body) => (200, body),
            None => (404, error_body(&format!("no job `{id}`"))),
        },
        ("GET", ["v1", "jobs", id, "result"]) => result(request, id, service),
        ("POST" | "GET", _) => (404, error_body("no such endpoint")),
        _ => (405, error_body("method not allowed")),
    }
}

/// `POST /v1/jobs`: decode, hand to the service. The journal names the
/// submitter by its peer address.
fn submit(request: &Request, peer: SocketAddr, service: &Arc<Service>) -> (u16, String) {
    let body = match request.body_utf8() {
        Ok(body) => body,
        Err(e) => return (400, error_body(&e)),
    };
    let is_tsv = request
        .header("content-type")
        .is_some_and(|t| t.contains("tab-separated"))
        || body.trim_start().starts_with(TSV_PREFIX);
    let spec = if is_tsv {
        JobSpec::from_tsv(body)
    } else {
        JobSpec::from_json(body)
    };
    let spec = match spec {
        Ok(spec) => spec,
        Err(e) => return (400, error_body(&e)),
    };
    match service.submit(&peer.ip().to_string(), spec) {
        Ok(outcome) => {
            let dedup = outcome
                .dedup
                .map_or("null".to_string(), |d| format!("\"{d}\""));
            let status = if outcome.dedup.is_some() { 200 } else { 202 };
            (
                status,
                format!(
                    "{{\"id\":\"{}\",\"state\":\"{}\",\"dedup\":{}}}",
                    json::escape(&outcome.job_id),
                    outcome.state.as_str(),
                    dedup
                ),
            )
        }
        Err(SubmitError::Invalid(e)) => (400, error_body(&e)),
        Err(SubmitError::QueueFull) => (429, error_body("queue full")),
        Err(SubmitError::Draining) => (503, error_body("draining")),
        Err(SubmitError::Journal(e)) => (500, error_body(&format!("journal: {e}"))),
    }
}

/// `GET /v1/jobs/{id}`: the progress body.
fn status_body(job: &Job) -> String {
    format!(
        "{{\"id\":\"{}\",\"state\":\"{}\",\"done\":{},\"total\":{},\"dedup\":{}}}",
        json::escape(&job.id),
        job.state.as_str(),
        job.done_runs,
        job.total_runs,
        job.dedup.map_or("null".to_string(), |d| format!("\"{d}\"")),
    )
}

/// `GET /v1/jobs/{id}/result`: terminal results, JSON by default or
/// `?format=tsv` for a shell-friendly table.
fn result(request: &Request, id: &str, service: &Arc<Service>) -> (u16, String) {
    let Some(job) = service.with_job(id, Job::clone) else {
        return (404, error_body(&format!("no job `{id}`")));
    };
    if !job.state.terminal() {
        return (
            409,
            error_body(&format!(
                "job is {} ({}/{} runs) — poll until done",
                job.state.as_str(),
                job.done_runs,
                job.total_runs
            )),
        );
    }
    if request.query.split('&').any(|kv| kv == "format=tsv") {
        let mut body = String::from("# ipsim-job-result v1\n");
        for run in &job.results {
            body.push_str(&format!(
                "{}\t{}\t{}\n",
                run.key,
                if run.ok { "ok" } else { "failed" },
                run.tsv
            ));
        }
        return (200, body);
    }
    let runs: Vec<String> = job
        .results
        .iter()
        .map(|run| {
            let summary = run.ok.then(|| Summary::from_tsv(&run.tsv)).flatten();
            let telemetry = service
                .telemetry_dir(&run.key)
                .map_or("null".to_string(), |dir| {
                    format!("\"{}\"", json::escape(&dir.display().to_string()))
                });
            format!(
                "{{\"key\":\"{}\",\"label\":\"{}\",\"ok\":{},\"ipc\":{},\"l1i_mpi\":{},\
                 \"tsv\":\"{}\",\"telemetry\":{}}}",
                json::escape(&run.key),
                json::escape(&run.label),
                run.ok,
                summary.as_ref().map_or(0.0, |s| s.ipc),
                summary.as_ref().map_or(0.0, |s| s.l1i_mpi),
                json::escape(&run.tsv),
                telemetry,
            )
        })
        .collect();
    let error = job
        .error
        .as_deref()
        .map_or("null".to_string(), |e| format!("\"{}\"", json::escape(e)));
    (
        200,
        format!(
            "{{\"id\":\"{}\",\"state\":\"{}\",\"error\":{},\"results\":[{}]}}",
            json::escape(&job.id),
            job.state.as_str(),
            error,
            runs.join(","),
        ),
    )
}

/// `GET /v1/stats`: counters + live gauges + per-endpoint latency
/// percentiles (daemon-side, from the obs histograms — only endpoints
/// that have served at least one request appear).
fn stats_body(service: &Arc<Service>) -> String {
    let s = &service.stats;
    let latency: Vec<String> = ENDPOINTS
        .iter()
        .filter_map(|&endpoint| {
            let hist = service.obs.request_histogram(endpoint)?;
            let snap = hist.snapshot();
            if snap.count == 0 {
                return None;
            }
            Some(format!(
                "\"{endpoint}\":{{\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                snap.count,
                snap.percentile(50.0),
                snap.percentile(90.0),
                snap.percentile(99.0),
            ))
        })
        .collect();
    format!(
        "{{\"submitted\":{},\"completed\":{},\"failed\":{},\
         \"dedup_cache\":{},\"dedup_inflight\":{},\
         \"rejected_queue_full\":{},\
         \"recovered\":{},\"journal_skipped\":{},\
         \"queue_depth\":{},\"jobs\":{},\"workers\":{},\"draining\":{},\
         \"latency_micros\":{{{}}}}}",
        s.submitted.load(Ordering::Relaxed),
        s.completed.load(Ordering::Relaxed),
        s.failed.load(Ordering::Relaxed),
        s.dedup_cache.load(Ordering::Relaxed),
        s.dedup_inflight.load(Ordering::Relaxed),
        s.rejected_queue_full.load(Ordering::Relaxed),
        s.recovered.load(Ordering::Relaxed),
        s.journal_skipped.load(Ordering::Relaxed),
        service.queue_len(),
        service.job_count(),
        service.config.workers,
        service.draining(),
        latency.join(","),
    )
}
