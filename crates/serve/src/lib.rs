//! `ipsim-serve`: the long-running experiment service.
//!
//! The batch CLI answers "run this sweep now, in this terminal". This
//! crate answers the production question: a daemon that accepts
//! experiment specs over HTTP/JSON, executes them on the shared
//! [`ipsim_harness`] worker pool, dedups identical work (content-
//! addressed at both the run and job level), and survives being killed
//! at any instant via an fsynced append-only journal.
//!
//! Everything is hand-rolled over `std::net` — the workspace's
//! vendored-only dependency policy applies to the service exactly as it
//! does to the simulator.
//!
//! * [`http`] — a bounded, minimal HTTP/1.1 reader/writer.
//! * [`wire`](ipsim_harness::wire) — the versioned job-spec encoding
//!   (lives in the harness so the CLI and daemon share one schema).
//! * [`journal`] — the crash-safe job journal (JSONL + fsync + torn-tail
//!   tolerant recovery + startup compaction).
//! * [`state`] — job table, bounded queue, dedup/coalescing, workers,
//!   recovery.
//! * [`server`] — the accept loop and the six `/v1` endpoints.
//! * [`metrics`] — the daemon's [`ipsim_obs`] metric handles backing
//!   `GET /v1/metrics` and the request spans.
//! * [`client`] — a tiny blocking client (load generator, tests,
//!   scripting).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod journal;
pub mod metrics;
pub mod server;
pub mod state;

pub use journal::{Event, Journal, RunResult};
pub use metrics::ServeMetrics;
pub use server::{start, ServerHandle};
pub use state::{Job, JobState, ServeConfig, Service, SubmitError, SubmitOutcome};
