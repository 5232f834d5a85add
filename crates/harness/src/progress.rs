//! Live sweep progress on stderr: `N/M runs, ETA`.
//!
//! Progress goes to **stderr** so it never contaminates figure output or
//! the `results/*.txt` files. On a terminal it renders as a single
//! carriage-return-updated line; when stderr is redirected (CI logs) it
//! falls back to one plain line per completed run, so logs stay greppable.

use std::io::{IsTerminal, Write};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::runlog::RunRecord;

/// How progress should be reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressMode {
    /// Live line if stderr is a terminal, plain lines otherwise.
    Auto,
    /// Single `\r`-updated status line.
    Live,
    /// One line per completed run.
    Plain,
    /// No output (tests).
    Silent,
}

/// Thread-safe progress meter shared by the worker pool.
pub struct Progress {
    mode: ProgressMode,
    total: usize,
    done: AtomicUsize,
    cached: AtomicU64,
    started: Instant,
    // Sweep-aggregate kernel throughput: Σ measured M-instrs and Σ kernel
    // seconds across executed runs, so `finish` can report total measured
    // work over total kernel time (not an unweighted mean of per-run
    // rates, which short runs would skew).
    kernel: Mutex<(f64, f64)>,
    // Serialises stderr writes so live-line updates never interleave.
    write_lock: Mutex<()>,
}

impl Progress {
    /// A meter for `total` runs.
    pub fn new(mode: ProgressMode, total: usize) -> Progress {
        let mode = match mode {
            ProgressMode::Auto if std::io::stderr().is_terminal() => ProgressMode::Live,
            ProgressMode::Auto => ProgressMode::Plain,
            other => other,
        };
        Progress {
            mode,
            total,
            done: AtomicUsize::new(0),
            cached: AtomicU64::new(0),
            started: Instant::now(),
            kernel: Mutex::new((0.0, 0.0)),
            write_lock: Mutex::new(()),
        }
    }

    /// Records one completed run and updates the display.
    pub fn on_run(&self, record: &RunRecord) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if record.cached() {
            self.cached.fetch_add(1, Ordering::Relaxed);
        }
        if record.sim_s > 0.0 {
            let mut kernel = self.kernel.lock().unwrap();
            kernel.0 += record.sim_mips * record.sim_s;
            kernel.1 += record.sim_s;
        }
        if self.mode == ProgressMode::Silent {
            return;
        }
        let cached = self.cached.load(Ordering::Relaxed);
        let eta = self.eta_secs(done);
        let _guard = self.write_lock.lock().unwrap();
        let mut err = std::io::stderr().lock();
        match self.mode {
            ProgressMode::Live => {
                let _ = write!(
                    err,
                    "\r[{done}/{total}] runs · {cached} cached · last {label} {wall:.1}s{perf} · ETA {eta}   ",
                    total = self.total,
                    label = record.label,
                    wall = record.wall_s,
                    perf = perf_suffix(record),
                    eta = fmt_eta(eta),
                );
            }
            ProgressMode::Plain => {
                let what = if record.cached() {
                    "cached".to_string()
                } else if record.ok {
                    format!(
                        "{} {:.1}s ({:.1} MIPS{})",
                        record.source.as_str(),
                        record.wall_s,
                        record.mips,
                        perf_suffix(record),
                    )
                } else {
                    "FAILED".to_string()
                };
                let _ = writeln!(
                    err,
                    "[{done}/{total}] {label}: {what} · ETA {eta}",
                    total = self.total,
                    label = record.label,
                    eta = fmt_eta(eta),
                );
            }
            ProgressMode::Auto | ProgressMode::Silent => unreachable!("mode resolved in new()"),
        }
    }

    /// Sweep-aggregate kernel throughput: total measured instructions over
    /// total kernel seconds across every executed (non-cached) run so far.
    /// `None` until at least one run simulated.
    pub fn aggregate_sim_mips(&self) -> Option<f64> {
        let kernel = self.kernel.lock().unwrap();
        (kernel.1 > 0.0).then(|| kernel.0 / kernel.1)
    }

    /// Ends the display (terminates the live line) and, when any run
    /// actually simulated, reports the sweep-aggregate kernel throughput.
    pub fn finish(&self) {
        if self.mode == ProgressMode::Silent {
            return;
        }
        let _guard = self.write_lock.lock().unwrap();
        let mut err = std::io::stderr().lock();
        if self.mode == ProgressMode::Live {
            let _ = writeln!(err);
        }
        let kernel = self.kernel.lock().unwrap();
        if kernel.1 > 0.0 {
            let _ = writeln!(
                err,
                "sweep kernel: {:.1} sim-MIPS aggregate over {:.1}s simulated",
                kernel.0 / kernel.1,
                kernel.1,
            );
        }
    }

    /// Naive ETA: average pace so far times work remaining. Cache hits make
    /// this an overestimate that corrects itself within a few runs.
    fn eta_secs(&self, done: usize) -> u64 {
        if done == 0 || done >= self.total {
            return 0;
        }
        let elapsed = self.started.elapsed().as_secs_f64();
        (elapsed / done as f64 * (self.total - done) as f64).round() as u64
    }
}

/// Per-run performance detail appended to progress lines: kernel-only
/// throughput (`sim_mips`, added to the run log in v3 but previously
/// never displayed) and — when telemetry sampled the run — the last
/// interval's live L1I miss rate. Empty for cache hits and failures.
fn perf_suffix(record: &RunRecord) -> String {
    let mut out = String::new();
    if record.sim_mips > 0.0 {
        out.push_str(&format!(" · {:.1} sim-MIPS", record.sim_mips));
    }
    if record.iv_mpki > 0.0 {
        out.push_str(&format!(" · i$ {:.1}m/KI", record.iv_mpki));
    }
    out
}

/// `73s` below two minutes, `m:ss` above.
fn fmt_eta(secs: u64) -> String {
    if secs < 120 {
        format!("{secs}s")
    } else {
        format!("{}:{:02}", secs / 60, secs % 60)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_suffix_shows_sim_mips_and_interval_miss_rate() {
        let mut rec = RunRecord {
            key: "k".into(),
            label: "l".into(),
            source: crate::traces::RunSource::Live,
            ok: true,
            wall_s: 1.0,
            sim_instructions: 1,
            mips: 1.0,
            sim_mips: 0.0,
            sim_s: 0.0,
            decode_mips: 0.0,
            l1i_mpi: 0.0,
            iv_mpki: 0.0,
            telemetry_events: 0,
        };
        assert_eq!(perf_suffix(&rec), "");
        rec.sim_mips = 42.25;
        assert_eq!(perf_suffix(&rec), " · 42.2 sim-MIPS");
        rec.iv_mpki = 18.04;
        assert_eq!(perf_suffix(&rec), " · 42.2 sim-MIPS · i$ 18.0m/KI");
    }

    #[test]
    fn eta_formatting() {
        assert_eq!(fmt_eta(0), "0s");
        assert_eq!(fmt_eta(119), "119s");
        assert_eq!(fmt_eta(120), "2:00");
        assert_eq!(fmt_eta(3599), "59:59");
    }

    #[test]
    fn silent_mode_counts_without_printing() {
        let p = Progress::new(ProgressMode::Silent, 2);
        let rec = RunRecord {
            key: "k".into(),
            label: "l".into(),
            source: crate::traces::RunSource::Cache,
            ok: true,
            wall_s: 0.0,
            sim_instructions: 0,
            mips: 0.0,
            sim_mips: 0.0,
            sim_s: 0.0,
            decode_mips: 0.0,
            l1i_mpi: 0.0,
            iv_mpki: 0.0,
            telemetry_events: 0,
        };
        p.on_run(&rec);
        p.on_run(&rec);
        p.finish();
        assert_eq!(p.done.load(Ordering::Relaxed), 2);
        assert_eq!(p.cached.load(Ordering::Relaxed), 2);
        assert_eq!(p.aggregate_sim_mips(), None, "cache hits don't aggregate");
    }

    /// The aggregate is instruction-weighted: a long slow run dominates a
    /// short fast one, matching "total work over total time".
    #[test]
    fn aggregate_sim_mips_weights_by_kernel_seconds() {
        let p = Progress::new(ProgressMode::Silent, 2);
        let mut rec = RunRecord {
            key: "k".into(),
            label: "l".into(),
            source: crate::traces::RunSource::Live,
            ok: true,
            wall_s: 1.0,
            sim_instructions: 1,
            mips: 1.0,
            sim_mips: 100.0,
            sim_s: 1.0,
            decode_mips: 0.0,
            l1i_mpi: 0.0,
            iv_mpki: 0.0,
            telemetry_events: 0,
        };
        p.on_run(&rec);
        rec.sim_mips = 10.0;
        rec.sim_s = 9.0;
        p.on_run(&rec);
        // 100 M-instr in 1 s + 90 M-instr in 9 s = 190 M-instr / 10 s.
        let agg = p.aggregate_sim_mips().unwrap();
        assert!((agg - 19.0).abs() < 1e-9, "{agg}");
    }
}
