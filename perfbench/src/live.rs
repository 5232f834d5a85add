//! `disc_cmp4_live` and `zoo_bakeoff_telemetry`: the 4-way CMP with L2
//! bypass over the five paper columns, fed by live walkers, entirely in
//! memory.
//!
//! Per column, set-up is program synthesis, `SystemBuilder::build` and
//! the warm-up `System::run`; the timed phase is the measured
//! `System::run` (plus, for the zoo, draining telemetry and serialising
//! it through the `ipsim_telemetry::sink` writers into memory).

use std::time::Instant;

use ipsim_cache::InstallPolicy;
use ipsim_core::PrefetcherKind;
use ipsim_cpu::{OpSource, SystemBuilder, SystemMetrics, WorkloadSet};
use ipsim_experiments::bakeoff::bakeoff_plan;
use ipsim_harness::hash::fnv1a64;
use ipsim_prefetch::SchemeCounters;
use ipsim_telemetry::sink::{
    parse_zoo_tsv, validate_chrome_trace, write_chrome_trace, write_component_summary_tsv,
    write_events_jsonl, write_series_tsv, write_zoo_tsv,
};
use ipsim_telemetry::{TelemetryConfig, TelemetryRun, ZooSchemeRow};
use ipsim_trace::TraceWalker;

use crate::common::{bytes_hash, cmp_sets, metrics_digest};
use crate::{span, Artifact, Check, Detail, Iteration};

/// Which of the two live workloads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Live {
    /// The paper's discontinuity prefetcher, direct.
    Disc,
    /// The seven-scheme bake-off zoo with telemetry on.
    Zoo,
}

impl Live {
    /// Warm-up and measured instructions per core.
    pub fn lengths(self) -> (u64, u64) {
        match self {
            Live::Disc => (500_000, 1_500_000),
            Live::Zoo => (200_000, 600_000),
        }
    }

    fn builder(self) -> SystemBuilder {
        let builder = SystemBuilder::cmp4().install_policy(InstallPolicy::BypassL2UntilUseful);
        match self {
            Live::Disc => builder.prefetcher(PrefetcherKind::discontinuity_default()),
            Live::Zoo => builder.zoo(bakeoff_plan()),
        }
    }
}

/// Telemetry of one zoo run, as serialised.
#[derive(Default)]
pub struct TelemetryOut {
    pub events: u64,
    pub dropped: u64,
    pub bytes: u64,
}

/// One measured column.
pub struct Column {
    pub metrics: SystemMetrics,
    pub zoo_rows: Vec<ZooSchemeRow>,
    pub telemetry: TelemetryOut,
}

/// Runs the five columns. With `validate`, each zoo column's Chrome
/// trace goes through `validate_chrome_trace`; otherwise only its hash is
/// kept, to be matched against a validated run (see [`Artifact`]).
pub fn iterate(live: Live, seed: u64, validate: bool) -> Iteration {
    let (warm, measure) = live.lengths();
    let (mut setup_s, mut wall_s, mut instructions) = (0.0, 0.0, 0);
    let (mut checks, mut columns) = (Vec::new(), Vec::new());
    for ws in cmp_sets(seed) {
        let (setup, wall, column, serialised) = run_column(live, &ws, warm, measure);
        setup_s += setup;
        wall_s += wall;
        let counted = column.metrics.instructions();
        instructions += counted;
        let mut check = Check {
            run: ws.name(),
            ok: counted == 4 * measure,
            digest: metrics_digest(&column.metrics),
            artifact: None,
        };
        if let Some(s) = serialised {
            check_zoo(&mut check, &column, &s, validate);
        }
        checks.push(check);
        columns.push(column);
    }
    Iteration {
        setup_s,
        wall_s,
        instructions,
        checks,
        detail: Detail::Live(columns),
    }
}

/// Adds a zoo column's telemetry to its check: the zoo TSV must parse
/// back to the system's own per-scheme counters, and the digest also
/// covers those counters, the telemetry counts and every serialised byte
/// (shadow attribution and telemetry feed nothing back into the
/// simulated machine, so its metrics alone would not pin them).
fn check_zoo(check: &mut Check, column: &Column, s: &Serialised, validate: bool) {
    let zoo_tsv = std::str::from_utf8(&s.zoo).unwrap_or_default();
    check.ok &= parse_zoo_tsv(zoo_tsv).is_ok_and(|rows| rows == column.zoo_rows);
    let t = &column.telemetry;
    let mut text = format!(
        "{:016x}|{}|{}|{}\n",
        check.digest, t.events, t.dropped, t.bytes
    );
    for buffer in [&s.jsonl, &s.chrome, &s.series, &s.summary, &s.zoo] {
        text.push_str(&format!("{:016x}\n", bytes_hash(buffer)));
    }
    for row in &column.zoo_rows {
        text.push_str(&format!("{row:?}\n"));
    }
    check.digest = fnv1a64(text.as_bytes());
    check.artifact = Some(Artifact {
        hash: bytes_hash(&s.chrome),
        valid: validate.then(|| {
            std::str::from_utf8(&s.chrome).is_ok_and(|t| validate_chrome_trace(t).is_ok())
        }),
    });
}

/// The zoo's telemetry as each sink writer serialised it.
struct Serialised {
    jsonl: Vec<u8>,
    chrome: Vec<u8>,
    series: Vec<u8>,
    summary: Vec<u8>,
    zoo: Vec<u8>,
}

fn run_column(
    live: Live,
    ws: &WorkloadSet,
    warm: u64,
    measure: u64,
) -> (f64, f64, Column, Option<Serialised>) {
    let t0 = Instant::now();
    let programs = {
        let _s = span("trace.build_program");
        ws.programs(4)
    };
    let mut system = {
        let _s = span("cpu.build");
        live.builder()
            .build()
            .expect("benchmark configuration is valid")
    };
    if live == Live::Zoo {
        system.enable_telemetry(TelemetryConfig::default());
    }
    let mut walkers: Vec<TraceWalker<'_>> = (0..4).map(|c| ws.walker(&programs, c)).collect();
    let mut sources: Vec<&mut dyn OpSource> =
        walkers.iter_mut().map(|w| w as &mut dyn OpSource).collect();
    {
        let _s = span("cpu.warm");
        system.run(&mut sources, warm);
    }
    system.reset_stats();
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    {
        let _s = span("cpu.measure");
        system.run(&mut sources, measure);
    }
    let metrics = system.metrics();
    let mut column = Column {
        metrics,
        zoo_rows: Vec::new(),
        telemetry: TelemetryOut::default(),
    };
    let mut serialised = None;
    if live == Live::Zoo {
        let run = {
            let _s = span("telemetry.take");
            system.take_telemetry().expect("telemetry was enabled")
        };
        let s = serialise(&run);
        column.telemetry = TelemetryOut {
            events: run.total_events() as u64,
            dropped: run.total_dropped(),
            bytes: [&s.jsonl, &s.chrome, &s.series, &s.summary, &s.zoo]
                .iter()
                .map(|b| b.len() as u64)
                .sum(),
        };
        serialised = Some(s);
    }
    let wall_s = t1.elapsed().as_secs_f64();

    if live == Live::Zoo {
        column.zoo_rows = zoo_rows(&system.zoo_scheme_stats());
    }
    (setup_s, wall_s, column, serialised)
}

/// The rows the zoo TSV must hold, rebuilt from the system's own
/// per-scheme counters (stats come in (core, slot) order).
fn zoo_rows(stats: &[(u32, String, SchemeCounters)]) -> Vec<ZooSchemeRow> {
    let mut rows: Vec<ZooSchemeRow> = Vec::with_capacity(stats.len());
    for (core, scheme, c) in stats {
        let slot = match rows.last() {
            Some(prev) if prev.core == *core => prev.slot + 1,
            _ => 0,
        };
        rows.push(ZooSchemeRow {
            core: *core,
            slot,
            scheme: scheme.clone(),
            generated: c.generated,
            issued: c.issued,
            filled: c.filled,
            useful: c.useful,
            late: c.late,
            evicted_used: c.evicted_used,
            evicted_unused: c.evicted_unused,
        });
    }
    rows
}

/// Serialises `run` through every sink writer into memory.
fn serialise(run: &TelemetryRun) -> Serialised {
    let _s = span("telemetry.serialize");
    let mut s = Serialised {
        jsonl: Vec::new(),
        chrome: Vec::new(),
        series: Vec::new(),
        summary: Vec::new(),
        zoo: Vec::new(),
    };
    let written = (|| -> std::io::Result<()> {
        {
            let _s = span("telemetry.write_events_jsonl");
            write_events_jsonl(&mut s.jsonl, run)?;
        }
        {
            let _s = span("telemetry.write_chrome_trace");
            write_chrome_trace(&mut s.chrome, run)?;
        }
        {
            let _s = span("telemetry.write_series_tsv");
            write_series_tsv(&mut s.series, &run.samples)?;
        }
        {
            let _s = span("telemetry.write_component_summary_tsv");
            write_component_summary_tsv(&mut s.summary, run)?;
        }
        let _s = span("telemetry.write_zoo_tsv");
        write_zoo_tsv(&mut s.zoo, &run.zoo)
    })();
    written.expect("writing into memory cannot fail");
    s
}
