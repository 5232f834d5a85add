//! The traced run: per-layer metrics, timed from outside the program.
//!
//! Iterations alternate instrumentation off and on for `--seconds`. The
//! traced ones record spans around every public call the benchmark makes
//! (its own `span`s) and the harness's existing spans; a layer's time is
//! the sum of its spans per traced iteration, and a span's self time is
//! its duration minus its direct children's. A probe then times single
//! layers in isolation over one decoded stream of the workload: the
//! walker, the stream codec, the L1I cache and the engine differentials.
//! All spans are exported as a Chrome trace next to the checkout's
//! working files.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ipsim_cache::SetAssocCache;
use ipsim_core::PrefetcherKind;
use ipsim_cpu::{OpSource, SystemBuilder, SystemMetrics, WorkloadSet};
use ipsim_harness::hash::fnv1a64;
use ipsim_harness::{RunLengths, RunSpec, Summary};
use ipsim_obs::span::SpanRecord;
use ipsim_prefetch::ZooPlan;
use ipsim_stream::{ArenaSource, TraceReader, TraceWriter};
use ipsim_telemetry::sink::validate_chrome_trace;
use ipsim_telemetry::ZooSchemeRow;
use ipsim_types::instr::{OpKind, TraceOp};
use ipsim_types::{Addr, LineAddr, SystemConfig};

use crate::common::{cmp_sets, median, seeded, single_sets};
use crate::live::TelemetryOut;
use crate::{figsweep, iterate, span, Check, Detail, Iteration, Metrics, Tally, Workload};

/// Repetitions of each probe measurement (medians are reported).
const PROBE_REPS: usize = 5;

/// Directory the span trace is written to, relative to the checkout.
const OUT_DIR: &str = ".perfbench_out";

pub fn traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    dir: &Path,
    tally: &mut Tally,
) -> Metrics {
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    while traced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        for on in [false, true] {
            ipsim_obs::set_enabled(on);
            let it = iterate(workload, seed, dir, false);
            ipsim_obs::set_enabled(false);
            if on {
                traced.push(it.wall_s);
                last = Some(sim_counts(&it, seed));
            } else {
                plain.push(it.wall_s);
            }
            tally.add(it);
        }
    }
    let spans = Spans::new(&ipsim_obs::spans().completed(), traced.len());
    let last = last.expect("at least one traced iteration");

    ipsim_obs::set_enabled(true);
    let probe = probe(workload, seed);
    ipsim_obs::set_enabled(false);
    let mut m = layer_metrics(workload, &spans, &last, &probe);
    m.insert(
        "trace_overhead_frac",
        (median(&traced) / median(&plain) - 1.0, "frac"),
    );
    let figsweep_probe_ok = match &last.figsweep {
        // The probe's no-prefetch leg replays the sweep's Default/DB run.
        Some(f) => f.default_db_digest == Some(probe.none_digest),
        None => true,
    };
    let trace_ok = write_span_trace(workload);
    tally.add_probe(Check {
        run: "probe".to_string(),
        ok: probe.ok && figsweep_probe_ok && trace_ok,
        digest: 0,
        artifact: None,
    });
    m
}

/// Writes every recorded span as a Chrome trace under [`OUT_DIR`] after
/// checking it with the telemetry validator; returns whether both worked.
fn write_span_trace(workload: Workload) -> bool {
    let mut bytes = Vec::new();
    if ipsim_obs::spans().write_chrome_trace(&mut bytes).is_err() {
        return false;
    }
    let valid = std::str::from_utf8(&bytes).is_ok_and(|t| validate_chrome_trace(t).is_ok());
    let path = PathBuf::from(OUT_DIR).join(format!("{}.spans.trace.json", workload.name()));
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, &bytes));
    if written.is_ok() {
        eprintln!("perfbench: span trace written to {}", path.display());
    }
    valid && written.is_ok() && ipsim_obs::spans().dropped() == 0
}

/// Span totals per name, per traced iteration.
struct Spans {
    total: BTreeMap<String, f64>,
    self_time: BTreeMap<String, f64>,
}

impl Spans {
    fn new(records: &[SpanRecord], iterations: usize) -> Spans {
        let mut child_time: BTreeMap<u64, u64> = BTreeMap::new();
        for r in records {
            if let Some(parent) = r.parent {
                *child_time.entry(parent).or_default() += r.dur_micros;
            }
        }
        let per_iteration = 1e-6 / iterations as f64;
        let (mut total, mut self_time) = (BTreeMap::new(), BTreeMap::new());
        for r in records {
            let own = r
                .dur_micros
                .saturating_sub(child_time.get(&r.id).copied().unwrap_or(0));
            *total.entry(r.name.clone()).or_insert(0.0) += r.dur_micros as f64 * per_iteration;
            *self_time.entry(r.name.clone()).or_insert(0.0) += own as f64 * per_iteration;
        }
        Spans { total, self_time }
    }

    /// Seconds per traced iteration inside spans named `name`.
    fn total(&self, name: &str) -> f64 {
        self.total.get(name).copied().unwrap_or(0.0)
    }

    /// Self seconds per traced iteration of spans named `name`.
    fn self_s(&self, name: &str) -> f64 {
        self.self_time.get(name).copied().unwrap_or(0.0)
    }
}

/// What the per-layer metrics need from a traced iteration.
struct SimCounts {
    wall_s: f64,
    instructions: u64,
    /// Measured metrics of every live column (empty for the sweep).
    columns: Vec<SystemMetrics>,
    /// Zoo counters summed over every core and scheme.
    zoo: ZooSchemeRow,
    /// Telemetry summed over the columns.
    telemetry: TelemetryOut,
    figsweep: Option<SweepCounts>,
}

struct SweepCounts {
    summaries: Vec<Summary>,
    jobs_total: u64,
    jobs_unique: u64,
    kernel_s: f64,
    /// Digest of the Figure 1 Default/DB run, the probe's twin.
    default_db_digest: Option<u64>,
}

fn sim_counts(it: &Iteration, seed: u64) -> SimCounts {
    let mut counts = SimCounts {
        wall_s: it.wall_s,
        instructions: it.instructions,
        columns: Vec::new(),
        zoo: ZooSchemeRow::default(),
        telemetry: TelemetryOut::default(),
        figsweep: None,
    };
    match &it.detail {
        Detail::Live(columns) => {
            for c in columns {
                counts.columns.push(c.metrics.clone());
                for row in &c.zoo_rows {
                    counts.zoo.issued += row.issued;
                    counts.zoo.useful += row.useful;
                    counts.zoo.evicted_unused += row.evicted_unused;
                }
                counts.telemetry.events += c.telemetry.events;
                counts.telemetry.dropped += c.telemetry.dropped;
                counts.telemetry.bytes += c.telemetry.bytes;
            }
        }
        Detail::Sweep { report, runs } => {
            let key = default_db_spec(seed).cache_key();
            counts.figsweep = Some(SweepCounts {
                summaries: runs.values().cloned().collect(),
                jobs_total: report.total_jobs as u64,
                jobs_unique: report.unique_jobs as u64,
                kernel_s: report
                    .aggregate_sim_mips
                    .map_or(0.0, |mips| it.instructions as f64 / 1e6 / mips),
                default_db_digest: it.checks.iter().find(|c| c.run == key).map(|c| c.digest),
            });
        }
    }
    counts
}

/// The Figure 1 Default/DB run of a seed: single core, default caches,
/// no prefetcher, the sweep's lengths.
fn default_db_spec(seed: u64) -> RunSpec {
    let db = single_sets(seed).remove(0);
    RunSpec::new(SystemConfig::single_core(), db, figsweep::LENGTHS)
}

/// Single-layer timings over one decoded stream of the workload: core
/// 0's DB stream (identical to the single-core DB stream of the same
/// seeds) at the workload's lengths.
struct Probe {
    synth_s: f64,
    walk_ns_per_op: f64,
    encode_ns_per_op: f64,
    decode_ns_per_op: f64,
    bytes_per_op: f64,
    l1i_access_ns: f64,
    /// No-prefetch, discontinuity and zoo-of-one-`disc` measured windows,
    /// ns per simulated instruction.
    none_ns: f64,
    disc_ns: f64,
    zoo_ns: f64,
    build_s: f64,
    warm_s: f64,
    /// The no-prefetch leg's metrics and their summary digest.
    none: SystemMetrics,
    none_digest: u64,
    /// Decode round trip exact, legs simulated the full window.
    ok: bool,
}

/// Times `f` `PROBE_REPS` times; returns the median seconds and the last
/// result.
fn timed_reps<T>(name: &str, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(PROBE_REPS);
    let mut out = None;
    for _ in 0..PROBE_REPS {
        let _s = span(name);
        let t = Instant::now();
        out = Some(std::hint::black_box(f()));
        secs.push(t.elapsed().as_secs_f64());
    }
    (median(&secs), out.expect("PROBE_REPS > 0"))
}

fn probe(workload: Workload, seed: u64) -> Probe {
    let (warm, measure) = workload.lengths();
    let n = (warm + measure) as usize;
    let db = seeded(WorkloadSet::homogeneous(ipsim_trace::Workload::Db), seed);

    // The programs one iteration synthesises: the sweep's nine streams,
    // or the live workloads' five CMP columns.
    let (synth_s, _) = timed_reps("probe.build_program", || match workload {
        Workload::FigsweepReplay => {
            let mut programs: Vec<_> = single_sets(seed).iter().map(|ws| ws.programs(1)).collect();
            programs.extend(cmp_sets(seed).iter().map(|ws| ws.programs(4)));
            programs
        }
        _ => cmp_sets(seed).iter().map(|ws| ws.programs(4)).collect(),
    });

    // Buffers are reused across repetitions so page faults stay out of
    // every repetition but the first.
    let programs = db.programs(1);
    let zero = TraceOp {
        pc: Addr(0),
        kind: OpKind::Other,
    };
    let mut ops = vec![zero; n];
    let (walk_s, ()) = timed_reps("probe.walk", || {
        let mut walker = db.walker(&programs, 0);
        for chunk in ops.chunks_mut(4096) {
            walker.next_block(chunk);
        }
    });
    let (encode_s, bytes) = timed_reps("probe.encode", || {
        let mut writer = TraceWriter::new(Vec::new(), 0, "perfbench probe").expect("in memory");
        for op in &ops {
            writer.append(op).expect("in memory");
        }
        writer.finish_into().expect("in memory").0
    });
    let mut decoded = Vec::with_capacity(n);
    let (decode_s, ()) = timed_reps("probe.decode", || {
        decoded.clear();
        let mut reader = TraceReader::open(Cursor::new(bytes.as_slice())).expect("just written");
        reader.decode_all_into(&mut decoded).expect("just written");
    });

    let l1i = SystemConfig::single_core().core.l1i;
    let mut lines: Vec<LineAddr> = ops.iter().map(|op| op.pc.line(l1i.line())).collect();
    lines.dedup();
    let (cache_s, _) = timed_reps("probe.l1i_access", || {
        let mut cache = SetAssocCache::new(l1i);
        lines
            .iter()
            .filter(|&&line| cache.access(line).is_hit())
            .count()
    });

    // Interleave the three engine legs so host drift hits all alike.
    let disc_zoo = ZooPlan::parse("disc").expect("registered scheme");
    let legs = [
        ("probe.measure.none", SystemBuilder::single_core()),
        (
            "probe.measure.disc",
            SystemBuilder::single_core().prefetcher(PrefetcherKind::discontinuity_default()),
        ),
        (
            "probe.measure.zoo",
            SystemBuilder::single_core().zoo(disc_zoo),
        ),
    ];
    let lengths = RunLengths { warm, measure };
    let mut secs: [Vec<f64>; 3] = Default::default();
    let (mut build, mut warmup) = (Vec::new(), Vec::new());
    let mut none = SystemMetrics::default();
    let mut full = true;
    for _ in 0..PROBE_REPS {
        for (i, (name, builder)) in legs.iter().enumerate() {
            let run = run_leg(name, builder.clone(), &ops, lengths);
            full &= run.metrics.instructions() == measure;
            secs[i].push(run.measure_s);
            if i == 0 {
                build.push(run.build_s);
                warmup.push(run.warm_s);
                none = run.metrics;
            }
        }
    }
    let ns = |i: usize| median(&secs[i]) * 1e9 / measure as f64;
    let per_op = |s: f64| s * 1e9 / n as f64;
    Probe {
        synth_s,
        walk_ns_per_op: per_op(walk_s),
        encode_ns_per_op: per_op(encode_s),
        decode_ns_per_op: per_op(decode_s),
        bytes_per_op: bytes.len() as f64 / n as f64,
        l1i_access_ns: cache_s * 1e9 / lines.len() as f64,
        none_ns: ns(0),
        disc_ns: ns(1),
        zoo_ns: ns(2),
        build_s: median(&build),
        warm_s: median(&warmup),
        none_digest: fnv1a64(Summary::from_metrics(&none).to_tsv().as_bytes()),
        none,
        ok: decoded == ops && full,
    }
}

struct Leg {
    build_s: f64,
    warm_s: f64,
    measure_s: f64,
    metrics: SystemMetrics,
}

/// Builds one single-core system and runs it over the decoded `ops`.
fn run_leg(name: &str, builder: SystemBuilder, ops: &[TraceOp], lengths: RunLengths) -> Leg {
    let t0 = Instant::now();
    let mut system = {
        let _s = span("probe.build");
        builder.build().expect("benchmark configuration is valid")
    };
    let build_s = t0.elapsed().as_secs_f64();
    let mut source = ArenaSource::new(ops);
    let mut sources: [&mut dyn OpSource; 1] = [&mut source];
    let t1 = Instant::now();
    {
        let _s = span("probe.warm");
        system.run(&mut sources, lengths.warm);
    }
    system.reset_stats();
    let warm_s = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    {
        let _s = span(name);
        system.run(&mut sources, lengths.measure);
    }
    Leg {
        build_s,
        warm_s,
        measure_s: t2.elapsed().as_secs_f64(),
        metrics: system.metrics(),
    }
}

/// Every per-layer metric, for any workload; a layer the workload does
/// not exercise reads 0.
fn layer_metrics(workload: Workload, spans: &Spans, c: &SimCounts, p: &Probe) -> Metrics {
    let mut m = Metrics::new();
    let sweep = c.figsweep.as_ref();
    let live = workload != Workload::FigsweepReplay;

    // The sweep's summaries carry no cycles, line fetches or bus counts;
    // for it those come from the probe's no-prefetch leg, which replays
    // the sweep's Figure 1 Default/DB run exactly.
    let cpu: Vec<&SystemMetrics> = if live {
        c.columns.iter().collect()
    } else {
        vec![&p.none]
    };
    let sum = |f: &dyn Fn(&SystemMetrics) -> f64| cpu.iter().map(|m| f(m)).sum::<f64>();
    let cycles = sum(&|m| m.cores.iter().map(|c| c.cycles as f64).sum());
    let line_fetches = sum(&|m| m.cores.iter().map(|c| c.line_fetches as f64).sum());
    let measure_s = spans.total("cpu.measure");

    m.insert(
        "trace.synth_s",
        (
            if live {
                spans.total("trace.build_program")
            } else {
                p.synth_s
            },
            "s",
        ),
    );
    m.insert("trace.walk_ns_per_op", (p.walk_ns_per_op, "ns/op"));
    m.insert("stream.encode_ns_per_op", (p.encode_ns_per_op, "ns/op"));
    m.insert("stream.decode_ns_per_op", (p.decode_ns_per_op, "ns/op"));
    m.insert("stream.bytes_per_op", (p.bytes_per_op, "B/op"));

    m.insert(
        "cpu.build_s",
        (
            if live {
                spans.total("cpu.build")
            } else {
                p.build_s
            },
            "s",
        ),
    );
    m.insert(
        "cpu.warm_s",
        (
            if live {
                spans.total("cpu.warm")
            } else {
                p.warm_s
            },
            "s",
        ),
    );
    let (ns_per_instr, ns_per_fetch) = if live {
        let ns = measure_s * 1e9;
        (ns / c.instructions as f64, ns / line_fetches)
    } else {
        let ns = p.none_ns * p.none.instructions() as f64;
        (p.none_ns, ns / line_fetches)
    };
    m.insert("cpu.ns_per_instr", (ns_per_instr, "ns/instr"));
    m.insert("cpu.ns_per_line_fetch", (ns_per_fetch, "ns/fetch"));
    m.insert("cpu.instructions", (c.instructions as f64, "count"));
    m.insert("cpu.cycles", (cycles, "count"));
    let ipc = sum(&|m| m.ipc()) / cpu.len() as f64;
    m.insert("cpu.ipc", (ipc, "instr/cycle"));
    m.insert("cpu.line_fetches", (line_fetches, "count"));
    m.insert(
        "cpu.bus_transfers",
        (sum(&|m| m.bus_transfers as f64), "count"),
    );
    m.insert(
        "cpu.bus_queue_cycles",
        (sum(&|m| m.bus_queue_cycles), "cycles"),
    );

    m.insert("cache.l1i_access_ns", (p.l1i_access_ns, "ns/access"));
    let (l1i, l2i, l2d) = match sweep {
        Some(s) => s.summaries.iter().fold((0.0, 0.0, 0.0), |(a, b, d), x| {
            (
                a + x.l1i_breakdown.total() as f64,
                b + x.l2i_breakdown.total() as f64,
                d + (x.l2d_mpi * x.instructions as f64).round(),
            )
        }),
        None => (
            sum(&|m| m.l1i_miss_breakdown().total() as f64),
            sum(&|m| m.mem.l2_instr_misses.total() as f64),
            sum(&|m| m.mem.l2_data_misses as f64),
        ),
    };
    m.insert("cache.l1i_misses", (l1i, "count"));
    m.insert("cache.l2_instr_misses", (l2i, "count"));
    m.insert("cache.l2_data_misses", (l2d, "count"));

    m.insert("core.pf_ns_per_instr", (p.disc_ns - p.none_ns, "ns/instr"));
    let mut pf = ipsim_core::PrefetchStats::default();
    if live {
        for metrics in &c.columns {
            pf.merge(&metrics.prefetch());
        }
    }
    m.insert("core.pf_generated", (pf.generated as f64, "count"));
    m.insert("core.pf_issued", (pf.issued as f64, "count"));
    m.insert("core.pf_useful", (pf.useful as f64, "count"));
    m.insert("core.pf_late", (pf.late as f64, "count"));
    m.insert("core.pf_accuracy", (pf.accuracy(), "frac"));
    let dropped = pf.filtered_recent + pf.probe_hits + pf.inflight_hits;
    m.insert(
        "core.pf_filter_drop_frac",
        (ratio(dropped as f64, pf.generated as f64), "frac"),
    );

    m.insert(
        "prefetch.zoo_gap_ns_per_instr",
        (p.zoo_ns - p.disc_ns, "ns/instr"),
    );
    let zoo = &c.zoo;
    m.insert("prefetch.zoo_issued", (zoo.issued as f64, "count"));
    m.insert("prefetch.zoo_useful", (zoo.useful as f64, "count"));
    m.insert(
        "prefetch.zoo_evicted_unused",
        (zoo.evicted_unused as f64, "count"),
    );
    m.insert(
        "prefetch.zoo_accuracy",
        (ratio(zoo.useful as f64, zoo.issued as f64), "frac"),
    );

    let t = &c.telemetry;
    m.insert("telemetry.events", (t.events as f64, "count"));
    m.insert("telemetry.events_dropped", (t.dropped as f64, "count"));
    m.insert("telemetry.bytes", (t.bytes as f64, "B"));
    m.insert(
        "telemetry.serialize_s",
        (spans.total("telemetry.serialize"), "s"),
    );

    let (jobs_total, jobs_unique, kernel_s) =
        sweep.map_or((0, 0, 0.0), |s| (s.jobs_total, s.jobs_unique, s.kernel_s));
    m.insert("harness.jobs_total", (jobs_total as f64, "count"));
    m.insert("harness.jobs_unique", (jobs_unique as f64, "count"));
    m.insert(
        "harness.capture_s",
        (spans.total("harness.store_execute"), "s"),
    );
    m.insert("harness.plan_s", (spans.total("sweep.plan"), "s"));
    m.insert("harness.run_self_s", (spans.self_s("harness.run"), "s"));
    m.insert("harness.replay_self_s", (spans.self_s("trace.replay"), "s"));
    m.insert("harness.cache_probe_s", (spans.total("cache.probe"), "s"));
    m.insert("harness.cache_insert_s", (spans.total("cache.insert"), "s"));
    m.insert("harness.render_s", (spans.total("sweep.render"), "s"));
    m.insert("harness.kernel_frac", (kernel_s / c.wall_s, "frac"));
    m
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
