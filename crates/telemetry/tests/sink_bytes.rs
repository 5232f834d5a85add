//! Differential and I/O tests for the staged sink writers and the span
//! export. Every writer must produce exactly the bytes its per-fragment
//! reference model in `reference/` produces, must report a failing
//! output as `Err` (never `Ok` with a truncated artifact), and must hand
//! its output whole 64 KiB chunks rather than one write per fragment.

mod reference;

use std::io::{self, Write};

use ipsim_obs::SpanRecorder;
use ipsim_telemetry::sink::{
    write_chrome_trace, write_component_summary_tsv, write_events_jsonl, write_series_tsv,
    write_zoo_tsv,
};
use ipsim_telemetry::{
    CoreTrace, PfComponent, PfEvent, PfEventKind, SampleRow, TelemetryRun, ZooSchemeRow,
};
use ipsim_types::LineAddr;
use proptest::prelude::*;

/// A writer run into any output.
type WriteFn<'a> = Box<dyn Fn(&mut dyn Write) -> io::Result<()> + 'a>;

/// The five sink writers and the span export over the same inputs: each
/// artifact's name, its writer and its reference model.
fn writers<'a>(
    run: &'a TelemetryRun,
    spans: &'a SpanRecorder,
) -> Vec<(&'static str, WriteFn<'a>, WriteFn<'a>)> {
    vec![
        (
            "events.jsonl",
            Box::new(|mut w| write_events_jsonl(&mut w, run)),
            Box::new(|mut w| reference::write_events_jsonl(&mut w, run)),
        ),
        (
            "trace.json",
            Box::new(|mut w| write_chrome_trace(&mut w, run)),
            Box::new(|mut w| reference::write_chrome_trace(&mut w, run)),
        ),
        (
            "series.tsv",
            Box::new(|mut w| write_series_tsv(&mut w, &run.samples)),
            Box::new(|mut w| reference::write_series_tsv(&mut w, &run.samples)),
        ),
        (
            "summary.tsv",
            Box::new(|mut w| write_component_summary_tsv(&mut w, run)),
            Box::new(|mut w| reference::write_component_summary_tsv(&mut w, run)),
        ),
        (
            "zoo.tsv",
            Box::new(|mut w| write_zoo_tsv(&mut w, &run.zoo)),
            Box::new(|mut w| reference::write_zoo_tsv(&mut w, &run.zoo)),
        ),
        (
            "spans.trace.json",
            Box::new(|mut w| spans.write_chrome_trace(&mut w)),
            Box::new(|mut w| reference::write_span_trace(spans, &mut w)),
        ),
    ]
}

fn render(write: &WriteFn<'_>) -> Vec<u8> {
    let mut out = Vec::new();
    write(&mut out).expect("writing into memory cannot fail");
    out
}

/// Asserts every writer's bytes equal its reference model's.
fn assert_byte_equal(run: &TelemetryRun, spans: &SpanRecorder) -> Result<(), TestCaseError> {
    for (name, new, reference) in writers(run, spans) {
        let (got, want) = (render(&new), render(&reference));
        prop_assert!(
            got == want,
            "{name}: {} bytes differ from the reference's {}; first difference at byte {}",
            got.len(),
            want.len(),
            got.iter().zip(&want).take_while(|(a, b)| a == b).count()
        );
    }
    Ok(())
}

/// The 64-bit values writers must get right: zero, the first integer a
/// JSON double cannot hold, and the largest.
const EDGES: [u64; 3] = [0, (1 << 53) + 1, u64::MAX];

fn any_value() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(EDGES[0]),
        Just(EDGES[1]),
        Just(EDGES[2]),
        0u64..100_000,
        any::<u64>(),
    ]
}

/// Characters a name must survive: plain ASCII, the two JSON-quoted
/// bytes, control bytes with and without short escapes, and multi-byte
/// UTF-8.
const PALETTE: [char; 16] = [
    'a', 'Z', ':', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '☕',
    '😀',
];

fn any_name() -> impl Strategy<Value = String> {
    prop::collection::vec(0..PALETTE.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| PALETTE[i]).collect())
}

fn any_event() -> impl Strategy<Value = PfEvent> {
    (
        any_value(),
        any_value(),
        0..PfComponent::COUNT,
        0..PfEventKind::COUNT,
    )
        .prop_map(|(cycle, line, c, k)| PfEvent {
            cycle,
            line: LineAddr(line),
            component: PfComponent::ALL[c],
            kind: PfEventKind::ALL[k],
        })
}

fn any_core() -> impl Strategy<Value = CoreTrace> {
    (
        prop::collection::vec(any_event(), 0..40),
        any_value(),
        prop::collection::vec(0u64..1 << 40, PfComponent::COUNT * PfEventKind::COUNT),
    )
        .prop_map(|(events, dropped, counts)| core_trace(events, dropped, &counts))
}

fn core_trace(events: Vec<PfEvent>, dropped: u64, counts: &[u64]) -> CoreTrace {
    let mut core = CoreTrace {
        events,
        dropped,
        ..CoreTrace::default()
    };
    for (i, &n) in counts.iter().enumerate() {
        core.components[i / PfEventKind::COUNT]
            .bump_by(PfEventKind::ALL[i % PfEventKind::COUNT], n);
    }
    core
}

fn any_sample() -> impl Strategy<Value = SampleRow> {
    (
        any::<u32>(),
        (any_value(), any_value(), any_value(), any_value()),
        (any_value(), any_value(), any_value(), any_value()),
        (any_value(), any_value(), any_value()),
    )
        .prop_map(|(core, a, b, c)| SampleRow {
            core,
            instrs: a.0,
            cycles: a.1,
            line_fetches: a.2,
            l1i_misses: a.3,
            l1d_misses: b.0,
            pf_issued: b.1,
            pf_useful: b.2,
            pf_late: b.3,
            pf_queue: c.0,
            l2_instr_misses: c.1,
            l2_prefetch_misses: c.2,
        })
}

fn any_zoo_row() -> impl Strategy<Value = ZooSchemeRow> {
    (
        (any::<u32>(), any::<u32>()),
        prop_oneof![
            Just("nl".to_string()),
            Just("disc:ahead=2".to_string()),
            Just("mana:degree=4,region_lines=16".to_string()),
        ],
        (any_value(), any_value(), any_value(), any_value()),
        (any_value(), any_value(), any_value()),
    )
        .prop_map(|((core, slot), scheme, a, b)| ZooSchemeRow {
            core,
            slot,
            scheme,
            generated: a.0,
            issued: a.1,
            filled: a.2,
            useful: a.3,
            late: b.0,
            evicted_used: b.1,
            evicted_unused: b.2,
        })
}

fn any_run() -> impl Strategy<Value = TelemetryRun> {
    (
        any_value(),
        prop::collection::vec(any_core(), 0..5),
        prop::collection::vec(any_sample(), 0..6),
        prop::collection::vec(any_zoo_row(), 0..8),
    )
        .prop_map(|(interval, cores, samples, zoo)| TelemetryRun {
            interval,
            cores,
            samples,
            zoo,
        })
}

/// A span: name, start, duration and parent.
fn any_span() -> impl Strategy<Value = (String, u64, u64, Option<u64>)> {
    (
        any_name(),
        any_value(),
        any_value(),
        prop_oneof![Just(None), any_value().prop_map(Some)],
    )
}

fn recorder(spans: &[(String, u64, u64, Option<u64>)]) -> SpanRecorder {
    let rec = SpanRecorder::new(spans.len().max(1));
    for (name, start, dur, parent) in spans {
        rec.record(name, *start, *dur, *parent);
    }
    rec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// All five sink writers and the span export write exactly the bytes
    /// their per-fragment reference models write, over 0-4 cores, every
    /// (component, kind) pair, edge-valued numbers and names that need
    /// escaping.
    #[test]
    fn staged_writers_match_the_reference_byte_for_byte(
        run in any_run(),
        spans in prop::collection::vec(any_span(), 0..12),
    ) {
        assert_byte_equal(&run, &recorder(&spans))?;
    }
}

/// Every (component, kind) pair at every edge value, on 0 to 4 cores.
fn every_pair_run(n_cores: usize) -> TelemetryRun {
    let cores = (0..n_cores)
        .map(|core| {
            let events = PfComponent::ALL
                .iter()
                .flat_map(|&component| {
                    PfEventKind::ALL.iter().flat_map(move |&kind| {
                        EDGES.iter().map(move |&v| PfEvent {
                            cycle: v,
                            line: LineAddr(v.rotate_left(core as u32)),
                            component,
                            kind,
                        })
                    })
                })
                .collect();
            core_trace(events, EDGES[core % 3], &[7; 36])
        })
        .collect();
    TelemetryRun {
        interval: 100_000,
        cores,
        samples: EDGES
            .iter()
            .enumerate()
            .map(|(i, &v)| SampleRow {
                core: i as u32,
                cycles: v,
                l1i_misses: v,
                pf_queue: v,
                ..SampleRow::default()
            })
            .collect(),
        zoo: vec![ZooSchemeRow {
            scheme: "nl".to_string(),
            generated: u64::MAX,
            ..ZooSchemeRow::default()
        }],
    }
}

#[test]
fn every_component_kind_pair_matches_the_reference() {
    let names: Vec<(String, u64, u64, Option<u64>)> = PALETTE
        .iter()
        .zip(EDGES.iter().cycle())
        .map(|(&c, &v)| (format!("span {c}{c}"), v, v, Some(v)))
        .collect();
    for n_cores in 0..=4 {
        let run = every_pair_run(n_cores);
        assert_eq!(run.total_events(), n_cores * 36 * EDGES.len());
        assert_byte_equal(&run, &recorder(&names)).unwrap();
    }
}

/// A run whose JSONL and Chrome trace span dozens of 64 KiB chunks, and
/// a span ring of a few hundred KiB.
fn large_inputs() -> (TelemetryRun, SpanRecorder) {
    let mut run = every_pair_run(3);
    for (core, trace) in run.cores.iter_mut().enumerate() {
        trace.events = (0..20_000u64)
            .map(|i| PfEvent {
                cycle: i * 37 + core as u64,
                line: LineAddr(0x7f00_0000 + i * 3),
                component: PfComponent::ALL[i as usize % 3],
                kind: PfEventKind::ALL[i as usize % 12],
            })
            .collect();
    }
    let spans: Vec<_> = (0..3_000u64)
        .map(|i| (format!("harness.run \"{i}\""), i * 10, i, Some(i / 2)))
        .collect();
    (run, recorder(&spans))
}

/// Accepts `left` more bytes, then fails: for good (a disk that fills
/// up), or once (an interrupted device that then recovers, so an error a
/// writer swallowed would leave a hole rather than a failing tail).
struct FailAfter {
    left: usize,
    recovers: bool,
    failed: bool,
}

impl Write for FailAfter {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        if self.left == 0 && !(self.recovers && self.failed) {
            self.failed = true;
            return Err(io::Error::other("device error"));
        }
        let n = if self.failed {
            bytes.len()
        } else {
            bytes.len().min(self.left)
        };
        self.left = self.left.saturating_sub(n);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_failing_output_is_an_error_never_a_truncated_ok() {
    let (run, spans) = large_inputs();
    let small = every_pair_run(1);
    let none = SpanRecorder::new(1);
    for (run, spans) in [(&run, &spans), (&small, &none)] {
        for (name, write, _) in writers(run, spans) {
            let total = render(&write).len();
            let mut cuts = vec![0, 1, total / 3, total / 2, total - 1];
            cuts.extend([64 * 1024 - 1, 64 * 1024, 64 * 1024 + 1].map(|c| c.min(total - 1)));
            for (k, recovers) in cuts.into_iter().flat_map(|k| [(k, false), (k, true)]) {
                let result = write(&mut FailAfter {
                    left: k,
                    recovers,
                    failed: false,
                });
                assert!(
                    result.is_err(),
                    "{name}: Ok though byte {k} of {total} failed (recovers: {recovers})"
                );
            }
            let mut roomy = FailAfter {
                left: total,
                recovers: false,
                failed: false,
            };
            write(&mut roomy).unwrap_or_else(|e| panic!("{name}: {e} with room for every byte"));
        }
    }
}

/// Counts `write` calls, accepting everything.
#[derive(Default)]
struct Counting {
    calls: usize,
    bytes: usize,
}

impl Write for Counting {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.calls += 1;
        self.bytes += bytes.len();
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn writers_hand_their_output_whole_64_kib_chunks() {
    let (run, spans) = large_inputs();
    let small = every_pair_run(2);
    for (run, spans) in [(&run, &spans), (&small, &spans)] {
        for (name, write, _) in writers(run, spans) {
            let mut out = Counting::default();
            write(&mut out).unwrap();
            assert!(
                out.calls <= out.bytes / (64 * 1024) + 2,
                "{name}: {} write calls for {} bytes",
                out.calls,
                out.bytes
            );
        }
    }
    // The two large artifacts really are multi-chunk here.
    let mut jsonl = Counting::default();
    write_events_jsonl(&mut jsonl, &run).unwrap();
    assert!(jsonl.bytes > 40 * 64 * 1024, "{} bytes", jsonl.bytes);
}
