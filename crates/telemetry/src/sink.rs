//! Artifact sinks: JSONL events, Chrome `trace_event` timeline, and TSV
//! dumps for the time series and the per-component summary.
//!
//! Every writer has a matching reader/validator built on the shared
//! `ipsim_obs::json` parser, so the CI smoke job can prove an artifact is
//! well-formed using the exporter's own definition of the format rather
//! than eyeball inspection. Line addresses are always encoded as `"0x…"`
//! hex strings — JSON numbers are doubles and a 64-bit line address does
//! not survive them; the readers take a JSON number as an integer only
//! when it is an exact one in `0..=2^53` ([`Json::as_u64`]).
//!
//! Every writer stages its output through [`ipsim_obs::stage`], so `W`
//! sees whole 64 KiB chunks and the rest at the end, never a fragment per
//! field. The two large artifacts, JSONL and the Chrome trace, also
//! render each lifecycle event from bytes pre-rendered per (component,
//! kind) and per core, with no `fmt` machinery per event.

use std::io::{self, Write};

use ipsim_obs::chrome::{Arg, ChromeTrace, Event, Phase, Shape};
use ipsim_obs::json::{self, Json};
use ipsim_obs::stage::{digits, Stage};
use ipsim_types::LineAddr;

use crate::event::{ComponentCounters, PfComponent, PfEvent, PfEventKind};
use crate::sampler::SampleRow;
use crate::{TelemetryRun, ZooSchemeRow};

/// Schema tag written into (and required from) the JSONL header line.
pub const JSONL_SCHEMA: &str = "ipsim-telemetry-v1";

/// Writes the lifecycle event trace as JSON Lines: one header object,
/// then one object per event in per-core emission order.
///
/// Each line is staged whole from three pre-rendered pieces and two
/// numbers: the core's `{"core":N,"cycle":` prefix, the cycle, the line
/// address, and a `","component":…,"kind":…"}` suffix looked up per
/// (component, kind). `W` sees 64 KiB chunks (see [`Stage`]).
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_events_jsonl<W: Write>(w: &mut W, run: &TelemetryRun) -> io::Result<()> {
    let mut stage = Stage::new(w);
    let buf = stage.buf();
    buf.extend_from_slice(br#"{"schema":""#);
    buf.extend_from_slice(JSONL_SCHEMA.as_bytes());
    buf.extend_from_slice(br#"","interval":"#);
    digits::<10>(buf, run.interval);
    buf.extend_from_slice(br#","cores":"#);
    digits::<10>(buf, run.cores.len() as u64);
    buf.extend_from_slice(br#","dropped":["#);
    for (i, trace) in run.cores.iter().enumerate() {
        if i > 0 {
            buf.push(b',');
        }
        digits::<10>(buf, trace.dropped);
    }
    buf.extend_from_slice(b"]}\n");
    let suffixes: Vec<Vec<u8>> = PfComponent::ALL
        .iter()
        .flat_map(|c| {
            PfEventKind::ALL.iter().map(move |k| {
                [
                    br#"","component":""#,
                    c.name().as_bytes(),
                    br#"","kind":""#,
                    k.name().as_bytes(),
                    b"\"}\n",
                ]
                .concat()
            })
        })
        .collect();
    for (core, trace) in run.cores.iter().enumerate() {
        let mut prefix = br#"{"core":"#.to_vec();
        digits::<10>(&mut prefix, core as u64);
        prefix.extend_from_slice(br#","cycle":"#);
        for ev in &trace.events {
            let buf = stage.buf();
            buf.extend_from_slice(&prefix);
            digits::<10>(buf, ev.cycle);
            buf.extend_from_slice(br#","line":"0x"#);
            digits::<16>(buf, ev.line.0);
            buf.extend_from_slice(&suffixes[shape_index(ev)]);
            stage.spill()?;
        }
    }
    stage.finish()
}

/// An event's (component, kind) pair as a dense index, for per-pair
/// tables of pre-rendered bytes.
fn shape_index(ev: &PfEvent) -> usize {
    ev.component.index() * PfEventKind::COUNT + ev.kind.index()
}

/// A parsed JSONL artifact: the header fields plus events regrouped per
/// core, ready for lifecycle validation.
#[derive(Debug)]
pub struct ParsedEvents {
    /// Sampling interval recorded in the header.
    pub interval: u64,
    /// Events dropped per core (buffer overflow), from the header.
    pub dropped: Vec<u64>,
    /// Events per core, in file order.
    pub per_core: Vec<Vec<PfEvent>>,
}

impl ParsedEvents {
    /// Total events across cores.
    pub fn total_events(&self) -> usize {
        self.per_core.iter().map(Vec::len).sum()
    }
}

/// Parses and validates a JSONL artifact produced by
/// [`write_events_jsonl`]: header schema, field presence and types, known
/// component/kind names, in-range core ids.
///
/// # Errors
///
/// Returns a message naming the offending line (1-based).
pub fn parse_events_jsonl(text: &str) -> Result<ParsedEvents, String> {
    let mut lines = text.lines().enumerate();
    let (_, header_line) = lines.next().ok_or("empty JSONL artifact")?;
    let header = json::parse(header_line).map_err(|e| format!("line 1: {e}"))?;
    let schema = header
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("line 1: missing schema")?;
    if schema != JSONL_SCHEMA {
        return Err(format!("line 1: schema {schema:?}, want {JSONL_SCHEMA:?}"));
    }
    let interval = header
        .get("interval")
        .and_then(Json::as_u64)
        .ok_or("line 1: missing or non-integer interval")?;
    let n_cores = header
        .get("cores")
        .and_then(Json::as_u64)
        .ok_or("line 1: missing or non-integer cores")?;
    let dropped: Vec<u64> = header
        .get("dropped")
        .and_then(Json::as_arr)
        .ok_or("line 1: missing dropped")?
        .iter()
        .map(Json::as_u64)
        .collect::<Option<_>>()
        .ok_or("line 1: non-integer dropped entry")?;
    if dropped.len() as u64 != n_cores {
        return Err(format!(
            "line 1: dropped has {} entries for {} cores",
            dropped.len(),
            n_cores
        ));
    }

    let mut per_core: Vec<Vec<PfEvent>> = vec![Vec::new(); dropped.len()];
    for (idx, line) in lines {
        if line.is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let doc = json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let core = doc
            .get("core")
            .and_then(Json::as_u64)
            .ok_or(format!("line {lineno}: missing or non-integer core"))?;
        let Some(events) = per_core.get_mut(core as usize) else {
            return Err(format!("line {lineno}: core {core} out of range"));
        };
        let cycle = doc
            .get("cycle")
            .and_then(Json::as_u64)
            .ok_or(format!("line {lineno}: missing or non-integer cycle"))?;
        let line_addr = doc
            .get("line")
            .and_then(Json::as_str)
            .ok_or(format!("line {lineno}: missing line"))?;
        let line_addr = line_addr
            .strip_prefix("0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or(format!("line {lineno}: line is not a hex string"))?;
        let component = doc
            .get("component")
            .and_then(Json::as_str)
            .and_then(PfComponent::from_name)
            .ok_or(format!("line {lineno}: unknown component"))?;
        let kind = doc
            .get("kind")
            .and_then(Json::as_str)
            .and_then(PfEventKind::from_name)
            .ok_or(format!("line {lineno}: unknown kind"))?;
        events.push(PfEvent {
            cycle,
            line: LineAddr(line_addr),
            component,
            kind,
        });
    }
    Ok(ParsedEvents {
        interval,
        dropped,
        per_core,
    })
}

/// Writes the run as a Chrome `trace_event` JSON document (load it at
/// `chrome://tracing` or <https://ui.perfetto.dev>) through the shared
/// [`ipsim_obs::chrome`] writer. Each core becomes a process: lifecycle
/// events are instants on its timeline (`ph:"i"`, `ts` = core cycle) and
/// sample rows become counter tracks (`ph:"C"`). Each core's 36
/// (component, kind) instants are [`Shape`]s, rendered once.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_chrome_trace<W: Write>(w: &mut W, run: &TelemetryRun) -> io::Result<()> {
    let mut trace = ChromeTrace::begin(w);
    for (core, core_trace) in run.cores.iter().enumerate() {
        let pid = core as u64 + 1;
        trace.event(&Event {
            name: &["process_name"],
            cat: None,
            ph: Phase::Metadata,
            pid,
            tid: 0,
            args: &[("name", Arg::Str(&format!("core{core}")))],
        })?;
        let shapes: Vec<Shape> = PfComponent::ALL
            .iter()
            .flat_map(|c| {
                PfEventKind::ALL.iter().map(move |k| {
                    Shape::new(&Event {
                        name: &[c.name(), ":", k.name()],
                        cat: Some("pf"),
                        ph: Phase::Instant(0),
                        pid,
                        tid: 0,
                        args: &[("line", Arg::Hex(0))],
                    })
                })
            })
            .collect();
        for ev in &core_trace.events {
            trace.shaped(&shapes[shape_index(ev)], ev.cycle, ev.line.0)?;
        }
    }
    for row in &run.samples {
        for (name, arg, value) in [
            ("l1i_misses", "cum", row.l1i_misses),
            ("pf_queue", "depth", row.pf_queue),
        ] {
            trace.event(&Event {
                name: &[name],
                cat: None,
                ph: Phase::Counter(row.cycles),
                pid: u64::from(row.core) + 1,
                tid: 0,
                args: &[(arg, Arg::Num(value))],
            })?;
        }
    }
    trace.finish()
}

/// The Chrome trace validator, shared with the span exporter's files.
pub use ipsim_obs::chrome::validate as validate_chrome_trace;

/// Writes the interval time series as TSV: a `#`-prefixed header naming
/// [`SampleRow::COLUMNS`], then one row per sample.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_series_tsv<W: Write>(w: &mut W, samples: &[SampleRow]) -> io::Result<()> {
    let mut w = Stage::new(w);
    writeln!(w, "# {}", SampleRow::COLUMNS.join("\t"))?;
    for row in samples {
        let values: Vec<String> = row.values().iter().map(u64::to_string).collect();
        writeln!(w, "{}", values.join("\t"))?;
    }
    w.finish()
}

/// Parses a TSV time series written by [`write_series_tsv`].
///
/// # Errors
///
/// Returns a message naming the offending line.
pub fn parse_series_tsv(text: &str) -> Result<Vec<SampleRow>, String> {
    let header = format!("# {}", SampleRow::COLUMNS.join("\t"));
    let mut rows = Vec::new();
    for (lineno, line) in tsv_lines(text, &header, "series")? {
        let fields: Vec<u64> = line
            .split('\t')
            .map(|f| {
                f.parse::<u64>()
                    .map_err(|_| format!("line {lineno}: bad field {f:?}"))
            })
            .collect::<Result<_, _>>()?;
        if fields.len() != SampleRow::COLUMNS.len() {
            return Err(format!(
                "line {lineno}: {} fields, want {}",
                fields.len(),
                SampleRow::COLUMNS.len()
            ));
        }
        rows.push(SampleRow {
            core: fields[0] as u32,
            instrs: fields[1],
            cycles: fields[2],
            line_fetches: fields[3],
            l1i_misses: fields[4],
            l1d_misses: fields[5],
            pf_issued: fields[6],
            pf_useful: fields[7],
            pf_late: fields[8],
            pf_queue: fields[9],
            l2_instr_misses: fields[10],
            l2_prefetch_misses: fields[11],
        });
    }
    Ok(rows)
}

/// Writes the exact per-component event counts aggregated across cores,
/// one TSV row per component, one column per [`PfEventKind`]. This is
/// the compact artifact `report sim` aggregates.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_component_summary_tsv<W: Write>(w: &mut W, run: &TelemetryRun) -> io::Result<()> {
    let mut w = Stage::new(w);
    let names: Vec<&str> = PfEventKind::ALL.iter().map(|k| k.name()).collect();
    writeln!(w, "# component\t{}", names.join("\t"))?;
    let totals = run.aggregate_components();
    for component in PfComponent::ALL {
        let counts: Vec<String> = PfEventKind::ALL
            .iter()
            .map(|&k| totals[component.index()].get(k).to_string())
            .collect();
        writeln!(w, "{}\t{}", component.name(), counts.join("\t"))?;
    }
    w.finish()
}

/// Parses a per-component summary written by
/// [`write_component_summary_tsv`].
///
/// # Errors
///
/// Returns a message naming the offending line.
pub fn parse_component_summary_tsv(
    text: &str,
) -> Result<Vec<(PfComponent, ComponentCounters)>, String> {
    let names: Vec<&str> = PfEventKind::ALL.iter().map(|k| k.name()).collect();
    let header = format!("# component\t{}", names.join("\t"));
    let mut out = Vec::new();
    for (lineno, line) in tsv_lines(text, &header, "summary")? {
        let mut fields = line.split('\t');
        let component = fields
            .next()
            .and_then(PfComponent::from_name)
            .ok_or(format!("line {lineno}: unknown component"))?;
        let mut counters = ComponentCounters::default();
        for kind in PfEventKind::ALL {
            let field = fields
                .next()
                .ok_or(format!("line {lineno}: truncated row"))?;
            let n: u64 = field
                .parse()
                .map_err(|_| format!("line {lineno}: bad count {field:?}"))?;
            counters.bump_by(kind, n);
        }
        if fields.next().is_some() {
            return Err(format!("line {lineno}: trailing fields"));
        }
        out.push((component, counters));
    }
    Ok(out)
}

/// Column names of the zoo TSV artifact, in field order.
pub const ZOO_COLUMNS: [&str; 10] = [
    "core",
    "slot",
    "scheme",
    "generated",
    "issued",
    "filled",
    "useful",
    "late",
    "evicted_used",
    "evicted_unused",
];

/// Writes the per-scheme shadow-attribution rows as TSV: a `#`-prefixed
/// header naming [`ZOO_COLUMNS`], then one row per (core, zoo slot).
/// This is the artifact `report sim --bakeoff` joins across runs.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_zoo_tsv<W: Write>(w: &mut W, rows: &[ZooSchemeRow]) -> io::Result<()> {
    let mut w = Stage::new(w);
    writeln!(w, "# {}", ZOO_COLUMNS.join("\t"))?;
    for r in rows {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            r.core,
            r.slot,
            r.scheme,
            r.generated,
            r.issued,
            r.filled,
            r.useful,
            r.late,
            r.evicted_used,
            r.evicted_unused
        )?;
    }
    w.finish()
}

/// Parses a zoo TSV artifact written by [`write_zoo_tsv`].
///
/// # Errors
///
/// Returns a message naming the offending line.
pub fn parse_zoo_tsv(text: &str) -> Result<Vec<ZooSchemeRow>, String> {
    let header = format!("# {}", ZOO_COLUMNS.join("\t"));
    let mut rows = Vec::new();
    for (lineno, line) in tsv_lines(text, &header, "zoo")? {
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != ZOO_COLUMNS.len() {
            return Err(format!(
                "line {lineno}: {} fields, want {}",
                fields.len(),
                ZOO_COLUMNS.len()
            ));
        }
        let num = |i: usize| -> Result<u64, String> {
            fields[i]
                .parse::<u64>()
                .map_err(|_| format!("line {lineno}: bad field {:?}", fields[i]))
        };
        if fields[2].is_empty() {
            return Err(format!("line {lineno}: empty scheme"));
        }
        rows.push(ZooSchemeRow {
            core: num(0)? as u32,
            slot: num(1)? as u32,
            scheme: fields[2].to_string(),
            generated: num(3)?,
            issued: num(4)?,
            filled: num(5)?,
            useful: num(6)?,
            late: num(7)?,
            evicted_used: num(8)?,
            evicted_unused: num(9)?,
        });
    }
    Ok(rows)
}

/// The non-empty data lines of a TSV artifact with their 1-based line
/// numbers, once its first line has proved to be exactly `header`.
fn tsv_lines<'a>(
    text: &'a str,
    header: &str,
    what: &str,
) -> Result<impl Iterator<Item = (usize, &'a str)>, String> {
    let mut lines = text.lines();
    let got = lines.next().ok_or(format!("empty {what} artifact"))?;
    if got != header {
        return Err(format!("bad {what} header {got:?}"));
    }
    Ok((2..).zip(lines).filter(|(_, line)| !line.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoreTrace, TelemetryRun};

    fn sample_run() -> TelemetryRun {
        let mut c0 = CoreTrace::default();
        let mut push = |cycle, line, kind| {
            let ev = PfEvent {
                cycle,
                line: LineAddr(line),
                component: PfComponent::Sequential,
                kind,
            };
            c0.events.push(ev);
            c0.components[ev.component.index()].bump(kind);
        };
        push(5, 0x1f80, PfEventKind::Queued);
        push(6, 0x1f80, PfEventKind::Issued);
        push(90, 0x1f80, PfEventKind::Fill);
        push(120, 0x1f80, PfEventKind::FirstUse);
        TelemetryRun {
            interval: 1_000,
            cores: vec![c0, CoreTrace::default()],
            samples: vec![
                SampleRow {
                    core: 0,
                    instrs: 1_000,
                    cycles: 2_400,
                    l1i_misses: 31,
                    pf_queue: 3,
                    ..SampleRow::default()
                },
                SampleRow {
                    core: 1,
                    instrs: 1_008,
                    cycles: 2_501,
                    l1i_misses: 44,
                    ..SampleRow::default()
                },
            ],
            zoo: vec![
                ZooSchemeRow {
                    core: 0,
                    slot: 0,
                    scheme: "nl".to_string(),
                    generated: 10,
                    issued: 8,
                    filled: 7,
                    useful: 5,
                    late: 2,
                    evicted_used: 4,
                    evicted_unused: 1,
                },
                ZooSchemeRow {
                    core: 0,
                    slot: 1,
                    scheme: "disc:ahead=2".to_string(),
                    generated: 6,
                    issued: 6,
                    ..ZooSchemeRow::default()
                },
            ],
        }
    }

    #[test]
    fn jsonl_round_trips_through_its_validator() {
        let run = sample_run();
        let mut buf = Vec::new();
        write_events_jsonl(&mut buf, &run).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed = parse_events_jsonl(&text).expect("valid jsonl");
        assert_eq!(parsed.interval, 1_000);
        assert_eq!(parsed.per_core.len(), 2);
        assert_eq!(parsed.per_core[0], run.cores[0].events);
        assert!(parsed.per_core[1].is_empty());
        assert_eq!(parsed.dropped, vec![0, 0]);
    }

    #[test]
    fn jsonl_validator_rejects_corruption() {
        let run = sample_run();
        let mut buf = Vec::new();
        write_events_jsonl(&mut buf, &run).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Truncate mid-line.
        assert!(parse_events_jsonl(&text[..text.len() - 4]).is_err());
        // Corrupt the schema.
        assert!(parse_events_jsonl(&text.replace(JSONL_SCHEMA, "bogus")).is_err());
        // Corrupt a kind name.
        assert!(parse_events_jsonl(&text.replace("first_use", "fist_use")).is_err());
    }

    /// The sample run's JSONL with `from` replaced by `to` must fail to
    /// parse with an error naming `field`.
    fn assert_rejected(from: &str, to: &str, field: &str) {
        let mut buf = Vec::new();
        write_events_jsonl(&mut buf, &sample_run()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains(from), "{from} not in the sample JSONL");
        let err = parse_events_jsonl(&text.replacen(from, to, 1)).unwrap_err();
        assert!(err.contains(field), "{to}: {err}");
    }

    #[test]
    fn jsonl_rejects_negative_integers() {
        assert_rejected(r#""cycle":5,"#, r#""cycle":-5,"#, "cycle");
        assert_rejected(r#""interval":1000"#, r#""interval":-3"#, "interval");
        assert_rejected(r#""dropped":[0,0]"#, r#""dropped":[-1,0]"#, "dropped");
    }

    #[test]
    fn jsonl_rejects_fractional_integers() {
        assert_rejected(r#""cycle":5,"#, r#""cycle":1.5,"#, "cycle");
        assert_rejected(r#""core":0,"#, r#""core":0.9,"#, "core");
        assert_rejected(r#""cores":2,"#, r#""cores":2.5,"#, "cores");
    }

    #[test]
    fn jsonl_rejects_integers_beyond_exact_doubles() {
        assert_rejected(r#""cycle":5,"#, r#""cycle":1e30,"#, "cycle");
        assert_rejected(r#""cycle":5,"#, r#""cycle":9007199254740994,"#, "cycle");
        assert_rejected(r#""interval":1000"#, r#""interval":1e300"#, "interval");
    }

    #[test]
    fn chrome_trace_bytes_are_pinned_and_valid() {
        let run = sample_run();
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &run).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let instant = |ts, kind| {
            format!(
                r#"{{"name":"seq:{kind}","cat":"pf","ph":"i","s":"t","ts":{ts},"pid":1,"tid":0,"args":{{"line":"0x1f80"}}}}"#
            )
        };
        let counters = |ts, pid, cum, depth| {
            format!(
                r#"{{"name":"l1i_misses","ph":"C","ts":{ts},"pid":{pid},"tid":0,"args":{{"cum":{cum}}}}},{{"name":"pf_queue","ph":"C","ts":{ts},"pid":{pid},"tid":0,"args":{{"depth":{depth}}}}}"#
            )
        };
        let process = |pid, core| {
            format!(
                r#"{{"name":"process_name","ph":"M","pid":{pid},"tid":0,"args":{{"name":"core{core}"}}}}"#
            )
        };
        let events = [
            process(1, 0),
            instant(5, "queued"),
            instant(6, "issued"),
            instant(90, "fill"),
            instant(120, "first_use"),
            process(2, 1),
            counters(2_400, 1, 31, 3),
            counters(2_501, 2, 44, 0),
        ];
        let want = format!(
            r#"{{"traceEvents":[{}],"displayTimeUnit":"ns"}}"#,
            events.join(",")
        );
        assert_eq!(text, want);
        // 2 process metadata + 4 instants + 2 counters per sample row.
        assert_eq!(validate_chrome_trace(&text).unwrap().len(), 2 + 4 + 2 * 2);
        assert!(validate_chrome_trace(&text[..text.len() - 1]).is_err());
    }

    #[test]
    fn series_tsv_round_trips() {
        let run = sample_run();
        let mut buf = Vec::new();
        write_series_tsv(&mut buf, &run.samples).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(parse_series_tsv(&text).unwrap(), run.samples);
        assert!(parse_series_tsv("# wrong\n").is_err());
    }

    #[test]
    fn zoo_tsv_round_trips() {
        let run = sample_run();
        let mut buf = Vec::new();
        write_zoo_tsv(&mut buf, &run.zoo).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(parse_zoo_tsv(&text).unwrap(), run.zoo);
        assert!(parse_zoo_tsv("# wrong\n").is_err());
        assert!(
            parse_zoo_tsv(&text.replace("disc:ahead=2", "")).is_err(),
            "empty scheme field rejected"
        );
        assert!(parse_zoo_tsv(&text.replace('7', "x")).is_err());
    }

    #[test]
    fn component_summary_round_trips() {
        let run = sample_run();
        let mut buf = Vec::new();
        write_component_summary_tsv(&mut buf, &run).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let rows = parse_component_summary_tsv(&text).unwrap();
        assert_eq!(rows.len(), PfComponent::COUNT);
        let (component, counters) = rows[0];
        assert_eq!(component, PfComponent::Sequential);
        assert_eq!(counters.get(PfEventKind::Issued), 1);
        assert_eq!(counters.get(PfEventKind::FirstUse), 1);
        assert_eq!(rows[1].1.total(), 0);
    }
}
