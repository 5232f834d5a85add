//! Reference models for the differential tests in `sink_bytes.rs`: every
//! sink writer and the span export as they were before output staging,
//! writing each fragment straight to the output through `writeln!` or a
//! per-fragment `write_all`. They are kept unchanged apart from their
//! names and documentation. The `Event`, `Arg` and `Phase` types come
//! from `ipsim_obs::chrome`, so both sides render the same events.

use std::io::{self, Write};

use ipsim_obs::chrome::{Arg, Event, Phase};
use ipsim_obs::SpanRecorder;
use ipsim_telemetry::sink::JSONL_SCHEMA;
use ipsim_telemetry::{PfComponent, PfEventKind, SampleRow, TelemetryRun, ZooSchemeRow};

/// The per-fragment Chrome writer.
pub struct ChromeTrace<W: Write> {
    out: W,
    first: bool,
}

impl<W: Write> ChromeTrace<W> {
    /// Opens the envelope.
    pub fn begin(mut out: W) -> io::Result<ChromeTrace<W>> {
        out.write_all(br#"{"traceEvents":["#)?;
        Ok(ChromeTrace { out, first: true })
    }

    /// Appends one event, fragment by fragment.
    pub fn event(&mut self, event: &Event<'_>) -> io::Result<()> {
        let out = &mut self.out;
        if !std::mem::take(&mut self.first) {
            out.write_all(b",")?;
        }
        out.write_all(br#"{"name":""#)?;
        for part in event.name {
            write_escaped(out, part)?;
        }
        if let Some(cat) = event.cat {
            out.write_all(br#"","cat":""#)?;
            write_escaped(out, cat)?;
        }
        let (ph, ts, dur): (&[u8], _, _) = match event.ph {
            Phase::Metadata => (br#"","ph":"M""#, None, None),
            Phase::Instant(ts) => (br#"","ph":"i","s":"t","ts":"#, Some(ts), None),
            Phase::Counter(ts) => (br#"","ph":"C","ts":"#, Some(ts), None),
            Phase::Complete(ts, dur) => (br#"","ph":"X","ts":"#, Some(ts), Some(dur)),
        };
        out.write_all(ph)?;
        if let Some(ts) = ts {
            digits::<10, _>(out, ts)?;
        }
        if let Some(dur) = dur {
            out.write_all(br#","dur":"#)?;
            digits::<10, _>(out, dur)?;
        }
        out.write_all(br#","pid":"#)?;
        digits::<10, _>(out, event.pid)?;
        out.write_all(br#","tid":"#)?;
        digits::<10, _>(out, event.tid)?;
        out.write_all(br#","args":{"#)?;
        for (i, (key, value)) in event.args.iter().enumerate() {
            out.write_all(if i == 0 { b"\"" } else { b",\"" })?;
            out.write_all(key.as_bytes())?;
            match *value {
                Arg::Num(n) => {
                    out.write_all(b"\":")?;
                    digits::<10, _>(out, n)?;
                }
                Arg::Hex(n) => {
                    out.write_all(b"\":\"0x")?;
                    digits::<16, _>(out, n)?;
                    out.write_all(b"\"")?;
                }
                Arg::Str(text) => {
                    out.write_all(b"\":\"")?;
                    write_escaped(out, text)?;
                    out.write_all(b"\"")?;
                }
            }
        }
        out.write_all(b"}}")
    }

    /// Closes the envelope.
    pub fn finish(mut self) -> io::Result<()> {
        self.out.write_all(br#"],"displayTimeUnit":"ns"}"#)
    }
}

/// Writes `n` in base `RADIX` (lower-case digits), as `{}` / `{:x}` would.
fn digits<const RADIX: u64, W: Write>(out: &mut W, mut n: u64) -> io::Result<()> {
    let mut buf = [0u8; 20];
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b"0123456789abcdef"[(n % RADIX) as usize];
        n /= RADIX;
        if n == 0 {
            break;
        }
    }
    out.write_all(&buf[start..])
}

/// Writes `text` escaped for a JSON string literal (quotes not included).
fn write_escaped<W: Write + ?Sized>(out: &mut W, text: &str) -> io::Result<()> {
    let mut rest = text.as_bytes();
    while let Some(i) = rest
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
    {
        out.write_all(&rest[..i])?;
        match rest[i] {
            b'\n' => out.write_all(b"\\n"),
            b'\r' => out.write_all(b"\\r"),
            b'\t' => out.write_all(b"\\t"),
            quoted @ (b'"' | b'\\') => out.write_all(&[b'\\', quoted]),
            control => write!(out, "\\u{control:04x}"),
        }?;
        rest = &rest[i + 1..];
    }
    out.write_all(rest)
}

/// The `writeln!` JSONL writer.
pub fn write_events_jsonl<W: Write>(w: &mut W, run: &TelemetryRun) -> io::Result<()> {
    let dropped: Vec<String> = run.cores.iter().map(|c| c.dropped.to_string()).collect();
    writeln!(
        w,
        r#"{{"schema":"{}","interval":{},"cores":{},"dropped":[{}]}}"#,
        JSONL_SCHEMA,
        run.interval,
        run.cores.len(),
        dropped.join(",")
    )?;
    for (core, trace) in run.cores.iter().enumerate() {
        for ev in &trace.events {
            writeln!(
                w,
                r#"{{"core":{},"cycle":{},"line":"{:#x}","component":"{}","kind":"{}"}}"#,
                core,
                ev.cycle,
                ev.line.0,
                ev.component.name(),
                ev.kind.name()
            )?;
        }
    }
    Ok(())
}

/// The lifecycle trace through the per-fragment writer.
pub fn write_chrome_trace<W: Write>(w: &mut W, run: &TelemetryRun) -> io::Result<()> {
    let mut trace = ChromeTrace::begin(w)?;
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
        for ev in &core_trace.events {
            trace.event(&Event {
                name: &[ev.component.name(), ":", ev.kind.name()],
                cat: Some("pf"),
                ph: Phase::Instant(ev.cycle),
                pid,
                tid: 0,
                args: &[("line", Arg::Hex(ev.line.0))],
            })?;
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

/// The span export through the per-fragment writer.
pub fn write_span_trace<W: Write>(rec: &SpanRecorder, w: &mut W) -> io::Result<()> {
    let mut trace = ChromeTrace::begin(w)?;
    for s in rec.completed() {
        trace.event(&Event {
            name: &[&s.name],
            cat: Some("obs"),
            ph: Phase::Complete(s.start_micros, s.dur_micros),
            pid: 1,
            tid: s.tid,
            args: &[
                ("id", Arg::Num(s.id)),
                ("parent", Arg::Num(s.parent.unwrap_or(0))),
            ],
        })?;
    }
    trace.finish()
}

/// The `writeln!` series TSV writer.
pub fn write_series_tsv<W: Write>(w: &mut W, samples: &[SampleRow]) -> io::Result<()> {
    writeln!(w, "# {}", SampleRow::COLUMNS.join("\t"))?;
    for row in samples {
        let values: Vec<String> = row.values().iter().map(u64::to_string).collect();
        writeln!(w, "{}", values.join("\t"))?;
    }
    Ok(())
}

/// The `writeln!` component summary writer.
pub fn write_component_summary_tsv<W: Write>(w: &mut W, run: &TelemetryRun) -> io::Result<()> {
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
    Ok(())
}

/// The `writeln!` zoo TSV writer.
pub fn write_zoo_tsv<W: Write>(w: &mut W, rows: &[ZooSchemeRow]) -> io::Result<()> {
    writeln!(w, "# {}", ipsim_telemetry::sink::ZOO_COLUMNS.join("\t"))?;
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
    Ok(())
}
