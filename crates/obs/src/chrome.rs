//! The workspace's one Chrome `trace_event` writer and validator. The
//! simulator's lifecycle trace (`ipsim_telemetry::sink`) and the daemon's
//! spans ([`SpanRecorder`](crate::SpanRecorder)) both write through
//! [`ChromeTrace`], which fixes the envelope, field order and escaping;
//! [`validate`] checks what either wrote.

use std::io::{self, Write};

use crate::json::{self, Json};

/// What an event marks, with its timing in trace units (µs for spans,
/// core cycles for the simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `ph:"M"`: untimed metadata such as a process name.
    Metadata,
    /// `ph:"i"` at `ts`: a thread-scoped instant.
    Instant(u64),
    /// `ph:"C"` at `ts`: a counter sample; `args` holds the values.
    Counter(u64),
    /// `ph:"X"` from `ts` for `dur`: a complete interval.
    Complete(u64, u64),
}

/// One `args` value.
#[derive(Clone, Copy)]
pub enum Arg<'a> {
    /// A JSON number.
    Num(u64),
    /// A `"0x…"` string: 64-bit addresses do not survive JSON doubles.
    Hex(u64),
    /// A string, escaped on write.
    Str(&'a str),
}

/// One event, written as
/// `{"name","cat"?,"ph","s"?,"ts"?,"dur"?,"pid","tid","args"}`.
pub struct Event<'a> {
    /// Name: these parts concatenated, escaped on write.
    pub name: &'a [&'a str],
    /// Category; omitted when `None`.
    pub cat: Option<&'a str>,
    /// Phase and timing.
    pub ph: Phase,
    /// Process lane.
    pub pid: u64,
    /// Thread lane.
    pub tid: u64,
    /// `args` members, in order; keys are written verbatim.
    pub args: &'a [(&'a str, Arg<'a>)],
}

/// A `{"traceEvents":[…],"displayTimeUnit":"ns"}` document being written:
/// [`ChromeTrace::begin`], any number of [`ChromeTrace::event`]s, then
/// [`ChromeTrace::finish`]. Every method propagates the output's I/O
/// errors.
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

    /// Appends one event. Every byte goes straight to the output — no
    /// `fmt` machinery or intermediate `String` — since a run's lifecycle
    /// trace has millions of events.
    pub fn event(&mut self, event: &Event<'_>) -> io::Result<()> {
        let out = &mut self.out;
        if !std::mem::take(&mut self.first) {
            out.write_all(b",")?;
        }
        out.write_all(br#"{"name":""#)?;
        for part in event.name {
            json::write_escaped(out, part)?;
        }
        if let Some(cat) = event.cat {
            out.write_all(br#"","cat":""#)?;
            json::write_escaped(out, cat)?;
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
                    json::write_escaped(out, text)?;
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

/// Parses a Chrome trace and checks what [`ChromeTrace`] guarantees: a
/// `traceEvents` array whose every event has a string `name`, a known
/// `ph` and a numeric `pid`; timed events (`i`, `C`, `X`) also a numeric
/// `ts` and an `args` object, and complete events a numeric `dur`.
/// Returns the parsed events, for callers that fold them further.
///
/// # Errors
///
/// Returns a message naming the first offending event.
pub fn validate(text: &str) -> Result<Vec<Json>, String> {
    let events = match json::parse(text)? {
        Json::Obj(fields) => fields.into_iter().find_map(|(key, value)| match value {
            Json::Arr(events) if key == "traceEvents" => Some(events),
            _ => None,
        }),
        _ => None,
    }
    .ok_or("missing traceEvents array")?;
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing name"))?;
        let missing = |key: &str| format!("event {i} ({name}): missing {key}");
        let num = |key: &str| {
            ev.get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| missing(key))
        };
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| missing("ph"))?;
        num("pid")?;
        match ph {
            "M" => {}
            "i" | "C" | "X" => {
                num("ts")?;
                if ph == "X" {
                    num("dur")?;
                }
                if !matches!(ev.get("args"), Some(Json::Obj(_))) {
                    return Err(missing("args object"));
                }
            }
            other => return Err(format!("event {i} ({name}): unexpected ph {other:?}")),
        }
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_phase_writes_in_the_fixed_field_order() {
        let mut buf = Vec::new();
        let mut trace = ChromeTrace::begin(&mut buf).unwrap();
        let core = 3;
        trace
            .event(&Event {
                name: &["process_name"],
                cat: None,
                ph: Phase::Metadata,
                pid: 4,
                tid: 0,
                args: &[("name", Arg::Str(&format!("core{core}")))],
            })
            .unwrap();
        trace
            .event(&Event {
                name: &["seq", ":", "fill"],
                cat: Some("pf"),
                ph: Phase::Instant(9),
                pid: 4,
                tid: 0,
                args: &[("line", Arg::Hex(0x1f80))],
            })
            .unwrap();
        trace
            .event(&Event {
                name: &["q"],
                cat: None,
                ph: Phase::Counter(10),
                pid: 4,
                tid: 0,
                args: &[("depth", Arg::Num(2))],
            })
            .unwrap();
        trace
            .event(&Event {
                name: &["a\"b"],
                cat: Some("obs"),
                ph: Phase::Complete(1, 5),
                pid: 1,
                tid: 2,
                args: &[("id", Arg::Num(7)), ("parent", Arg::Num(0))],
            })
            .unwrap();
        trace.finish().unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(
            text,
            concat!(
                r#"{"traceEvents":["#,
                r#"{"name":"process_name","ph":"M","pid":4,"tid":0,"args":{"name":"core3"}},"#,
                r#"{"name":"seq:fill","cat":"pf","ph":"i","s":"t","ts":9,"pid":4,"tid":0,"args":{"line":"0x1f80"}},"#,
                r#"{"name":"q","ph":"C","ts":10,"pid":4,"tid":0,"args":{"depth":2}},"#,
                r#"{"name":"a\"b","cat":"obs","ph":"X","ts":1,"dur":5,"pid":1,"tid":2,"args":{"id":7,"parent":0}}"#,
                r#"],"displayTimeUnit":"ns"}"#
            )
        );
        let events = validate(&text).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[3].get("name").and_then(Json::as_str), Some("a\"b"));
    }

    #[test]
    fn digits_match_std_formatting() {
        for n in [0, 9, 10, 0xff, 1 << 32, u64::MAX] {
            let (mut dec, mut hex) = (Vec::new(), Vec::new());
            digits::<10, _>(&mut dec, n).unwrap();
            digits::<16, _>(&mut hex, n).unwrap();
            assert_eq!(dec, n.to_string().into_bytes());
            assert_eq!(hex, format!("{n:x}").into_bytes());
        }
    }

    #[test]
    fn empty_trace_is_valid() {
        let mut buf = Vec::new();
        ChromeTrace::begin(&mut buf).unwrap().finish().unwrap();
        assert_eq!(validate(std::str::from_utf8(&buf).unwrap()).unwrap(), []);
    }

    #[test]
    fn validator_requires_timing_and_args() {
        let ok = r#"{"traceEvents":[{"name":"serve.request","cat":"obs","ph":"X","ts":12,"dur":340,"pid":1,"tid":2,"args":{"id":1,"parent":0}}],"displayTimeUnit":"ns"}"#;
        assert_eq!(validate(ok).unwrap().len(), 1);
        for (bad, why) in [
            (
                r#"{"traceEvents":[{"name":"s","ph":"X","ts":1,"pid":1,"args":{}}]}"#,
                "dur",
            ),
            (
                r#"{"traceEvents":[{"name":"s","ph":"X","dur":1,"pid":1,"args":{}}]}"#,
                "ts",
            ),
            (
                r#"{"traceEvents":[{"name":"s","ph":"i","ts":1,"pid":1}]}"#,
                "args",
            ),
            (r#"{"traceEvents":[{"name":"s","ph":"M"}]}"#, "pid"),
            (
                r#"{"traceEvents":[{"name":"s","ph":"B","pid":1}]}"#,
                "unexpected ph",
            ),
            (r#"{"events":[]}"#, "traceEvents"),
        ] {
            let err = validate(bad).unwrap_err();
            assert!(err.contains(why), "{bad}: {err}");
        }
        assert!(validate(&ok[..ok.len() - 1]).is_err());
    }
}
