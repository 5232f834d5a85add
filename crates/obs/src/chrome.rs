//! The workspace's one Chrome `trace_event` writer and validator. The
//! simulator's lifecycle trace (`ipsim_telemetry::sink`) and the daemon's
//! spans ([`SpanRecorder`](crate::SpanRecorder)) both write through
//! [`ChromeTrace`], which fixes the envelope, field order and escaping;
//! [`validate`] checks what either wrote.
//!
//! Each event is rendered whole into a [`Stage`], and the output sees
//! 64 KiB chunks. Events that differ only in their timestamp and one
//! argument value (a lifecycle trace has millions, in 36 shapes per core)
//! go through a [`Shape`], whose constant bytes are rendered and escaped
//! once; [`ChromeTrace::event`] and [`Shape`] write the same segments in
//! the same order, so both produce the same bytes for the same event.

use std::io::{self, Write};

use crate::json::{self, Json};
use crate::stage::{digits, Stage};

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

impl Phase {
    /// The bytes from the end of the name (or category) string up to the
    /// first timestamp digit.
    fn head(self) -> &'static [u8] {
        match self {
            Phase::Metadata => br#"","ph":"M""#,
            Phase::Instant(_) => br#"","ph":"i","s":"t","ts":"#,
            Phase::Counter(_) => br#"","ph":"C","ts":"#,
            Phase::Complete(..) => br#"","ph":"X","ts":"#,
        }
    }

    /// The timestamp digits, then `,"dur":` and the duration's.
    fn stamp(self, buf: &mut Vec<u8>) {
        match self {
            Phase::Metadata => {}
            Phase::Instant(ts) | Phase::Counter(ts) => digits::<10>(buf, ts),
            Phase::Complete(ts, dur) => {
                digits::<10>(buf, ts);
                buf.extend_from_slice(br#","dur":"#);
                digits::<10>(buf, dur);
            }
        }
    }
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

impl Arg<'_> {
    /// The bytes between the key's closing quote and the value.
    fn open(self) -> &'static [u8] {
        match self {
            Arg::Num(_) => b"\":",
            Arg::Hex(_) => b"\":\"0x",
            Arg::Str(_) => b"\":\"",
        }
    }

    fn render(self, buf: &mut Vec<u8>) {
        match self {
            Arg::Num(n) => digits::<10>(buf, n),
            Arg::Hex(n) => digits::<16>(buf, n),
            Arg::Str(text) => json::escape_into(buf, text),
        }
    }

    /// The bytes after the value.
    fn close(self) -> &'static [u8] {
        match self {
            Arg::Num(_) => b"",
            Arg::Hex(_) | Arg::Str(_) => b"\"",
        }
    }
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

// An event is five segments, in this order: the head (name, category,
// phase, up to the first timestamp digit), the stamp (`Phase::stamp`),
// the lanes (pid, tid and the opening of `args`), the args, and `}}`.
// `ChromeTrace::event` writes all five; a `Shape` renders the head and
// the lanes plus its one key once, and fills in the stamp and the value.
impl Event<'_> {
    fn head(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(br#"{"name":""#);
        for part in self.name {
            json::escape_into(buf, part);
        }
        if let Some(cat) = self.cat {
            buf.extend_from_slice(br#"","cat":""#);
            json::escape_into(buf, cat);
        }
        buf.extend_from_slice(self.ph.head());
    }

    fn lanes(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(br#","pid":"#);
        digits::<10>(buf, self.pid);
        buf.extend_from_slice(br#","tid":"#);
        digits::<10>(buf, self.tid);
        buf.extend_from_slice(br#","args":{"#);
    }

    /// Arg `i`'s key, separator and opening bytes: everything before its
    /// value.
    fn arg_open(buf: &mut Vec<u8>, i: usize, key: &str, value: Arg<'_>) {
        buf.extend_from_slice(if i == 0 { b"\"" } else { b",\"" });
        buf.extend_from_slice(key.as_bytes());
        buf.extend_from_slice(value.open());
    }
}

/// The constant bytes of a family of events that differ only in their
/// timestamp and the value of their one `args` member, rendered once.
/// A lifecycle trace has one per (component, kind, core).
pub struct Shape {
    /// The head segment, ending just before the timestamp digits.
    head: Vec<u8>,
    /// The lanes segment and the arg's key, ending before its value.
    tail: Vec<u8>,
    /// Whether the value is [`Arg::Hex`] rather than [`Arg::Num`].
    hex: bool,
    /// The arg's closing bytes and the event's `}}`.
    close: Vec<u8>,
}

impl Shape {
    /// Renders `template`'s constant bytes. Its timestamp and its arg's
    /// value are placeholders, supplied per event to
    /// [`ChromeTrace::shaped`].
    ///
    /// # Panics
    ///
    /// If `template` is not an instant or counter with exactly one
    /// [`Arg::Num`] or [`Arg::Hex`] arg.
    pub fn new(template: &Event<'_>) -> Shape {
        assert!(
            matches!(template.ph, Phase::Instant(_) | Phase::Counter(_)),
            "a shape stamps one timestamp"
        );
        let [(key, value)] = template.args else {
            panic!("a shape has exactly one arg");
        };
        assert!(!matches!(value, Arg::Str(_)), "a shape's arg is a number");
        let (mut head, mut tail) = (Vec::new(), Vec::new());
        template.head(&mut head);
        template.lanes(&mut tail);
        Event::arg_open(&mut tail, 0, key, *value);
        Shape {
            head,
            tail,
            hex: matches!(value, Arg::Hex(_)),
            close: [value.close(), b"}}"].concat(),
        }
    }
}

/// A `{"traceEvents":[…],"displayTimeUnit":"ns"}` document being written:
/// [`ChromeTrace::begin`], any number of [`ChromeTrace::event`]s and
/// [`ChromeTrace::shaped`] events, then [`ChromeTrace::finish`]. Output
/// is staged: the writer hands `W` whole 64 KiB chunks as they fill and
/// the rest on `finish`, and every method propagates `W`'s I/O errors.
pub struct ChromeTrace<W: Write> {
    stage: Stage<W>,
    first: bool,
}

impl<W: Write> ChromeTrace<W> {
    /// Opens the envelope.
    pub fn begin(out: W) -> ChromeTrace<W> {
        let mut stage = Stage::new(out);
        stage.buf().extend_from_slice(br#"{"traceEvents":["#);
        ChromeTrace { stage, first: true }
    }

    /// The staging buffer, after the separator the next event needs.
    #[inline]
    fn next(&mut self) -> &mut Vec<u8> {
        let buf = self.stage.buf();
        if !std::mem::take(&mut self.first) {
            buf.push(b',');
        }
        buf
    }

    /// Appends one event, rendered whole into the stage with no `fmt`
    /// machinery or intermediate `String`.
    pub fn event(&mut self, event: &Event<'_>) -> io::Result<()> {
        let buf = self.next();
        event.head(buf);
        event.ph.stamp(buf);
        event.lanes(buf);
        for (i, &(key, value)) in event.args.iter().enumerate() {
            Event::arg_open(buf, i, key, value);
            value.render(buf);
            buf.extend_from_slice(value.close());
        }
        buf.extend_from_slice(b"}}");
        self.stage.spill()
    }

    /// Appends one event of `shape` at `ts` with arg value `value`: the
    /// same bytes as [`ChromeTrace::event`] on the shape's template with
    /// these two filled in, at the cost of two copies and two numbers.
    #[inline]
    pub fn shaped(&mut self, shape: &Shape, ts: u64, value: u64) -> io::Result<()> {
        let buf = self.next();
        buf.extend_from_slice(&shape.head);
        digits::<10>(buf, ts);
        buf.extend_from_slice(&shape.tail);
        if shape.hex {
            digits::<16>(buf, value);
        } else {
            digits::<10>(buf, value);
        }
        buf.extend_from_slice(&shape.close);
        self.stage.spill()
    }

    /// Closes the envelope and hands `W` the rest of the stage.
    pub fn finish(mut self) -> io::Result<()> {
        self.stage
            .buf()
            .extend_from_slice(br#"],"displayTimeUnit":"ns"}"#);
        self.stage.finish()
    }
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
        let mut trace = ChromeTrace::begin(&mut buf);
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
    fn shaped_events_match_their_templates() {
        let templates = [
            Event {
                name: &["disc", ":", "first_use_late"],
                cat: Some("pf"),
                ph: Phase::Instant(0),
                pid: 3,
                tid: 0,
                args: &[("line", Arg::Hex(0))],
            },
            Event {
                name: &["q\"\\\u{1}é"],
                cat: None,
                ph: Phase::Counter(0),
                pid: u64::MAX,
                tid: 7,
                args: &[("depth", Arg::Num(0))],
            },
        ];
        for template in &templates {
            let shape = Shape::new(template);
            for (ts, value) in [(0, 0), (9, 0x1f80), (1 << 53, 10), (u64::MAX, u64::MAX)] {
                let ph = match template.ph {
                    Phase::Instant(_) => Phase::Instant(ts),
                    _ => Phase::Counter(ts),
                };
                let arg = match template.args[0].1 {
                    Arg::Hex(_) => Arg::Hex(value),
                    _ => Arg::Num(value),
                };
                let (mut direct, mut shaped) = (Vec::new(), Vec::new());
                let mut trace = ChromeTrace::begin(&mut direct);
                trace
                    .event(&Event {
                        ph,
                        args: &[(template.args[0].0, arg)],
                        ..*template
                    })
                    .unwrap();
                trace.finish().unwrap();
                let mut trace = ChromeTrace::begin(&mut shaped);
                trace.shaped(&shape, ts, value).unwrap();
                trace.finish().unwrap();
                assert_eq!(
                    String::from_utf8(shaped).unwrap(),
                    String::from_utf8(direct).unwrap()
                );
            }
        }
    }

    #[test]
    fn empty_trace_is_valid() {
        let mut buf = Vec::new();
        ChromeTrace::begin(&mut buf).finish().unwrap();
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
