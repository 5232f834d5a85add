//! Wall-clock spans with parent links and a bounded completion ring.
//!
//! A span is a named interval on a thread's timeline. The common case is
//! the RAII [`SpanGuard`] from [`SpanRecorder::span`]: it stamps the
//! start on creation, records the completed interval on drop, and uses a
//! thread-local stack so nested guards are parented automatically. For
//! intervals that start on one thread and end on another (a job's queue
//! wait: enqueued by the acceptor, claimed by a worker),
//! [`SpanRecorder::record`] takes explicit start/duration and parent.
//!
//! Completed spans land in a mutex-guarded ring that drops its oldest
//! entry when full — a long-lived daemon keeps the most recent window
//! and counts what it shed ([`SpanRecorder::dropped`]) instead of
//! growing without bound. Export goes through the one
//! [`chrome`](crate::chrome) writer `ipsim-telemetry` also uses, as
//! complete events (`ph:"X"`, `ts` + `dur` in microseconds), so one trace
//! viewer shows daemon orchestration above sim-level telemetry.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::chrome::{Arg, ChromeTrace, Event, Phase};

/// Completed spans kept by the default ring before the oldest is shed.
pub const DEFAULT_RING_CAPACITY: usize = 16_384;

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within this recorder (1-based, allocation order).
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Span name, e.g. `"serve.request"` or `"harness.run"`.
    pub name: String,
    /// Start, in microseconds since the recorder's epoch.
    pub start_micros: u64,
    /// Duration in microseconds.
    pub dur_micros: u64,
    /// Small per-process thread number (not the OS tid).
    pub tid: u64,
}

struct Ring {
    spans: VecDeque<SpanRecord>,
    capacity: usize,
}

/// Thread-safe span collector with a fixed-capacity completion ring.
pub struct SpanRecorder {
    epoch: Instant,
    next_id: AtomicU64,
    dropped: AtomicU64,
    ring: Mutex<Ring>,
}

thread_local! {
    /// Stack of open RAII span ids on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// This thread's small id, assigned on first span.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

impl Default for SpanRecorder {
    fn default() -> SpanRecorder {
        SpanRecorder::new(DEFAULT_RING_CAPACITY)
    }
}

impl SpanRecorder {
    /// Creates a recorder keeping at most `capacity` completed spans.
    pub fn new(capacity: usize) -> SpanRecorder {
        SpanRecorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            ring: Mutex::new(Ring {
                spans: VecDeque::with_capacity(capacity.min(1024)),
                capacity: capacity.max(1),
            }),
        }
    }

    /// Microseconds elapsed since this recorder's epoch — the timebase
    /// all spans share. Useful for cross-thread intervals measured with
    /// [`SpanRecorder::record`].
    pub fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Opens an RAII span: the returned guard records the completed
    /// interval when dropped, parented to the innermost guard already
    /// open on this thread. While instrumentation is disabled the guard
    /// is inert and records nothing.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        if !crate::enabled() {
            return SpanGuard {
                recorder: self,
                inner: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        SpanGuard {
            recorder: self,
            inner: Some(OpenSpan {
                id,
                parent,
                name: name.to_string(),
                start_micros: self.now_micros(),
            }),
        }
    }

    /// Records an already-measured interval, for spans that cross
    /// threads or whose endpoints are stamped elsewhere. Returns the new
    /// span's id (0 when disabled and nothing was recorded).
    pub fn record(
        &self,
        name: &str,
        start_micros: u64,
        dur_micros: u64,
        parent: Option<u64>,
    ) -> u64 {
        if !crate::enabled() {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_micros,
            dur_micros,
            tid: TID.with(|t| *t),
        });
        id
    }

    fn push(&self, record: SpanRecord) {
        let mut ring = self.ring.lock().unwrap();
        if ring.spans.len() == ring.capacity {
            ring.spans.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.spans.push_back(record);
    }

    /// The innermost RAII span currently open on the calling thread, if
    /// any — lets code deep inside a request handler parent cross-thread
    /// work (e.g. a job's queue wait) to the enclosing request span
    /// without threading ids through every call.
    pub fn current(&self) -> Option<u64> {
        OPEN.with(|open| open.borrow().last().copied())
    }

    /// Completed spans shed because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Completed spans currently held, oldest first.
    pub fn completed(&self) -> Vec<SpanRecord> {
        let ring = self.ring.lock().unwrap();
        ring.spans.iter().cloned().collect()
    }

    /// Writes the held spans as a Chrome `trace_event` document of
    /// complete events (`ph:"X"`) through the shared
    /// [`chrome`](crate::chrome) writer. Each span carries its id and
    /// parent id in `args`, so the tree survives ring eviction (an
    /// orphaned child still renders, its `parent` just points at an
    /// evicted id).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_chrome_trace<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut trace = ChromeTrace::begin(w);
        for s in self.completed() {
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
}

struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    name: String,
    start_micros: u64,
}

/// RAII handle for an open span; records the interval on drop.
pub struct SpanGuard<'a> {
    recorder: &'a SpanRecorder,
    inner: Option<OpenSpan>,
}

impl SpanGuard<'_> {
    /// This span's id, for parenting cross-thread children. 0 when the
    /// guard is inert (instrumentation disabled at open).
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| s.id)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(open) = self.inner.take() else {
            return;
        };
        let end = self.recorder.now_micros();
        OPEN.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Guards drop in LIFO order within a thread, so this span is
            // the innermost open one.
            debug_assert_eq!(stack.last().copied(), Some(open.id));
            stack.retain(|&id| id != open.id);
        });
        self.recorder.push(SpanRecord {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_micros: open.start_micros,
            dur_micros: end.saturating_sub(open.start_micros),
            tid: TID.with(|t| *t),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome;

    #[test]
    fn nested_guards_record_parent_links() {
        let rec = SpanRecorder::new(64);
        {
            let outer = rec.span("outer");
            let outer_id = outer.id();
            {
                let inner = rec.span("inner");
                assert_ne!(inner.id(), outer_id);
            }
            let _sibling = rec.span("sibling");
        }
        let spans = rec.completed();
        assert_eq!(spans.len(), 3);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        let outer = by_name("outer");
        assert_eq!(outer.parent, None);
        assert_eq!(by_name("inner").parent, Some(outer.id));
        assert_eq!(by_name("sibling").parent, Some(outer.id));
        // Children close before (or when) the parent closes.
        for child in ["inner", "sibling"] {
            let c = by_name(child);
            assert!(c.start_micros >= outer.start_micros);
            assert!(
                c.start_micros + c.dur_micros <= outer.start_micros + outer.dur_micros,
                "{child} ends after its parent"
            );
        }
    }

    #[test]
    fn ring_sheds_oldest_and_counts_drops() {
        let rec = SpanRecorder::new(2);
        rec.record("a", 0, 1, None);
        rec.record("b", 1, 1, None);
        rec.record("c", 2, 1, None);
        let names: Vec<String> = rec.completed().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["b", "c"]);
        assert_eq!(rec.dropped(), 1);
    }

    // The disabled-path behaviour flips the process-global switch, so it
    // lives in tests/disabled.rs (its own process) rather than racing the
    // enabled-path unit tests here.

    #[test]
    fn chrome_export_bytes_are_pinned() {
        let rec = SpanRecorder::new(8);
        rec.record("serve.request", 5, 10, None);
        rec.record("quote\"back\\slash", 7, 0, Some(1));
        let tid = rec.completed()[0].tid;
        let mut buf = Vec::new();
        rec.write_chrome_trace(&mut buf).unwrap();
        let want = format!(
            concat!(
                r#"{{"traceEvents":["#,
                r#"{{"name":"serve.request","cat":"obs","ph":"X","ts":5,"dur":10,"pid":1,"tid":{tid},"args":{{"id":1,"parent":0}}}},"#,
                r#"{{"name":"quote\"back\\slash","cat":"obs","ph":"X","ts":7,"dur":0,"pid":1,"tid":{tid},"args":{{"id":2,"parent":1}}}}"#,
                r#"],"displayTimeUnit":"ns"}}"#
            ),
            tid = tid
        );
        assert_eq!(String::from_utf8(buf).unwrap(), want);
        assert_eq!(chrome::validate(&want).unwrap().len(), 2);
    }

    #[test]
    fn span_export_passes_the_shared_validator() {
        let rec = SpanRecorder::new(64);
        {
            let _outer = rec.span("serve.request");
            let _inner = rec.span("serve.execute");
        }
        rec.record("serve.queue_wait", 3, 40, None);
        rec.record("odd name \"quoted\"\\slash", 0, 1, Some(1));
        let mut buf = Vec::new();
        rec.write_chrome_trace(&mut buf).unwrap();
        let events = chrome::validate(&String::from_utf8(buf).unwrap()).unwrap();
        assert_eq!(events.len(), 4);

        let mut empty = Vec::new();
        SpanRecorder::new(4).write_chrome_trace(&mut empty).unwrap();
        assert!(chrome::validate(&String::from_utf8(empty).unwrap())
            .unwrap()
            .is_empty());
    }
}
