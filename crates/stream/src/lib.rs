//! Binary trace capture/replay for the `ipsim` instruction-prefetching
//! simulator.
//!
//! The synthetic trace walker (`ipsim-trace`) is deterministic but not
//! free: generating a stream costs PRNG and state-machine work per op,
//! repeated for *every* configuration in a sweep even though the
//! instruction stream only depends on the workload half of the spec. This
//! crate makes streams first-class artifacts:
//!
//! * [`codec`] — per-op delta encoding (tag byte + zigzag varints, PC
//!   elided via stream self-consistency),
//! * [`writer`] / [`reader`] — CRC-framed blocks with a seekable index;
//!   any bit flip or truncation is detected, never mis-decoded,
//! * [`TraceSource`] — the capture/replay seam: the CPU model consumes a
//!   `TraceSource`, which can be a live walker, a [`Tee`] (walker +
//!   capture to disk through a [`TraceWriter`]), or a [`ReplaySource`]
//!   decoding a stored trace.
//!
//! Capture once, replay everywhere: the harness stores one trace per
//! workload stream and feeds every other config in the sweep from it,
//! with byte-identical figure output (enforced by integration test).
//!
//! # Example
//!
//! ```
//! use ipsim_stream::{ReplaySource, TraceReader, TraceSource, TraceWriter};
//! use ipsim_types::instr::{OpKind, TraceOp};
//! use ipsim_types::Addr;
//!
//! let mut writer = TraceWriter::new(Vec::new(), 0, "demo").unwrap();
//! let op = TraceOp { pc: Addr(0x1000), kind: OpKind::Other };
//! writer.append(&op).unwrap();
//! let (bytes, stats) = writer.finish_into().unwrap();
//! assert_eq!(stats.ops, 1);
//!
//! let reader = TraceReader::open(std::io::Cursor::new(bytes)).unwrap();
//! let mut replay = ReplaySource::new(reader).unwrap();
//! assert_eq!(replay.next_op(), op);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod crc32;
pub mod reader;
pub mod varint;
pub mod writer;

use std::io::{Read, Seek, Write};

use ipsim_types::instr::TraceOp;
use ipsim_types::{CodecError, StreamStats};

pub use reader::TraceReader;
pub use writer::{TraceWriter, BLOCK_TARGET_BYTES, FORMAT_VERSION};

/// An infinite, infallible stream of instructions — what the CPU model
/// consumes. Implemented by the live walker (`ipsim-trace`), by [`Tee`]
/// (live + capture), and by [`ReplaySource`] (decode from disk).
///
/// Infallibility is a deliberate contract: the simulator core has no
/// error path mid-run. Sources that can fail (capture I/O, decode) must
/// either absorb the failure ([`Tee`] keeps streaming and reports the
/// sink error afterwards) or front-load it (replay requires a validated
/// trace).
pub trait TraceSource {
    /// Produces the next instruction.
    fn next_op(&mut self) -> TraceOp;

    /// Fills `out` with the next `out.len()` instructions, in stream
    /// order — exactly equivalent to `out.len()` calls to
    /// [`TraceSource::next_op`].
    ///
    /// The CPU model consumes sources through `&mut dyn TraceSource`; this
    /// batched entry point amortises the virtual call (and, for
    /// implementations that override it, per-op decode dispatch) over a
    /// scheduler quantum instead of paying it per instruction. The default
    /// simply loops `next_op`, so implementing it is optional.
    fn next_block(&mut self, out: &mut [TraceOp]) {
        for slot in out {
            *slot = self.next_op();
        }
    }

    /// Zero-copy variant of [`TraceSource::next_block`]: returns a
    /// borrowed view of the next `n` instructions and advances past them,
    /// or `None` when this source cannot lend its ops (the default — live
    /// walkers generate ops, tees must observe every op, replay decodes
    /// into a rotating buffer). Only sources that hold fully decoded ops
    /// in memory ([`ArenaSource`]) override this.
    ///
    /// A `Some` slice has exactly `n` ops; an implementation that cannot
    /// serve `n` more ops must panic (the scheduler never asks past the
    /// agreed stream length, so running dry is a harness bug — the same
    /// contract as [`ReplaySource`]'s `next_op`).
    fn next_slice(&mut self, n: usize) -> Option<&[TraceOp]> {
        let _ = n;
        None
    }
}

impl<S: TraceSource + ?Sized> TraceSource for &mut S {
    fn next_op(&mut self) -> TraceOp {
        (**self).next_op()
    }

    fn next_block(&mut self, out: &mut [TraceOp]) {
        (**self).next_block(out)
    }

    fn next_slice(&mut self, n: usize) -> Option<&[TraceOp]> {
        (**self).next_slice(n)
    }
}

/// Streams from `source` while recording every op into a [`TraceWriter`].
///
/// Writer failures do not interrupt the stream: the first error is latched
/// and recording stops, but `next_op` keeps serving the live source, so a
/// full disk degrades a capture run into a plain live run instead of
/// killing the simulation. Check [`Tee::into_parts`] afterwards to learn
/// whether the capture is complete.
pub struct Tee<S, W: Write> {
    source: S,
    writer: TraceWriter<W>,
    error: Option<CodecError>,
}

impl<S: TraceSource, W: Write> Tee<S, W> {
    /// Wraps `source`, mirroring its ops into `writer`.
    pub fn new(source: S, writer: TraceWriter<W>) -> Tee<S, W> {
        Tee {
            source,
            writer,
            error: None,
        }
    }

    /// Dismantles the tee, returning the writer and the first write error
    /// (if any). A `None` error means every op served was also recorded.
    pub fn into_parts(self) -> (TraceWriter<W>, Option<CodecError>) {
        (self.writer, self.error)
    }
}

impl<S: TraceSource, W: Write> TraceSource for Tee<S, W> {
    #[inline]
    fn next_op(&mut self) -> TraceOp {
        let op = self.source.next_op();
        if self.error.is_none() {
            if let Err(e) = self.writer.append(&op) {
                self.error = Some(e);
            }
        }
        op
    }

    fn next_block(&mut self, out: &mut [TraceOp]) {
        self.source.next_block(out);
        if self.error.is_none() {
            for op in out.iter() {
                if let Err(e) = self.writer.append(op) {
                    self.error = Some(e);
                    break;
                }
            }
        }
    }
}

/// Replays a stored trace as an infallible [`TraceSource`].
///
/// Construction runs [`TraceReader::verify_blocks`], so every block's CRC
/// and op count is proven good — at checksum speed, without decoding —
/// before the first op is served. The only ways `next_op` can fail
/// afterwards are an I/O fault, a CRC-valid-but-undecodable payload
/// (impossible for writer-produced files) or draining the trace past its
/// recorded length; all indicate a harness bug and panic rather than
/// feeding the simulator a wrong stream.
pub struct ReplaySource<R: Read + Seek> {
    reader: TraceReader<R>,
    stats: StreamStats,
}

impl<R: Read + Seek> ReplaySource<R> {
    /// Verifies `reader`'s whole trace, then positions at the first op.
    pub fn new(mut reader: TraceReader<R>) -> Result<ReplaySource<R>, CodecError> {
        let stats = reader.verify_blocks()?;
        Ok(ReplaySource { reader, stats })
    }

    /// Whole-trace statistics gathered during verification.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Repositions the replay so that the next op served is op number
    /// `op` ([`TraceReader::seek_to_op`]).
    pub fn seek_to_op(&mut self, op: u64) -> Result<(), CodecError> {
        self.reader.seek_to_op(op)
    }
}

/// Replays fully decoded, in-memory instructions as an infallible
/// [`TraceSource`] — the zero-copy end of the capture/replay seam.
///
/// Decode a trace once with
/// [`TraceReader::decode_all_into`](reader::TraceReader::decode_all_into)
/// (or synthesise ops any other way), then replay the arena any number of
/// times without touching the codec again. [`TraceSource::next_slice`]
/// hands the scheduler borrowed sub-slices, so a replayed run performs no
/// per-op decode *and* no per-quantum copy.
///
/// Generic over anything that derefs to `[TraceOp]` (`Vec`, `&[TraceOp]`,
/// or an `Arc`-backed view), so one decoded arena can feed many runs.
///
/// # Panics
///
/// Like [`ReplaySource`], draining past the end of the arena panics: the
/// scheduler never asks for more ops than the agreed stream length, so
/// running dry is a harness bug, not a runtime condition.
pub struct ArenaSource<T: AsRef<[TraceOp]>> {
    ops: T,
    pos: usize,
}

impl<T: AsRef<[TraceOp]>> ArenaSource<T> {
    /// A source serving `ops` from the start.
    pub fn new(ops: T) -> ArenaSource<T> {
        ArenaSource { ops, pos: 0 }
    }

    /// Ops served so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Total ops in the arena.
    pub fn len(&self) -> usize {
        self.ops.as_ref().len()
    }

    /// `true` when the arena holds no ops at all.
    pub fn is_empty(&self) -> bool {
        self.ops.as_ref().is_empty()
    }

    /// Restarts from the first op.
    pub fn rewind(&mut self) {
        self.pos = 0;
    }
}

impl<T: AsRef<[TraceOp]>> TraceSource for ArenaSource<T> {
    #[inline]
    fn next_op(&mut self) -> TraceOp {
        let op = self.ops.as_ref()[self.pos];
        self.pos += 1;
        op
    }

    fn next_block(&mut self, out: &mut [TraceOp]) {
        let end = self.pos + out.len();
        out.copy_from_slice(&self.ops.as_ref()[self.pos..end]);
        self.pos = end;
    }

    #[inline]
    fn next_slice(&mut self, n: usize) -> Option<&[TraceOp]> {
        let start = self.pos;
        self.pos += n;
        Some(&self.ops.as_ref()[start..self.pos])
    }
}

impl<R: Read + Seek> TraceSource for ReplaySource<R> {
    #[inline]
    fn next_op(&mut self) -> TraceOp {
        self.reader
            .next_op()
            .expect("validated trace failed mid-replay")
            .expect("replay ran past end of trace")
    }

    fn next_block(&mut self, out: &mut [TraceOp]) {
        // One virtual call per scheduler quantum; the decode loop itself
        // is monomorphised here rather than re-entered through the vtable.
        for slot in out {
            *slot = self
                .reader
                .next_op()
                .expect("validated trace failed mid-replay")
                .expect("replay ran past end of trace");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsim_types::instr::OpKind;
    use ipsim_types::Addr;

    /// A destination that accepts `budget` bytes, then fails every write,
    /// counting the writes attempted after the first failure.
    struct FailAfter {
        budget: usize,
        failed: bool,
        late_writes: usize,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.failed {
                self.late_writes += 1;
            }
            if self.failed || buf.len() > self.budget {
                self.failed = true;
                return Err(std::io::Error::other("disk full"));
            }
            self.budget -= buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Loads over a scattered data footprint: several varint bytes an op,
    /// so a few thousand ops fill a block.
    fn ops(n: u64) -> Vec<TraceOp> {
        (0..n)
            .map(|i| TraceOp {
                pc: Addr(0x1000 + 4 * i),
                kind: OpKind::Load {
                    addr: Addr(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16),
                },
            })
            .collect()
    }

    #[test]
    fn a_failing_writer_stops_recording_but_not_the_stream() {
        let want = ops(200_000);
        let mut disk = FailAfter {
            budget: 1_000,
            failed: false,
            late_writes: 0,
        };
        let writer = TraceWriter::new(&mut disk, 0, "full disk").unwrap();
        let mut tee = Tee::new(ArenaSource::new(want.clone()), writer);
        let mut got = Vec::with_capacity(want.len());
        let mut block = vec![want[0]; 1_000];
        while got.len() < want.len() / 2 {
            got.push(tee.next_op());
        }
        while got.len() < want.len() {
            tee.next_block(&mut block);
            got.extend_from_slice(&block);
        }
        assert!(got == want, "the tee changed the stream it served");
        let (writer, error) = tee.into_parts();
        assert!(error.is_some(), "the write error was not reported");
        drop(writer);
        assert!(disk.failed);
        assert_eq!(disk.late_writes, 0, "the tee kept recording after an error");
    }
}
