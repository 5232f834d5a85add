//! [`TraceReader`]: decodes trace files written by
//! [`TraceWriter`](crate::writer::TraceWriter).
//!
//! Opening a reader parses the header, trailer and block index (three
//! seeks, no payload scan), so open is cheap even on multi-gigabyte
//! traces. Blocks are then decoded lazily, one at a time, as
//! [`next_op`](TraceReader::next_op) crosses block boundaries. Every block
//! is CRC-checked before any of its ops are surfaced; a corrupt file
//! yields an error, never a wrong instruction.
//!
//! Two whole-file checks exist, ordered by cost:
//!
//! * [`verify_blocks`](TraceReader::verify_blocks) reads and CRC-checks
//!   every block *without decoding a single op* — this is how the harness
//!   proves a stored trace is replayable before committing a run to it,
//!   at memory-bandwidth speed rather than decode speed;
//! * [`validate`](TraceReader::validate) additionally decodes every op
//!   and reconciles counts against the index (the deep scan used by tests
//!   and tools).
//!
//! Ops are decoded lazily, one at a time, straight out of the CRC-verified
//! payload buffer — no intermediate op vector — because replay decode
//! throughput competes directly with live walker generation.

use std::io::{Read, Seek, SeekFrom};

use ipsim_types::instr::TraceOp;
use ipsim_types::{CodecError, StreamStats};

use crate::codec::{self, CodecState};
use crate::crc32::Crc32;
use crate::writer::{
    BlockEntry, END_MAGIC, FILE_MAGIC, FORMAT_VERSION, INDEX_MAGIC, TRAILER_BYTES,
};

/// Upper bound on the header meta string; a larger length is corruption.
const MAX_META_BYTES: u32 = 1 << 20;

/// Minimum encoded size of one block (header + CRC + one-byte payload).
const MIN_BLOCK_BYTES: u64 = 24 + 4 + 1;

/// Streaming, seekable trace decoder.
pub struct TraceReader<R: Read + Seek> {
    inner: R,
    core_id: u32,
    meta: String,
    index: Vec<BlockEntry>,
    total_ops: u64,
    file_bytes: u64,
    /// Next block to load when the current payload drains.
    next_block: usize,
    /// CRC-verified payload of the current block (buffer reused across
    /// blocks).
    payload: Vec<u8>,
    /// Byte position within `payload`.
    pos: usize,
    /// Ops remaining in the current block.
    ops_left: u32,
    /// Codec state advancing through the current block.
    state: CodecState,
    /// Sum of payload bytes seen so far (for decode-rate accounting).
    payload_bytes_seen: u64,
}

fn read_exact(r: &mut impl Read, buf: &mut [u8], what: &'static str) -> Result<(), CodecError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            CodecError::Truncated { what }
        } else {
            CodecError::Io(e.to_string())
        }
    })
}

fn u32_at(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().unwrap())
}

fn u64_at(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
}

impl<R: Read + Seek> TraceReader<R> {
    /// Opens a trace: verifies the header, trailer and block index, and
    /// positions the stream at the first op.
    pub fn open(mut inner: R) -> Result<TraceReader<R>, CodecError> {
        let file_bytes = inner.seek(SeekFrom::End(0))?;
        inner.seek(SeekFrom::Start(0))?;

        // --- header ---
        let mut magic = [0u8; 8];
        read_exact(&mut inner, &mut magic, "file magic")?;
        if &magic != FILE_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let mut fixed = [0u8; 12];
        read_exact(&mut inner, &mut fixed, "file header")?;
        let version = u32_at(&fixed, 0);
        let core_id = u32_at(&fixed, 4);
        let meta_len = u32_at(&fixed, 8);
        if version != FORMAT_VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        if meta_len > MAX_META_BYTES {
            return Err(CodecError::Truncated {
                what: "header meta",
            });
        }
        let mut meta_bytes = vec![0u8; meta_len as usize];
        read_exact(&mut inner, &mut meta_bytes, "header meta")?;
        let mut stored = [0u8; 4];
        read_exact(&mut inner, &mut stored, "header crc")?;
        let mut crc = Crc32::new();
        crc.update(&fixed);
        crc.update(&meta_bytes);
        if crc.finish() != u32_at(&stored, 0) {
            return Err(CodecError::CrcMismatch {
                what: "header",
                block: 0,
            });
        }
        let meta = String::from_utf8(meta_bytes).map_err(|_| CodecError::CrcMismatch {
            what: "header meta utf-8",
            block: 0,
        })?;
        let data_start = 8 + 12 + u64::from(meta_len) + 4;

        // --- trailer ---
        if file_bytes < data_start + TRAILER_BYTES {
            return Err(CodecError::Truncated { what: "trailer" });
        }
        inner.seek(SeekFrom::End(-(TRAILER_BYTES as i64)))?;
        let mut trailer = [0u8; TRAILER_BYTES as usize];
        read_exact(&mut inner, &mut trailer, "trailer")?;
        if &trailer[12..20] != END_MAGIC {
            return Err(CodecError::BadMagic);
        }
        if crate::crc32::crc32(&trailer[0..8]) != u32_at(&trailer, 8) {
            return Err(CodecError::CrcMismatch {
                what: "trailer",
                block: 0,
            });
        }
        let footer_offset = u64_at(&trailer, 0);
        if footer_offset < data_start || footer_offset > file_bytes - TRAILER_BYTES {
            return Err(CodecError::Truncated {
                what: "footer offset",
            });
        }

        // --- footer / block index ---
        inner.seek(SeekFrom::Start(footer_offset))?;
        read_exact(&mut inner, &mut magic, "index magic")?;
        if &magic != INDEX_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let mut n_blocks_buf = [0u8; 8];
        read_exact(&mut inner, &mut n_blocks_buf, "index length")?;
        let n_blocks = u64_at(&n_blocks_buf, 0);
        // Each indexed block occupies at least MIN_BLOCK_BYTES of file.
        if n_blocks > footer_offset / MIN_BLOCK_BYTES {
            return Err(CodecError::CrcMismatch {
                what: "index length",
                block: 0,
            });
        }
        let mut body = vec![0u8; n_blocks as usize * 12 + 8];
        read_exact(&mut inner, &mut body, "index body")?;
        read_exact(&mut inner, &mut stored, "index crc")?;
        let mut crc = Crc32::new();
        crc.update(&n_blocks_buf);
        crc.update(&body);
        if crc.finish() != u32_at(&stored, 0) {
            return Err(CodecError::CrcMismatch {
                what: "index",
                block: 0,
            });
        }
        let mut index = Vec::with_capacity(n_blocks as usize);
        let mut indexed_ops = 0u64;
        for i in 0..n_blocks as usize {
            let entry = BlockEntry {
                offset: u64_at(&body, i * 12),
                n_ops: u32_at(&body, i * 12 + 8),
            };
            if entry.offset < data_start || entry.offset >= footer_offset {
                return Err(CodecError::CrcMismatch {
                    what: "index entry",
                    block: i as u64,
                });
            }
            indexed_ops += u64::from(entry.n_ops);
            index.push(entry);
        }
        let total_ops = u64_at(&body, n_blocks as usize * 12);
        if indexed_ops != total_ops {
            return Err(CodecError::CountMismatch {
                expected: total_ops,
                found: indexed_ops,
            });
        }
        // Every op encodes to at least one payload byte, so a count above
        // the file size is a lie the CRC cannot catch; rejecting it here
        // keeps `decode_all_into`'s up-front reservation bounded by the
        // file instead of by an attacker-chosen index.
        if total_ops > file_bytes {
            return Err(CodecError::CountMismatch {
                expected: file_bytes,
                found: total_ops,
            });
        }

        Ok(TraceReader {
            inner,
            core_id,
            meta,
            index,
            total_ops,
            file_bytes,
            next_block: 0,
            payload: Vec::new(),
            pos: 0,
            ops_left: 0,
            state: CodecState::at(0, 0),
            payload_bytes_seen: 0,
        })
    }

    /// Core this trace was captured for.
    pub fn core_id(&self) -> u32 {
        self.core_id
    }

    /// The free-form metadata stored at capture time.
    pub fn meta(&self) -> &str {
        &self.meta
    }

    /// Total ops in the trace, per the (CRC-verified) index.
    pub fn total_ops(&self) -> u64 {
        self.total_ops
    }

    /// Number of blocks in the trace.
    pub fn block_count(&self) -> usize {
        self.index.len()
    }

    /// Loads block `idx` into the payload buffer, verifying its CRC and
    /// header against the index. Ops are *not* decoded here — decode is
    /// lazy, per [`next_op`](TraceReader::next_op).
    fn load_block(&mut self, idx: usize) -> Result<(), CodecError> {
        let entry = self.index[idx];
        let block = idx as u64;
        self.inner.seek(SeekFrom::Start(entry.offset))?;
        let mut header = [0u8; 24];
        read_exact(&mut self.inner, &mut header, "block header")?;
        let mut stored = [0u8; 4];
        read_exact(&mut self.inner, &mut stored, "block crc")?;
        let n_ops = u32_at(&header, 0);
        let payload_len = u32_at(&header, 4);
        let start_pc = u64_at(&header, 8);
        let start_data = u64_at(&header, 16);
        if entry.offset + 28 + u64::from(payload_len) > self.file_bytes {
            return Err(CodecError::Truncated {
                what: "block payload",
            });
        }
        self.payload.resize(payload_len as usize, 0);
        read_exact(&mut self.inner, &mut self.payload, "block payload")?;
        let mut crc = Crc32::new();
        crc.update(&header);
        crc.update(&self.payload);
        if crc.finish() != u32_at(&stored, 0) {
            return Err(CodecError::CrcMismatch {
                what: "block",
                block,
            });
        }
        if n_ops != entry.n_ops || (n_ops == 0 && payload_len != 0) {
            return Err(CodecError::CountMismatch {
                expected: u64::from(entry.n_ops),
                found: u64::from(n_ops),
            });
        }
        self.state = CodecState::at(start_pc, start_data);
        self.payload_bytes_seen += u64::from(payload_len);
        self.pos = 0;
        self.ops_left = n_ops;
        self.next_block = idx + 1;
        Ok(())
    }

    /// Returns the next op, or `None` at end of trace, decoding it
    /// directly from the current block's CRC-verified payload.
    #[inline]
    pub fn next_op(&mut self) -> Result<Option<TraceOp>, CodecError> {
        while self.ops_left == 0 {
            if self.next_block >= self.index.len() {
                return Ok(None);
            }
            let idx = self.next_block;
            self.load_block(idx)?;
        }
        let mut input = &self.payload[self.pos..];
        let op = codec::decode_op(&mut self.state, &mut input)?;
        self.pos = self.payload.len() - input.len();
        self.ops_left -= 1;
        if self.ops_left == 0 && self.pos != self.payload.len() {
            // Payload longer than its ops — the writer never produces this,
            // so surplus bytes mean the header lied despite a matching CRC.
            return Err(CodecError::CountMismatch {
                expected: self.payload.len() as u64,
                found: self.pos as u64,
            });
        }
        Ok(Some(op))
    }

    /// Repositions the stream at the first op of block `idx`.
    pub fn seek_to_block(&mut self, idx: usize) -> Result<(), CodecError> {
        if idx > self.index.len() {
            return Err(CodecError::CountMismatch {
                expected: self.index.len() as u64,
                found: idx as u64,
            });
        }
        self.payload.clear();
        self.pos = 0;
        self.ops_left = 0;
        self.next_block = idx;
        Ok(())
    }

    /// Rewinds to the first op.
    pub fn rewind(&mut self) -> Result<(), CodecError> {
        self.seek_to_block(0)
    }

    /// Reads every block and checks its CRC and index entry *without
    /// decoding ops*, then rewinds. Returns whole-file statistics.
    ///
    /// This runs at checksum speed (slicing-by-8, several bytes per
    /// cycle), so the harness can afford it before every replay. After it
    /// succeeds, streaming the trace can only fail through an I/O error or
    /// a CRC-valid-but-undecodable payload — the latter is impossible for
    /// writer-produced files, which is what lets a replay source treat
    /// decode as infallible.
    pub fn verify_blocks(&mut self) -> Result<StreamStats, CodecError> {
        self.rewind()?;
        self.payload_bytes_seen = 0;
        let mut ops = 0u64;
        for idx in 0..self.index.len() {
            self.load_block(idx)?;
            ops += u64::from(self.ops_left);
            self.ops_left = 0;
        }
        if ops != self.total_ops {
            return Err(CodecError::CountMismatch {
                expected: self.total_ops,
                found: ops,
            });
        }
        let stats = StreamStats {
            ops,
            blocks: self.index.len() as u64,
            payload_bytes: self.payload_bytes_seen,
            file_bytes: self.file_bytes,
        };
        self.rewind()?;
        Ok(stats)
    }

    /// Decodes the whole trace into `out` in one pass — the arena decode
    /// feeding [`ArenaSource`](crate::ArenaSource). Every block CRC is
    /// still verified (by [`load_block`](Self::load_block)) before its ops
    /// are surfaced, and the total is reconciled against the index, so
    /// this is as safe as `verify_blocks` + streaming decode while paying
    /// the codec exactly once per trace instead of once per replay.
    ///
    /// `out` is appended to (capacity is reserved up front) so callers can
    /// reuse one allocation across traces. Rewinds when done. Returns
    /// whole-file statistics.
    pub fn decode_all_into(&mut self, out: &mut Vec<TraceOp>) -> Result<StreamStats, CodecError> {
        self.rewind()?;
        self.payload_bytes_seen = 0;
        out.reserve(self.total_ops as usize);
        let mut ops = 0u64;
        while let Some(op) = self.next_op()? {
            out.push(op);
            ops += 1;
        }
        if ops != self.total_ops {
            return Err(CodecError::CountMismatch {
                expected: self.total_ops,
                found: ops,
            });
        }
        let stats = StreamStats {
            ops,
            blocks: self.index.len() as u64,
            payload_bytes: self.payload_bytes_seen,
            file_bytes: self.file_bytes,
        };
        self.rewind()?;
        Ok(stats)
    }

    /// Decodes every block, checking all CRCs and reconciling op counts
    /// against the index, then rewinds. Returns whole-file statistics.
    ///
    /// The deep variant of [`verify_blocks`](TraceReader::verify_blocks):
    /// additionally proves every payload byte decodes to an op. Used by
    /// tests and tools; the harness uses the cheap check.
    pub fn validate(&mut self) -> Result<StreamStats, CodecError> {
        self.rewind()?;
        self.payload_bytes_seen = 0;
        let mut ops = 0u64;
        while self.next_op()?.is_some() {
            ops += 1;
        }
        if ops != self.total_ops {
            return Err(CodecError::CountMismatch {
                expected: self.total_ops,
                found: ops,
            });
        }
        let stats = StreamStats {
            ops,
            blocks: self.index.len() as u64,
            payload_bytes: self.payload_bytes_seen,
            file_bytes: self.file_bytes,
        };
        self.rewind()?;
        Ok(stats)
    }
}
