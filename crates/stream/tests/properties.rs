//! Property tests for the trace codec and file format.
//!
//! Four properties, each over *arbitrary* op sequences (not just
//! walker-shaped ones — the writer's resync path must make any sequence
//! encodable):
//!
//! 1. encode → decode is the identity,
//! 2. every strict prefix of a trace file is rejected (truncation is
//!    always detected),
//! 3. no single bit flip can make a trace decode to a *different* op
//!    sequence — corruption is either detected or harmless to content
//!    (in practice: always detected, since every byte is CRC-covered),
//! 4. an index re-sealed with a valid CRC but inflated block counts never
//!    decodes — a count the file cannot hold is rejected at open.
//!
//! PCs and addresses stay below `1 << 60` because `Addr::offset` asserts
//! against overflow in debug builds; real streams live far below that.

use std::io::Cursor;

use ipsim_stream::{TraceReader, TraceWriter};
use ipsim_types::instr::{CtiClass, OpKind, TraceOp};
use ipsim_types::Addr;
use proptest::prelude::*;

const ADDR_CEIL: u64 = 1 << 60;

/// Builds one op from raw generated parts. `kind_sel` picks the op kind;
/// CTI classes are spread across selectors 3..9.
fn make_op(pc: u64, kind_sel: u32, addr: u64, taken: bool) -> TraceOp {
    let kind = match kind_sel {
        0 => OpKind::Other,
        1 => OpKind::Load { addr: Addr(addr) },
        2 => OpKind::Store { addr: Addr(addr) },
        n => OpKind::Cti {
            class: match n {
                3 => CtiClass::CondBranch,
                4 => CtiClass::UncondBranch,
                5 => CtiClass::Call,
                6 => CtiClass::Jump,
                7 => CtiClass::Return,
                _ => CtiClass::Trap,
            },
            taken,
            target: Addr(addr),
        },
    };
    TraceOp { pc: Addr(pc), kind }
}

/// Arbitrary sequences: each op's PC is independent, so the writer must
/// resync (potentially every op).
fn arbitrary_ops(raw: Vec<(u64, u32, u64, bool)>) -> Vec<TraceOp> {
    raw.into_iter()
        .map(|(pc, sel, addr, taken)| make_op(pc, sel, addr, taken))
        .collect()
}

/// Walker-shaped sequences: each op's PC is the previous op's `next_pc`,
/// so the whole stream encodes without resyncs.
fn chained_ops(start_pc: u64, raw: Vec<(u32, u64, bool)>) -> Vec<TraceOp> {
    let mut pc = start_pc;
    raw.into_iter()
        .map(|(sel, addr, taken)| {
            let op = make_op(pc, sel, addr, taken);
            pc = op.next_pc().0;
            op
        })
        .collect()
}

fn encode(ops: &[TraceOp], meta: &str) -> Vec<u8> {
    let mut writer = TraceWriter::new(Vec::new(), 7, meta).expect("header write");
    for op in ops {
        writer.append(op).expect("append");
    }
    let (bytes, stats) = writer.finish_into().expect("finish");
    assert_eq!(stats.ops, ops.len() as u64);
    assert_eq!(stats.file_bytes, bytes.len() as u64);
    bytes
}

fn decode(bytes: &[u8]) -> Result<Vec<TraceOp>, ipsim_types::CodecError> {
    let mut reader = TraceReader::open(Cursor::new(bytes))?;
    reader.validate()?;
    let mut ops = Vec::new();
    while let Some(op) = reader.next_op()? {
        ops.push(op);
    }
    Ok(ops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_sequences_round_trip(
        raw in prop::collection::vec(
            (0u64..ADDR_CEIL, 0u32..9, 0u64..ADDR_CEIL, any::<bool>()),
            0..200,
        )
    ) {
        let ops = arbitrary_ops(raw);
        let bytes = encode(&ops, "prop/arbitrary");
        let decoded = decode(&bytes).expect("round trip");
        prop_assert_eq!(decoded, ops);
    }

    #[test]
    fn chained_sequences_round_trip_compactly(
        start_pc in 0u64..(1 << 40),
        raw in prop::collection::vec((0u32..9, 0u64..(1 << 40), any::<bool>()), 1..400)
    ) {
        let ops = chained_ops(start_pc, raw);
        let bytes = encode(&ops, "prop/chained");
        let decoded = decode(&bytes).expect("round trip");
        let n = ops.len();
        prop_assert_eq!(decoded, ops);
        // Chained streams never resync, so a short stream is one block and
        // the per-op cost stays near the tag+delta minimum.
        let mut reader = TraceReader::open(Cursor::new(&bytes)).unwrap();
        prop_assert_eq!(reader.block_count(), 1);
        let stats = reader.validate().unwrap();
        prop_assert!(stats.payload_bytes <= 8 * n as u64);
    }

    #[test]
    fn truncation_is_always_detected(
        raw in prop::collection::vec(
            (0u64..ADDR_CEIL, 0u32..9, 0u64..ADDR_CEIL, any::<bool>()),
            0..24,
        )
    ) {
        let ops = arbitrary_ops(raw);
        let bytes = encode(&ops, "prop/truncate");
        for len in 0..bytes.len() {
            prop_assert!(
                decode(&bytes[..len]).is_err(),
                "prefix of {} / {} bytes decoded successfully",
                len,
                bytes.len()
            );
        }
    }

    #[test]
    fn bit_flips_never_mis_decode(
        raw in prop::collection::vec(
            (0u64..ADDR_CEIL, 0u32..9, 0u64..ADDR_CEIL, any::<bool>()),
            1..16,
        )
    ) {
        let ops = arbitrary_ops(raw);
        let bytes = encode(&ops, "prop/bitflip");
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                match decode(&corrupt) {
                    Err(_) => {}
                    Ok(decoded) => prop_assert_eq!(
                        &decoded,
                        &ops,
                        "flip {}.{} decoded to different ops",
                        byte,
                        bit
                    ),
                }
            }
        }
    }
}

/// Rewrites a sealed trace's index so block 0 claims `n_ops` ops (and the
/// index total agrees), re-sealing the index CRC: a crafted file every
/// checksum accepts.
fn inflate_first_block(bytes: &mut [u8], n_ops: u32) {
    let len = bytes.len();
    let footer = u64::from_le_bytes(bytes[len - 20..len - 12].try_into().unwrap()) as usize;
    let body = footer + 8;
    let n_blocks = u64::from_le_bytes(bytes[body..body + 8].try_into().unwrap()) as usize;
    assert!(n_blocks >= 1, "needs a block to inflate");
    let entry = |i: usize| body + 8 + i * 12;
    bytes[entry(0) + 8..entry(0) + 12].copy_from_slice(&n_ops.to_le_bytes());
    let total: u64 = (0..n_blocks)
        .map(|i| {
            u64::from(u32::from_le_bytes(
                bytes[entry(i) + 8..entry(i) + 12].try_into().unwrap(),
            ))
        })
        .sum();
    let total_at = entry(n_blocks);
    bytes[total_at..total_at + 8].copy_from_slice(&total.to_le_bytes());
    let crc = ipsim_stream::crc32::crc32(&bytes[body..total_at + 8]);
    bytes[total_at + 8..total_at + 12].copy_from_slice(&crc.to_le_bytes());
}

/// An index whose CRC is valid but whose block counts claim more ops than
/// the file could hold is rejected at open — before any decode could
/// reserve memory for the claimed count.
#[test]
fn crc_valid_inflated_op_counts_are_rejected_at_open() {
    let op = TraceOp {
        pc: Addr(0x1000),
        kind: OpKind::Other,
    };
    let mut bytes = encode(&[op], "inflated");
    inflate_first_block(&mut bytes, u32::MAX);
    match TraceReader::open(Cursor::new(&bytes)) {
        Err(ipsim_types::CodecError::CountMismatch { expected, found }) => {
            assert_eq!((expected, found), (bytes.len() as u64, u64::from(u32::MAX)));
        }
        Err(e) => panic!("wrong error for an inflated count: {e}"),
        Ok(_) => panic!(
            "an index claiming {} ops in {} bytes opened",
            u32::MAX,
            bytes.len()
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any count the file cannot hold is rejected at open; a count the
    /// file could hold opens and is then caught by the block CRC check.
    #[test]
    fn inflated_op_counts_never_decode(
        start_pc in 0u64..(1 << 40),
        raw in prop::collection::vec((0u32..9, 0u64..(1 << 40), any::<bool>()), 1..64),
        extra in 1u32..4_096,
    ) {
        // Chained ops never resync, so the stream is one block.
        let ops = chained_ops(start_pc, raw);
        let mut bytes = encode(&ops, "prop/inflate");
        let reader = TraceReader::open(Cursor::new(&bytes)).unwrap();
        prop_assert_eq!(reader.block_count(), 1);
        let claimed = ops.len() as u32 + extra;
        inflate_first_block(&mut bytes, claimed);
        match TraceReader::open(Cursor::new(&bytes)) {
            Err(ipsim_types::CodecError::CountMismatch { .. }) => {
                prop_assert!(u64::from(claimed) > bytes.len() as u64);
            }
            Err(e) => prop_assert!(false, "unexpected error {}", e),
            Ok(mut reader) => {
                prop_assert!(u64::from(claimed) <= bytes.len() as u64);
                let mut out = Vec::new();
                prop_assert!(reader.decode_all_into(&mut out).is_err());
            }
        }
    }
}

/// Not a property, but the degenerate case the strategies rarely hit
/// exactly: a trace with zero ops still has a valid header, empty index
/// and trailer.
#[test]
fn empty_trace_round_trips() {
    let bytes = encode(&[], "empty");
    let mut reader = TraceReader::open(Cursor::new(&bytes)).unwrap();
    assert_eq!(reader.total_ops(), 0);
    assert_eq!(reader.block_count(), 0);
    assert_eq!(reader.meta(), "empty");
    assert_eq!(reader.core_id(), 7);
    assert!(reader.next_op().unwrap().is_none());
    let stats = reader.validate().unwrap();
    assert_eq!(stats.ops, 0);
}

/// Blocks are cut at the payload target; a long stream produces several
/// and the index finds each one.
#[test]
fn long_streams_split_into_indexed_blocks() {
    let raw: Vec<(u32, u64, bool)> = (0..200_000u64)
        .map(|i| ((i % 9) as u32, 0x4000_0000 + i * 64, i % 3 == 0))
        .collect();
    let ops = chained_ops(0x1_0000, raw);
    let bytes = encode(&ops, "multi-block");
    let mut reader = TraceReader::open(Cursor::new(&bytes)).unwrap();
    assert!(reader.block_count() > 1, "expected multiple blocks");
    let decoded = decode(&bytes).unwrap();
    assert_eq!(decoded, ops);
    // Seeking to the last block yields exactly its tail of the stream.
    let last = reader.block_count() - 1;
    reader.seek_to_block(last).unwrap();
    let mut tail = Vec::new();
    while let Some(op) = reader.next_op().unwrap() {
        tail.push(op);
    }
    assert!(!tail.is_empty());
    assert_eq!(&ops[ops.len() - tail.len()..], tail.as_slice());
}

/// Seeking to any op offset — a block's first op, mid-block, the last op
/// and the end — serves exactly the stream's tail from that op.
#[test]
fn seek_to_op_serves_the_tail_from_any_offset() {
    let raw: Vec<(u32, u64, bool)> = (0..120_000u64)
        .map(|i| ((i % 9) as u32, 0x4000_0000 + i * 64, i % 3 == 0))
        .collect();
    let ops = chained_ops(0x1_0000, raw);
    let bytes = encode(&ops, "seek");
    let mut reader = TraceReader::open(Cursor::new(&bytes)).unwrap();
    assert!(reader.block_count() > 1, "expected multiple blocks");
    let n = ops.len() as u64;
    for at in [0, 1, 4_095, 60_001, n - 1, n] {
        reader.seek_to_op(at).unwrap();
        let mut tail = Vec::new();
        while let Some(op) = reader.next_op().unwrap() {
            tail.push(op);
        }
        assert_eq!(tail.as_slice(), &ops[at as usize..], "seek to {at}");
    }
    assert!(reader.seek_to_op(n + 1).is_err());
}
