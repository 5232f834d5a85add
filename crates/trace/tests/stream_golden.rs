//! Stream goldens pinned at the trace layer itself: for every workload at
//! two seeds, the synthesised program's shape and an FNV-1a digest of the
//! walker's first million ops.
//!
//! The figure hashes and perfbench digests pin the same streams only
//! through the whole simulator, so a change to program synthesis or to
//! the walk table that perturbed one RNG draw would surface there as a
//! wall of unexplained figure deltas. These literals name the layer; they
//! were recorded from the builder that preceded the flat program table,
//! so they also pin that the table's one-pass builder kept every draw.

use ipsim_trace::{TraceWalker, Workload};
use ipsim_types::instr::{OpKind, TraceOp};
use ipsim_types::Addr;

/// Ops hashed per stream.
const OPS: usize = 1_000_000;
/// Ops per `next_block` call (the walker's batched path, as the
/// simulator drives it).
const BATCH: usize = 1_000;

/// One pinned stream: the program and the walker both use `seed`.
struct Golden {
    workload: Workload,
    seed: u64,
    code_bytes: u64,
    functions: u32,
    blocks: u32,
    stream_fnv: u64,
}

const GOLDENS: [Golden; 8] = [
    Golden {
        workload: Workload::Db,
        seed: 1,
        code_bytes: 5_645_140,
        functions: 20_012,
        blocks: 256_747,
        stream_fnv: 0x8440_5933_e092_babd,
    },
    Golden {
        workload: Workload::Db,
        seed: 1009,
        code_bytes: 5_624_312,
        functions: 20_012,
        blocks: 256_815,
        stream_fnv: 0xfd5d_f90a_2133_a00c,
    },
    Golden {
        workload: Workload::TpcW,
        seed: 1,
        code_bytes: 3_398_316,
        functions: 14_012,
        blocks: 154_333,
        stream_fnv: 0xa9cf_29f2_eb0b_4ac2,
    },
    Golden {
        workload: Workload::TpcW,
        seed: 1009,
        code_bytes: 3_377_744,
        functions: 14_012,
        blocks: 154_295,
        stream_fnv: 0x07a7_abd6_7fa2_3742,
    },
    Golden {
        workload: Workload::JApp,
        seed: 1,
        code_bytes: 4_330_468,
        functions: 24_012,
        blocks: 216_427,
        stream_fnv: 0xb97a_ebb8_e9b1_1102,
    },
    Golden {
        workload: Workload::JApp,
        seed: 1009,
        code_bytes: 4_328_388,
        functions: 24_012,
        blocks: 216_594,
        stream_fnv: 0x8928_5a91_ab9e_26df,
    },
    Golden {
        workload: Workload::Web,
        seed: 1,
        code_bytes: 1_803_628,
        functions: 7_012,
        blocks: 75_562,
        stream_fnv: 0xe00e_0cc4_bdbc_b664,
    },
    Golden {
        workload: Workload::Web,
        seed: 1009,
        code_bytes: 1_843_688,
        functions: 7_012,
        blocks: 77_432,
        stream_fnv: 0x6f48_5299_b9d1_00eb,
    },
];

/// FNV-1a 64 over a canonical little-endian encoding of each op.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn addr(&mut self, a: Addr) {
        self.bytes(&a.0.to_le_bytes());
    }

    fn op(&mut self, op: &TraceOp) {
        self.addr(op.pc);
        match op.kind {
            OpKind::Other => self.bytes(&[0]),
            OpKind::Load { addr } => {
                self.bytes(&[1]);
                self.addr(addr);
            }
            OpKind::Store { addr } => {
                self.bytes(&[2]);
                self.addr(addr);
            }
            OpKind::Cti {
                class,
                taken,
                target,
            } => {
                self.bytes(&[3, class as u8, taken as u8]);
                self.addr(target);
            }
        }
    }
}

/// The measured counterpart of a [`Golden`], formatted as a table row.
fn measure(workload: Workload, seed: u64) -> String {
    let prog = workload.build_program(seed);
    let mut walker = TraceWalker::new(&prog, workload.profile(), 0, seed);
    let mut buf = vec![
        TraceOp {
            pc: Addr(0),
            kind: OpKind::Other,
        };
        BATCH
    ];
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    for _ in 0..OPS / BATCH {
        walker.next_block(&mut buf);
        for op in &buf {
            fnv.op(op);
        }
    }
    row(
        workload,
        seed,
        prog.code_bytes(),
        prog.n_functions(),
        prog.n_blocks(),
        fnv.0,
    )
}

fn row(workload: Workload, seed: u64, code: u64, funcs: u32, blocks: u32, fnv: u64) -> String {
    format!("{workload:?} seed {seed}: code_bytes {code} functions {funcs} blocks {blocks} stream_fnv {fnv:#018x}")
}

#[test]
fn walker_streams_match_goldens() {
    let mut mismatches = Vec::new();
    for g in &GOLDENS {
        let want = row(
            g.workload,
            g.seed,
            g.code_bytes,
            g.functions,
            g.blocks,
            g.stream_fnv,
        );
        let got = measure(g.workload, g.seed);
        if got != want {
            mismatches.push(format!("want {want}\n got {got}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
