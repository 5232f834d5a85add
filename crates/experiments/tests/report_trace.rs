//! End-to-end contract of `report trace --trace FILE`: a captured trace
//! decodes to a fixed statistics block, and a missing or corrupt file
//! exits 1 rather than panicking.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use ipsim_stream::TraceWriter;
use ipsim_types::instr::{CtiClass, OpKind, TraceOp};
use ipsim_types::Addr;

const BIN: &str = env!("CARGO_BIN_EXE_report");

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ipsim-report-trace-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// 3 000 chained ops: loads, stores, conditional branches both ways and
/// jumps over a 64 KiB code region.
fn ops() -> Vec<TraceOp> {
    let mut pc = 0x40_0000u64;
    (0..3_000u64)
        .map(|i| {
            let kind = match i % 16 {
                3 | 9 => OpKind::Load {
                    addr: Addr(0x1000_0000 + (i * 72) % 8192),
                },
                5 => OpKind::Store {
                    addr: Addr(0x2000_0000 + (i * 40) % 4096),
                },
                7 => OpKind::Cti {
                    class: CtiClass::CondBranch,
                    taken: i % 3 == 0,
                    target: Addr(pc + 256),
                },
                15 => OpKind::Cti {
                    class: CtiClass::Jump,
                    taken: true,
                    target: Addr(0x40_0000 + (i * 4_100) % 65_536),
                },
                _ => OpKind::Other,
            };
            let op = TraceOp { pc: Addr(pc), kind };
            pc = op.next_pc().0;
            op
        })
        .collect()
}

fn write_trace(path: &Path) {
    let file = std::fs::File::create(path).unwrap();
    let mut writer = TraceWriter::new(std::io::BufWriter::new(file), 2, "golden").unwrap();
    for op in ops() {
        writer.append(&op).unwrap();
    }
    writer.finish().unwrap();
}

fn report_trace(path: &Path) -> Output {
    Command::new(BIN)
        .args(["trace", "--trace", path.to_str().unwrap()])
        .output()
        .unwrap()
}

/// Every line but the decode-throughput timing, byte for byte.
#[test]
fn a_captured_trace_prints_its_statistics() {
    let dir = tmp("golden");
    let path = dir.join("golden.c2.itrace");
    write_trace(&path);

    let out = report_trace(&path);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let deterministic: String = stdout
        .lines()
        .filter(|line| !line.starts_with("  dec_mips "))
        .map(|line| format!("{line}\n"))
        .collect();
    let want = format!("trace {}\n{GOLDEN}", path.display());
    assert_eq!(deterministic, want);
    assert_eq!(stdout.lines().count(), want.lines().count() + 1, "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The statistics block after the `trace PATH` line, as the former
/// standalone `trace_stats --trace` printed it for this file.
const GOLDEN: &str = "  meta        golden
  core        2
  blocks      1 (3000 ops indexed)
  decoded     3000 ops
  size        6001 bytes (2.00 bytes/op)
  kind mix:
    Cti CondBranch taken=false          126  (  4.20%)
    Cti CondBranch taken=true            62  (  2.07%)
    Cti Jump taken=true                 187  (  6.23%)
    Load                                375  ( 12.50%)
    Other                              2062  ( 68.73%)
    Store                               188  (  6.27%)
  code footprint  191 lines (11 KB)
  data footprint  160 lines (10 KB)
";

#[test]
fn missing_and_corrupt_files_exit_one() {
    let dir = tmp("invalid");
    let out = report_trace(&dir.join("absent.itrace"));
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    let path = dir.join("corrupt.itrace");
    write_trace(&path);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    let out = report_trace(&path);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("report trace: "), "{stderr}");

    std::fs::write(&path, b"not a trace").unwrap();
    let out = report_trace(&path);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
