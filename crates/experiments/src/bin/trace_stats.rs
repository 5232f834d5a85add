//! Development tool: dynamic-stream statistics.
//!
//! Two modes:
//!
//! * `trace_stats [db|tpcw|web|japp]` — walk a synthetic workload live and
//!   report CTI frequencies, transaction lengths, stack depth, footprint.
//! * `trace_stats --trace <file.itrace>` — decode a captured trace file
//!   from the harness trace store (`results/traces/`) and report its
//!   header, instruction count, kind mix and line footprint.

use std::collections::HashSet;
use std::fs::File;
use std::io::BufReader;

use ipsim_stream::TraceReader;
use ipsim_trace::{TraceWalker, Workload};
use ipsim_types::instr::{CtiClass, OpKind};
use ipsim_types::LineSize;

const USAGE: &str = "\
usage: trace_stats [db|tpcw|japp|web]
       trace_stats --trace <file.itrace>

  db|tpcw|japp|web   walk a synthetic workload live (default: japp)
  --trace FILE       decode a captured trace file and report statistics
  --help             this text
";

fn main() {
    let args = ipsim_experiments::tool_args(USAGE);
    if args.first().map(String::as_str) == Some("--trace") {
        let (Some(path), true) = (args.get(1), args.len() == 2) else {
            eprintln!("{USAGE}");
            std::process::exit(2);
        };
        if let Err(e) = trace_file_stats(path) {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
        return;
    }
    let which = match args.first().map(String::as_str) {
        w @ (None | Some("db" | "tpcw" | "japp" | "web")) if args.len() <= 1 => w,
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    live_walker_stats(which);
}

/// Decodes one captured trace file and prints its statistics.
fn trace_file_stats(path: &str) -> Result<(), String> {
    let file = File::open(path).map_err(|e| e.to_string())?;
    let file_bytes = file.metadata().map(|m| m.len()).unwrap_or(0);
    let mut reader = TraceReader::open(BufReader::new(file)).map_err(|e| e.to_string())?;

    println!("trace {path}");
    println!("  meta        {}", reader.meta());
    println!("  core        {}", reader.core_id());
    println!(
        "  blocks      {} ({} ops indexed)",
        reader.block_count(),
        reader.total_ops()
    );

    let ls = LineSize::default();
    let mut ops = 0u64;
    let mut counts = std::collections::HashMap::new();
    let mut code_lines = HashSet::new();
    let mut data_lines = HashSet::new();
    while let Some(op) = reader.next_op().map_err(|e| e.to_string())? {
        ops += 1;
        code_lines.insert(op.pc.line(ls));
        match op.kind {
            OpKind::Other => *counts.entry("Other".to_string()).or_insert(0u64) += 1,
            OpKind::Load { addr } => {
                data_lines.insert(addr.line(ls));
                *counts.entry("Load".to_string()).or_insert(0u64) += 1;
            }
            OpKind::Store { addr } => {
                data_lines.insert(addr.line(ls));
                *counts.entry("Store".to_string()).or_insert(0u64) += 1;
            }
            OpKind::Cti { class, taken, .. } => {
                *counts
                    .entry(format!("Cti {class:?} taken={taken}"))
                    .or_insert(0u64) += 1;
            }
        }
    }
    println!("  decoded     {ops} ops");
    if ops > 0 && file_bytes > 0 {
        println!(
            "  size        {} bytes ({:.2} bytes/op)",
            file_bytes,
            file_bytes as f64 / ops as f64
        );
    }
    // Decode throughput, both ways through the same file: per op, as a
    // cohort window or a detached replay reads it, and in one pass into
    // a whole-trace arena (`decode_all_into`, what `ArenaSource` replays).
    // The two rates are close by construction (same codec underneath).
    if ops > 0 {
        reader.rewind().map_err(|e| e.to_string())?;
        let t0 = std::time::Instant::now();
        let mut buffered = 0u64;
        while reader.next_op().map_err(|e| e.to_string())?.is_some() {
            buffered += 1;
        }
        let buffered_s = t0.elapsed().as_secs_f64();

        // Pre-fault the arena allocation (resize touches every page) so the
        // timing compares decode paths, not first-touch page faults.
        let filler = ipsim_types::instr::TraceOp {
            pc: ipsim_types::Addr(0),
            kind: OpKind::Other,
        };
        let mut arena = vec![filler; ops as usize];
        arena.clear();
        let t0 = std::time::Instant::now();
        reader
            .decode_all_into(&mut arena)
            .map_err(|e| e.to_string())?;
        let arena_s = t0.elapsed().as_secs_f64();

        let mips = |n: u64, s: f64| if s > 0.0 { n as f64 / 1e6 / s } else { 0.0 };
        println!(
            "  dec_mips    {:.1} buffered (per-op), {:.1} zero-copy (arena)",
            mips(buffered, buffered_s),
            mips(arena.len() as u64, arena_s),
        );
    }
    println!("  kind mix:");
    let mut keys: Vec<_> = counts.iter().collect();
    keys.sort();
    for (k, v) in keys {
        println!(
            "    {:<28} {:>10}  ({:>6.2}%)",
            k,
            v,
            *v as f64 / ops as f64 * 100.0
        );
    }
    println!(
        "  code footprint  {} lines ({} KB)",
        code_lines.len(),
        code_lines.len() * 64 / 1024
    );
    println!(
        "  data footprint  {} lines ({} KB)",
        data_lines.len(),
        data_lines.len() * 64 / 1024
    );
    Ok(())
}

/// Walks a synthetic workload live and prints its stream statistics.
fn live_walker_stats(which: Option<&str>) {
    let w = match which {
        Some("db") => Workload::Db,
        Some("tpcw") => Workload::TpcW,
        Some("web") => Workload::Web,
        _ => Workload::JApp,
    };
    let prog = w.build_program(0x5EED_0001);
    let mut walker = TraceWalker::new(&prog, w.profile(), 0, 0x5EED_1001);
    let n = 2_000_000u64;
    let ls = LineSize::default();

    let mut counts = std::collections::HashMap::new();
    let mut lines = HashSet::new();
    let mut dispatches = 0u64; // jump while stack empty
    let mut depth_sum = 0u64;
    let mut max_depth = 0usize;
    for _ in 0..n {
        let was_empty = walker.stack_depth() == 0;
        let op = walker.next_op();
        lines.insert(op.pc.line(ls));
        depth_sum += walker.stack_depth() as u64;
        max_depth = max_depth.max(walker.stack_depth());
        if let OpKind::Cti { class, taken, .. } = op.kind {
            *counts
                .entry(format!("{class:?} taken={taken}"))
                .or_insert(0u64) += 1;
            if class == CtiClass::Jump && was_empty {
                dispatches += 1;
            }
        }
    }
    println!("workload {} over {}k instrs:", w.name(), n / 1000);
    let mut keys: Vec<_> = counts.iter().collect();
    keys.sort();
    for (k, v) in keys {
        println!("  {:<28} {:>8.2}/1k", k, *v as f64 / n as f64 * 1000.0);
    }
    println!(
        "  dispatch jumps               {:>8.2}/1k (mean txn {} instrs)",
        dispatches as f64 / n as f64 * 1000.0,
        n.checked_div(dispatches).unwrap_or(0)
    );
    println!(
        "  mean stack depth {:.1}, max {}",
        depth_sum as f64 / n as f64,
        max_depth
    );
    println!(
        "  touched {} lines ({} KB)",
        lines.len(),
        lines.len() * 64 / 1024
    );
}
