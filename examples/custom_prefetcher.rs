//! Implement your own prefetch policy against the `PrefetchEngine` trait
//! — the one trait every scheme, the paper's and the zoo's rivals alike,
//! implements — and evaluate it in the full CMP simulator.
//!
//! The example builds a naive "stream pair" prefetcher — on every miss it
//! prefetches the next line *and* the line after the last observed
//! discontinuity target — and races it against the paper's schemes. The
//! policy only needs `on_fetch` and `name`; a scheme that learns from its
//! outcomes would also override `on_useful` and `on_evict`.
//!
//! ```text
//! cargo run --release --example custom_prefetcher
//! ```

use ipsim::cpu::{Core, MemSystem, SystemBuilder, WorkloadSet};
use ipsim::prefetch::{FetchEvent, PrefetchEngine, PrefetchRequest, PrefetcherKind};
use ipsim::trace::Workload;
use ipsim::types::{ConfigError, LineAddr};

/// A deliberately simple custom policy: next-line on miss, plus a replay of
/// the most recently seen discontinuity target (a one-entry "table").
#[derive(Debug, Default)]
struct StreamPair {
    last_target: Option<LineAddr>,
}

impl PrefetchEngine for StreamPair {
    fn on_fetch(&mut self, ev: &FetchEvent, out: &mut Vec<PrefetchRequest>) {
        if ev.miss {
            out.push(PrefetchRequest::sequential(ev.line.next()));
            if let Some(t) = self.last_target {
                if t != ev.line {
                    out.push(PrefetchRequest::sequential(t));
                }
            }
            if ev.is_discontinuity() {
                self.last_target = Some(ev.line);
            }
        }
    }

    fn name(&self) -> &'static str {
        "stream-pair (custom)"
    }
}

fn main() -> Result<(), ConfigError> {
    // The builder API takes a `Scheme`: one `PrefetcherKind`
    // (`.prefetcher`) or a registry `ZooPlan` (`.zoo`), both spelled as
    // registry text such as `disc:ahead=2` or `zoo:nl+mana`. Custom
    // engines are not in the registry; they plug in at the `Core` level,
    // which hosts them in a zoo of one exactly like a built-in scheme.
    // For an apples-to-apples comparison we drive a single core by hand
    // with each engine.
    let workload = WorkloadSet::homogeneous(Workload::Web);
    let (warm, measure) = (1_000_000u64, 4_000_000u64);

    // Reference runs through the high-level API.
    for kind in [
        PrefetcherKind::None,
        PrefetcherKind::NextLineOnMiss,
        PrefetcherKind::discontinuity_default(),
    ] {
        let mut system = SystemBuilder::single_core().prefetcher(kind).build()?;
        let m = system.run_workload(&workload, warm, measure);
        println!(
            "{:<24} IPC {:.3}  L1I miss {:.2}%",
            kind.label(),
            m.ipc(),
            m.l1i_miss_per_instr() * 100.0
        );
    }

    // The custom engine, wired into a core directly.
    let config = ipsim::types::SystemConfig::single_core();
    let program = Workload::Web.build_program(0x5EED_0001);
    let mut walker =
        ipsim::trace::TraceWalker::new(&program, Workload::Web.profile(), 0, 0x5EED_1001);
    let mut core = Core::with_engine(0, &config.core, Box::new(StreamPair::default()), None);
    let mut mem = MemSystem::new(&config.mem, ipsim::cache::InstallPolicy::InstallBoth);
    for _ in 0..warm {
        core.step(walker.next_op(), &mut mem);
    }
    core.reset_stats();
    for _ in 0..measure {
        core.step(walker.next_op(), &mut mem);
    }
    let m = core.metrics();
    println!(
        "{:<24} IPC {:.3}  L1I miss {:.2}%",
        "stream-pair (custom)",
        m.ipc(),
        m.l1i_miss_per_instr() * 100.0
    );
    Ok(())
}
