//! One out-of-order core: fetch, branch prediction, data path and the
//! prefetch issue pipeline, in a cycle-accounting model.

use ipsim_cache::{Access, FillKind, Mshr, SetAssocCache};
use ipsim_core::{
    FetchEvent, PrefetchEngine, PrefetchQueue, PrefetchRequest, PrefetchStats, PrefetcherKind,
    RecentFetchFilter,
};
use ipsim_prefetch::Zoo;
use ipsim_telemetry::{CoreTracer, PfEventKind};
use ipsim_types::addr::LineSize;
use ipsim_types::instr::OpKind;
use ipsim_types::stats::CategoryCounts;
use ipsim_types::{Addr, CoreConfig, Cycle, LineAddr, MissCategory, TraceOp};

use crate::branch::BranchUnit;
use crate::limit::LimitSpec;
use crate::memsys::MemSystem;
use crate::metrics::CoreMetrics;
use crate::mlp::MlpWindow;
use crate::pf_table::{pf_source_table, PfSourceTable};
use crate::tlb::Tlb;

/// Prefetch-queue slots per core (paper Section 5).
pub(crate) const PREFETCH_QUEUE_ENTRIES: usize = 32;
/// Recent-demand-fetch filter depth per core (paper Section 5).
pub(crate) const RECENT_FILTER_ENTRIES: usize = 32;
/// Tag-probe slots granted per fetch event while the front end is busy.
/// The paper notes that at an 8-wide fetch there is ample tag bandwidth for
/// filtered prefetch probing even when the core is not stalled.
const PROBES_PER_HIT_EVENT: usize = 8;
/// Tag-probe slots granted per missing fetch event (the stall leaves the
/// tags idle, so the queue can drain).
const PROBES_PER_MISS_EVENT: usize = 32;

/// One simulated core.
///
/// Driven one [`TraceOp`] at a time by [`System`](crate::System); owns its
/// private L1 caches, branch predictors, MSHRs and prefetch machinery, and
/// accounts its own clock. See the crate docs for the modelling rationale.
#[derive(Debug)]
pub struct Core {
    id: u32,
    issue_width: u32,
    line_size: LineSize,
    limit: Option<LimitSpec>,

    clock: Cycle,
    frac: u32,
    idx: u64,

    l1i: SetAssocCache,
    l1d: SetAssocCache,
    i_mshr: Mshr,
    d_mshr: Mshr,
    mlp: MlpWindow,
    branch: BranchUnit,
    itlb: Option<Tlb>,
    dtlb: Option<Tlb>,

    /// The prefetch schemes this core drives (a zoo of one for a scheme
    /// configured directly).
    zoo: Zoo,
    /// Cached `!zoo.generates_requests()`: with schemes that never emit a
    /// request the prefetch queue and filter are provably empty forever,
    /// so the per-fetch hook block is skipped wholesale.
    engine_inert: bool,
    queue: PrefetchQueue,
    filter: RecentFetchFilter,
    /// Source and scheme of each prefetched line in flight or resident;
    /// it has no slots while the zoo is inert, which never prefetches.
    pf_sources: PfSourceTable,
    pf_stats: PrefetchStats,
    /// Lifecycle event collector; `None` (the default) keeps every
    /// telemetry hook down to one never-taken branch.
    tracer: Option<Box<CoreTracer>>,
    req_buf: Vec<PrefetchRequest>,
    retire_buf: Vec<ipsim_cache::MshrEntry>,

    /// Test hook: forces [`Core::step_block`] down the per-instruction
    /// path so the equivalence proptest can compare both paths.
    force_slow_path: bool,

    cur_line: Option<LineAddr>,
    prev_line: Option<LineAddr>,
    /// Miss category a fetch transition would be charged to, given the
    /// previously executed instruction. Precomputed each step so the
    /// fetch path reads one byte instead of re-classifying a stored op.
    prev_cat: MissCategory,

    // Measurement window baselines (set by reset_stats).
    start_clock: Cycle,
    start_idx: u64,
    line_fetches: u64,
    l1i_miss_cats: CategoryCounts,
    eliminated_misses: u64,
    l1d_accesses: u64,
    l1d_misses: u64,
}

impl Core {
    /// Creates a core with the given configuration, prefetcher and optional
    /// limit-study spec.
    pub fn new(
        id: u32,
        config: &CoreConfig,
        prefetcher: PrefetcherKind,
        limit: Option<LimitSpec>,
    ) -> Core {
        Core::with_engine(id, config, prefetcher.build(), limit)
    }

    /// Creates a core with a caller-provided prefetch engine, hosted in a
    /// zoo of one — the hook for plugging in custom [`PrefetchEngine`]
    /// implementations (see the `custom_prefetcher` example).
    pub fn with_engine(
        id: u32,
        config: &CoreConfig,
        engine: Box<dyn PrefetchEngine>,
        limit: Option<LimitSpec>,
    ) -> Core {
        Core::with_zoo(id, config, Zoo::single(engine), limit)
    }

    /// Creates a core driving `zoo`.
    pub(crate) fn with_zoo(
        id: u32,
        config: &CoreConfig,
        zoo: Zoo,
        limit: Option<LimitSpec>,
    ) -> Core {
        let engine_inert = !zoo.generates_requests();
        // An attribution is live only while its line sits in the
        // instruction MSHR or the L1I, so `l1i_lines + mshr_entries`
        // bounds them (the table panics if that invariant ever breaks).
        let pf_max_live = config.l1i.lines() as usize + config.mshrs as usize;
        Core {
            id,
            issue_width: config.issue_width,
            line_size: config.l1i.line(),
            limit,
            clock: 0,
            frac: 0,
            idx: 0,
            l1i: SetAssocCache::new(config.l1i),
            l1d: SetAssocCache::new(config.l1d),
            i_mshr: Mshr::new(config.mshrs as usize),
            d_mshr: Mshr::new(config.mshrs as usize),
            mlp: MlpWindow::new(config.rob_entries as u64),
            branch: BranchUnit::new(&config.branch, config.pipeline_depth),
            itlb: config.tlb.enabled.then(|| Tlb::new(&config.tlb)),
            dtlb: config.tlb.enabled.then(|| Tlb::new(&config.tlb)),
            zoo,
            engine_inert,
            queue: PrefetchQueue::new(PREFETCH_QUEUE_ENTRIES),
            filter: RecentFetchFilter::new(RECENT_FILTER_ENTRIES),
            pf_sources: pf_source_table(pf_max_live, !engine_inert),
            pf_stats: PrefetchStats::default(),
            tracer: None,
            req_buf: Vec::with_capacity(16),
            retire_buf: Vec::with_capacity(config.mshrs as usize),
            force_slow_path: false,
            cur_line: None,
            prev_line: None,
            prev_cat: MissCategory::Sequential,
            start_clock: 0,
            start_idx: 0,
            line_fetches: 0,
            l1i_miss_cats: CategoryCounts::new(),
            eliminated_misses: 0,
            l1d_accesses: 0,
            l1d_misses: 0,
        }
    }

    /// This core's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Current local clock.
    pub fn clock(&self) -> Cycle {
        self.clock
    }

    /// Instructions executed since construction.
    pub fn executed(&self) -> u64 {
        self.idx
    }

    /// The prefetch engine's display name (see [`Zoo::name`]).
    pub fn prefetcher_name(&self) -> &'static str {
        self.zoo.name()
    }

    /// The prefetch schemes this core drives, with their per-scheme
    /// counters.
    pub(crate) fn zoo(&self) -> &Zoo {
        &self.zoo
    }

    /// Live prefetch attributions and the table's fixed slot count —
    /// diagnostics for the boundedness regression test. Live entries can
    /// never exceed `l1i_lines + mshr_entries` (the table panics if they
    /// would); an inert core has no slots.
    #[doc(hidden)]
    pub fn pf_attribution_usage(&self) -> (usize, usize) {
        (self.pf_sources.len(), self.pf_sources.capacity())
    }

    /// Installs (or removes) the lifecycle event collector. Simulation
    /// behaviour is identical either way; only observation changes.
    pub fn set_tracer(&mut self, tracer: Option<Box<CoreTracer>>) {
        self.tracer = tracer;
    }

    /// The installed event collector, if any.
    pub fn tracer_mut(&mut self) -> Option<&mut CoreTracer> {
        self.tracer.as_deref_mut()
    }

    /// Current prefetch-queue occupancy (interval-sampler snapshot).
    pub fn pf_queue_waiting(&self) -> usize {
        self.queue.waiting()
    }

    /// Executes one instruction, advancing the local clock.
    pub fn step(&mut self, op: TraceOp, mem: &mut MemSystem) {
        self.idx += 1;

        // Issue-width base cost: 1/issue_width cycles per instruction.
        self.frac += 1;
        if self.frac >= self.issue_width {
            self.clock += 1;
            self.frac = 0;
        }

        // Instruction fetch at line granularity.
        let line = op.pc.line(self.line_size);
        if self.cur_line != Some(line) {
            self.fetch_line(line, mem);
            self.cur_line = Some(line);
        }

        // Branch prediction penalties.
        if matches!(op.kind, OpKind::Cti { .. }) {
            let penalty = self.branch.process(&op);
            self.clock += penalty as Cycle;
        }

        // Expose conditional branches' untaken paths to the engine
        // (wrong-path prefetching hook).
        // An inert engine's `on_cond_branch` appends nothing, so the whole
        // dispatch is a guaranteed no-op then.
        if let OpKind::Cti {
            class: ipsim_types::instr::CtiClass::CondBranch,
            taken,
            target,
        } = op.kind
        {
            if !self.engine_inert {
                let alternate = if taken {
                    op.pc.offset(ipsim_types::instr::INSTR_BYTES)
                } else {
                    target
                }
                .line(self.line_size);
                self.req_buf.clear();
                self.zoo.on_cond_branch(alternate, &mut self.req_buf);
                if !self.req_buf.is_empty() {
                    self.enqueue_generated();
                    self.issue_prefetches(self.clock, 2, mem);
                }
            }
        }

        // Data path.
        match op.kind {
            OpKind::Load { addr } => self.do_load(addr, mem),
            OpKind::Store { addr } => self.do_store(addr, mem),
            _ => {}
        }

        // Honour the ROB window for outstanding data misses.
        self.clock = self.mlp.advance(self.idx, self.clock);

        self.prev_cat = if matches!(op.kind, OpKind::Cti { .. }) {
            MissCategory::from_transition(Some(&(op.pc, op.kind)))
        } else {
            MissCategory::Sequential
        };
    }

    /// Executes a block of instructions in order — exactly equivalent to
    /// calling [`Core::step`] on each. The scheduler pulls ops from a
    /// source a quantum at a time and hands them over here so the per-op
    /// path is all static calls.
    ///
    /// Maximal runs of plain (non-CTI, non-memory) instructions that stay
    /// inside the currently fetched line are advanced in one batched
    /// counter update instead of per-instruction calls — see the private
    /// `Core::advance_straight_line` for why that is *exactly* what
    /// [`Core::step`] would have computed. The equivalence is enforced by
    /// a property test driving random streams down both paths.
    pub fn step_block(&mut self, ops: &[TraceOp], mem: &mut MemSystem) {
        if self.force_slow_path {
            for &op in ops {
                self.step(op, mem);
            }
            return;
        }
        let mut i = 0;
        while i < ops.len() {
            // Fast path: while no data miss is outstanding (the MLP window
            // is a strict no-op then) count how many upcoming ops are plain
            // instructions fetching from the already-resident current line.
            if self.mlp.outstanding() == 0 {
                if let Some(cur) = self.cur_line {
                    let ls = self.line_size;
                    let plain = |op: &TraceOp| -> bool {
                        // Non-short-circuit `&`: both tests are branch-free
                        // and the compiler fuses four of them per iteration
                        // below into independent compare/AND trees.
                        matches!(op.kind, OpKind::Other) & (op.pc.line(ls) == cur)
                    };
                    let start = i;
                    // Only the *length* of the maximal plain-op prefix
                    // matters, not the order it is discovered in, so scan
                    // four ops per iteration and fall back to the per-op
                    // tail loop to pin down the exact boundary.
                    while i + 4 <= ops.len()
                        && (plain(&ops[i])
                            & plain(&ops[i + 1])
                            & plain(&ops[i + 2])
                            & plain(&ops[i + 3]))
                    {
                        i += 4;
                    }
                    while i < ops.len() && plain(&ops[i]) {
                        i += 1;
                    }
                    if i > start {
                        self.advance_straight_line((i - start) as u64);
                        continue;
                    }
                }
                // Express line transition: a plain op crossing into a
                // *resident* line with an inert engine. `step` for that op
                // is the issue-width/idx accounting plus `fetch_line`'s hit
                // arm; with an inert engine the hit arm is exactly the
                // bookkeeping below (the i-MSHR is provably empty, so the
                // drain is a no-op, and the whole prefetcher-hook block is
                // skipped anyway). `probe_demand_hit` changes nothing on a
                // miss, so falling through to the full `step` then counts
                // the access exactly once.
                if self.engine_inert && matches!(ops[i].kind, OpKind::Other) {
                    let line = ops[i].pc.line(self.line_size);
                    if let Some(first_use) = self.l1i.probe_demand_hit(line) {
                        debug_assert!(
                            self.i_mshr.is_empty(),
                            "inert engine must leave the i-MSHR empty"
                        );
                        self.line_fetches += 1;
                        if let Some(tlb) = &mut self.itlb {
                            self.clock += tlb.access(line.base(self.line_size));
                        }
                        if first_use {
                            // Unreachable with an inert engine (nothing is
                            // ever installed as a prefetch), but mirrored
                            // from `fetch_line` so the express arm stays a
                            // line-for-line transcription of the slow path.
                            self.note_useful(line, false);
                        }
                        self.cur_line = Some(line);
                        self.prev_line = Some(line);
                        self.advance_straight_line(1);
                        i += 1;
                        continue;
                    }
                }
            }
            self.step(ops[i], mem);
            i += 1;
        }
    }

    /// Batch-advances the core over `k` straight-line instructions within
    /// the current fetch line. Bit-for-bit what `k` calls to [`Core::step`]
    /// do for an [`OpKind::Other`] op whose PC stays in `cur_line` while no
    /// data miss is outstanding: each such step only increments `idx`, runs
    /// the issue-width accounting (`frac` stays `< issue_width`, so the
    /// per-op carry test is exactly the division below), skips the fetch
    /// (`cur_line` matches), skips branch/data paths (kind is `Other`),
    /// finds `mlp.advance` a no-op (nothing pending, and nothing can
    /// become pending without a load), and leaves `prev_cat` at
    /// `Sequential`. No telemetry hook fires on that path either, so the
    /// batch is exact with tracing enabled too.
    #[inline]
    fn advance_straight_line(&mut self, k: u64) {
        self.idx += k;
        let w = self.issue_width as u64;
        let total = self.frac as u64 + k;
        self.clock += total / w;
        self.frac = (total % w) as u32;
        self.prev_cat = MissCategory::Sequential;
    }

    /// Test hook: disables the batched straight-line fast path so
    /// [`Core::step_block`] replays the exact per-instruction sequence.
    #[doc(hidden)]
    pub fn set_force_slow_path(&mut self, force: bool) {
        self.force_slow_path = force;
    }

    /// Processes a fetch-stream transition to `line`.
    fn fetch_line(&mut self, line: LineAddr, mem: &mut MemSystem) {
        self.line_fetches += 1;
        if let Some(tlb) = &mut self.itlb {
            self.clock += tlb.access(line.base(self.line_size));
        }
        self.drain_i_mshr(mem);

        let category = self.prev_cat;
        let mut ev = FetchEvent {
            line,
            miss: false,
            first_use_of_prefetch: false,
            prev_line: self.prev_line,
        };
        let t0 = self.clock;

        match self.l1i.access(line) {
            Access::Hit {
                first_use_of_prefetch,
            } => {
                if first_use_of_prefetch {
                    self.note_useful(line, false);
                    ev.first_use_of_prefetch = true;
                }
            }
            Access::Miss => {
                ev.miss = true;
                if let Some(entry) = self.i_mshr.lookup(line).copied() {
                    // A fill (almost always a prefetch) is already in
                    // flight: stall only for the remaining latency.
                    self.l1i_miss_cats[category] += 1;
                    self.i_mshr.merge_demand(line);
                    if let Some(t) = &mut self.tracer {
                        if entry.prefetch {
                            if let Some((source, _)) = self.pf_sources.get(line) {
                                t.emit(self.clock, line, source, PfEventKind::DemandWait);
                            }
                        }
                    }
                    self.clock = self.clock.max(entry.ready_at);
                    self.drain_i_mshr(mem);
                    if self.l1i.access(line).is_hit() && entry.prefetch {
                        // Late but useful prefetch: counts as a first use
                        // for tagging and accuracy.
                        self.note_useful(line, true);
                        ev.first_use_of_prefetch = true;
                    }
                } else if self.limit.as_ref().is_some_and(|l| l.eliminates(category)) {
                    // Limit study: the miss is eliminated outright.
                    self.eliminated_misses += 1;
                    self.install_l1i(line, FillKind::Demand, mem);
                    mem.ensure_instr_line_free(line);
                } else {
                    // Full miss: the front end stalls for the entire
                    // remaining latency (L2 hit or memory).
                    self.l1i_miss_cats[category] += 1;
                    let ready = mem.fetch_instr_line(line, t0, category);
                    self.clock = self.clock.max(ready);
                    self.install_l1i(line, FillKind::Demand, mem);
                }
            }
        }

        // Prefetcher hooks: demand fetches invalidate matching queued
        // prefetches and feed the filter; the engine then generates new
        // requests, which are filtered and queued. With an inert engine
        // the queue and filter are provably empty forever and no counter
        // in this block can move, so the whole block is skipped.
        if !self.engine_inert {
            self.queue.on_demand_fetch(line);
            self.filter.record(line);
            self.req_buf.clear();
            self.zoo.on_fetch(&ev, &mut self.req_buf);
            self.enqueue_generated();

            // Issue prefetches with the *pre-stall* timestamp: during a
            // demand stall the tags and bus are otherwise idle, which is
            // exactly when the queue drains (and what makes prefetches
            // timely).
            let budget = if ev.miss {
                PROBES_PER_MISS_EVENT
            } else {
                PROBES_PER_HIT_EVENT
            };
            self.issue_prefetches(t0, budget, mem);
        }

        self.prev_line = Some(line);
    }

    /// Filters and enqueues the requests currently in `req_buf`.
    fn enqueue_generated(&mut self) {
        self.pf_stats.generated += self.req_buf.len() as u64;
        let mut accepted = 0u64;
        // Drain req_buf by index to avoid borrowing across the queue calls.
        for i in 0..self.req_buf.len() {
            let req = self.req_buf[i];
            if self.filter.contains(req.line) {
                self.pf_stats.filtered_recent += 1;
                if let Some(t) = &mut self.tracer {
                    t.emit(self.clock, req.line, req.source, PfEventKind::Filtered);
                }
            } else {
                self.queue.push(req);
                accepted += 1;
                if let Some(t) = &mut self.tracer {
                    t.emit(self.clock, req.line, req.source, PfEventKind::Queued);
                }
            }
        }
        self.pf_stats.queued += accepted;
    }

    /// Grants up to `budget` tag-probe slots to the prefetch queue at local
    /// time `now`.
    fn issue_prefetches(&mut self, now: Cycle, budget: usize, mem: &mut MemSystem) {
        for _ in 0..budget {
            if self.i_mshr.is_full() {
                // No fill resources: prefetches stay in the queue until
                // resources free up (the paper's "reside in the prefetch
                // queue until resources are available").
                self.pf_stats.mshr_rejected += 1;
                break;
            }
            let Some(req) = self.queue.pop_issue() else {
                break;
            };
            self.pf_stats.probes += 1;
            if self.l1i.probe(req.line) {
                self.pf_stats.probe_hits += 1;
                if let Some(t) = &mut self.tracer {
                    t.emit(now, req.line, req.source, PfEventKind::DropResident);
                }
                continue;
            }
            if self.i_mshr.lookup(req.line).is_some() {
                self.pf_stats.inflight_hits += 1;
                if let Some(t) = &mut self.tracer {
                    t.emit(now, req.line, req.source, PfEventKind::DropInflight);
                }
                continue;
            }
            let ready = mem.prefetch_instr_line(req.line, now);
            self.i_mshr.insert_prefetch(req.line, ready, req.scheme);
            self.pf_sources.insert(req.line, (req.source, req.scheme));
            self.zoo.on_issued(req.scheme);
            self.pf_stats.issued += 1;
            if let Some(t) = &mut self.tracer {
                t.emit(now, req.line, req.source, PfEventKind::Issued);
            }
        }
    }

    /// Retires completed instruction fills into the L1I.
    fn drain_i_mshr(&mut self, mem: &mut MemSystem) {
        if self.i_mshr.none_ready(self.clock) {
            return;
        }
        let mut retired = std::mem::take(&mut self.retire_buf);
        retired.clear();
        self.i_mshr.retire_ready_into(self.clock, &mut retired);
        for entry in retired.iter().copied() {
            let kind = if entry.prefetch && !entry.demand_merged {
                FillKind::Prefetch
            } else {
                FillKind::Demand
            };
            if entry.prefetch {
                // The MSHR entry carries the issuing slot, so crediting the
                // fill needs no attribution lookup.
                self.zoo.on_fill(entry.scheme);
                if let Some(t) = &mut self.tracer {
                    if let Some((source, _)) = self.pf_sources.get(entry.line) {
                        // Stamped with the fill's ready time, not the
                        // (possibly later) cycle the core noticed it.
                        t.emit(entry.ready_at, entry.line, source, PfEventKind::Fill);
                    }
                }
            }
            if entry.prefetch && entry.demand_merged && mem.policy().installs_on_useful_eviction() {
                // A demand fetch merged with this prefetch while it was in
                // flight: the prefetch is proven useful, so under the
                // bypass policy the line is installed into the L2 now
                // (it behaves like the demand miss it absorbed).
                mem.install_useful_instr_line(entry.line);
                if let Some(t) = &mut self.tracer {
                    if let Some((source, _)) = self.pf_sources.get(entry.line) {
                        t.emit(entry.ready_at, entry.line, source, PfEventKind::L2Install);
                    }
                }
            }
            self.install_l1i(entry.line, kind, mem);
        }
        self.retire_buf = retired;
    }

    /// Installs a line into the L1I, applying the selective L2-install
    /// policy to the evicted victim.
    fn install_l1i(&mut self, line: LineAddr, kind: FillKind, mem: &mut MemSystem) {
        if let Some(victim) = self.l1i.fill(line, kind) {
            if victim.prefetched && victim.used && mem.policy().installs_on_useful_eviction() {
                // The paper's scheme: a prefetched line proves itself by
                // being used; install it in the L2 when the L1I evicts it.
                mem.install_useful_instr_line(victim.line);
                if let Some(t) = &mut self.tracer {
                    if let Some((source, _)) = self.pf_sources.get(victim.line) {
                        t.emit(self.clock, victim.line, source, PfEventKind::L2Install);
                    }
                }
            }
            // The attribution lives exactly as long as the line does (in
            // the MSHR or the L1I), so eviction is where it is reclaimed
            // — and where the prefetch is finally classified used/unused.
            if let Some((source, scheme)) = self.pf_sources.remove(victim.line) {
                // An attributed victim without the prefetch flag is a
                // demand-merged fill — demand-referenced by definition,
                // so it evicts as used.
                let used = victim.used || !victim.prefetched;
                if let Some(t) = &mut self.tracer {
                    let kind = if used {
                        PfEventKind::EvictUsed
                    } else {
                        PfEventKind::EvictUnused
                    };
                    t.emit(self.clock, victim.line, source, kind);
                }
                self.zoo.on_evict(scheme, victim.line, source, used);
            }
        }
    }

    /// Records that a prefetched line was demand-referenced.
    fn note_useful(&mut self, line: LineAddr, late: bool) {
        self.pf_stats.useful += 1;
        if late {
            self.pf_stats.late += 1;
        }
        // `get`, not `remove`: the attribution stays live until the line
        // leaves the L1I so its eviction can still be classified per
        // component (the engine callback fires once either way, because a
        // cache line's first-use flag fires once).
        if let Some((source, scheme)) = self.pf_sources.get(line) {
            self.zoo.on_useful(scheme, line, source, late);
            if let Some(t) = &mut self.tracer {
                let kind = if late {
                    PfEventKind::FirstUseLate
                } else {
                    PfEventKind::FirstUse
                };
                t.emit(self.clock, line, source, kind);
            }
        }
    }

    #[inline]
    fn do_load(&mut self, addr: Addr, mem: &mut MemSystem) {
        self.l1d_accesses += 1;
        if let Some(tlb) = &mut self.dtlb {
            self.clock += tlb.access(addr);
        }
        self.drain_d_mshr();
        let line = addr.line(self.line_size);
        if self.l1d.access(line).is_hit() {
            return;
        }
        self.l1d_misses += 1;
        let ready = if let Some(r) = self.d_mshr.merge_demand(line) {
            r
        } else {
            if self.d_mshr.is_full() {
                // No MSHR available: stall until the oldest fill lands.
                let t = self.d_mshr.next_ready_at().expect("full MSHR has entries");
                self.clock = self.clock.max(t);
                self.drain_d_mshr();
            }
            let r = mem.access_data_line(line, false, self.clock);
            self.d_mshr.insert(line, r, false);
            r
        };
        self.mlp.note_miss(self.idx, ready);
    }

    #[inline]
    fn do_store(&mut self, addr: Addr, mem: &mut MemSystem) {
        self.l1d_accesses += 1;
        if let Some(tlb) = &mut self.dtlb {
            self.clock += tlb.access(addr);
        }
        self.drain_d_mshr();
        let line = addr.line(self.line_size);
        if self.l1d.access_write(line).is_hit() {
            return;
        }
        self.l1d_misses += 1;
        // Stores retire through the store buffer: write-allocate without
        // stalling, unless no MSHR is free (then the store is simply
        // merged/dropped — a store buffer would hold it).
        if let Some(_r) = self.d_mshr.merge_demand(line) {
            return;
        }
        if !self.d_mshr.is_full() {
            let r = mem.access_data_line(line, true, self.clock);
            self.d_mshr.insert(line, r, false);
        }
    }

    /// Retires completed data fills into the L1D.
    #[inline]
    fn drain_d_mshr(&mut self) {
        if self.d_mshr.none_ready(self.clock) {
            return;
        }
        let mut retired = std::mem::take(&mut self.retire_buf);
        retired.clear();
        self.d_mshr.retire_ready_into(self.clock, &mut retired);
        for entry in retired.iter().copied() {
            self.l1d.fill(entry.line, FillKind::Demand);
        }
        self.retire_buf = retired;
    }

    /// Resets measurement counters (end of warm-up); microarchitectural
    /// state — caches, predictors, tables — is preserved.
    pub fn reset_stats(&mut self) {
        self.start_clock = self.clock;
        self.start_idx = self.idx;
        self.line_fetches = 0;
        self.l1i_miss_cats = CategoryCounts::new();
        self.eliminated_misses = 0;
        self.l1d_accesses = 0;
        self.l1d_misses = 0;
        self.pf_stats = PrefetchStats::default();
        self.zoo.reset_stats();
        if let Some(t) = &mut self.tracer {
            // Warm-up events are not part of the measurement window.
            t.clear();
        }
        self.branch.reset_stats();
        if let Some(t) = &mut self.itlb {
            t.reset_stats();
        }
        if let Some(t) = &mut self.dtlb {
            t.reset_stats();
        }
        self.l1i.reset_stats();
        self.l1d.reset_stats();
    }

    /// Metrics over the current measurement window.
    pub fn metrics(&self) -> CoreMetrics {
        CoreMetrics {
            instructions: self.idx - self.start_idx,
            cycles: self.clock - self.start_clock,
            line_fetches: self.line_fetches,
            l1i_misses: self.l1i_miss_cats,
            eliminated_misses: self.eliminated_misses,
            l1d_accesses: self.l1d_accesses,
            l1d_misses: self.l1d_misses,
            branch: *self.branch.stats(),
            prefetch: self.pf_stats,
        }
    }
}
