//! Deterministic SPMD execution over the machine simulator.
//!
//! Each processor has its own cycle clock. A nest is executed by running
//! every participating processor's iteration subset against the shared
//! cache/directory state and accumulating per-processor busy cycles;
//! barriers join the clocks (plus barrier cost), pipelined nests advance
//! tile-by-tile behind their predecessor processor. Program values are
//! f64 arenas indexed by the transformed layouts, so numeric results are
//! identical across strategies and processor counts — which the tests
//! verify.
//!
//! ## Strided fast path
//!
//! The hot loop of the simulator is the innermost nest level: every
//! iteration recomputes each reference's transformed address from scratch
//! (affine access evaluation, strip-mine div/mod, permutation,
//! linearization). But within a strip of a strip-mined layout the address
//! moves by a *constant* delta per iteration, so the executor resolves
//! each statement reference once per segment into a
//! [`RefCursor`]`{byte, slot, dbyte, dslot}` via
//! [`dct_layout::DataLayout::affine_probe`] and then iterates with
//! integer adds, re-probing only at strip boundaries. The probe also
//! answers for the loop around the innermost one, so the next entry of the
//! innermost loop is usually the previous entry's cursors moved by a
//! constant ([`CursorMemo`]). The machine access
//! stream — every `(proc, addr, is_write)` in order — is exactly the one
//! the general walk produces, so cycles, statistics and checksums are
//! bit-identical between the two modes (the differential property tests
//! pin this). The fast path bails to the general walk for block-cyclic
//! distributed innermost levels, whose owned iterations are not an
//! arithmetic progression.

use crate::codegen::{LevelSched, SpmdNest, SpmdProgram, SyncKind};
use crate::cost::CostModel;
use crate::kernel::{self, KernelPlan, RdStream, WrStream};
use crate::race::Detector;
use crate::replay::{MemoOutcome, StepMemo};
use crate::schedule::{self, PipelinePlan, Schedule, Step, Steps};
use dct_ir::{ArrayRef, BinOp, Expr, MemProfile, RaceReport};
use dct_machine::{Machine, MachineConfig, MemProbe, SegAccess, Stats, SyncOp};
use dct_profile::{LineRange, Profiler};

/// Executor-level fast-path counters (observability only; never feeds
/// back into cycles or statistics).
#[derive(Clone, Copy, Default, Debug)]
pub struct FastPathStats {
    /// Innermost iterations executed through segment cursors.
    pub fast_iters: u64,
    /// Innermost iterations executed through the general walk.
    pub slow_iters: u64,
    /// Segments entered: one per innermost-loop entry plus one per strip
    /// boundary crossed inside it. Each got its cursors either by a bump
    /// (`cursor_bumps`) or by a resolve (`resolves`); the three add up.
    pub segments: u64,
    /// Innermost-loop entries whose cursors were the previous entry's moved
    /// along the loop around it, without a probe (see [`CursorMemo`]).
    pub cursor_bumps: u64,
    /// Segments whose cursors were resolved from scratch, by reason:
    /// indexed like [`RESOLVE_NAMES`] (`Resolve as usize`).
    pub resolves: [u64; 6],
    /// Innermost iterations executed through fused segment kernels: every
    /// one of `fast_iters` but those of refused segments.
    pub kernel_iters: u64,
    /// Kernel-shape histogram, indexed like
    /// [`crate::kernel::SHAPE_NAMES`]: iterations executed per shape.
    pub kernel_shapes: [u64; 6],
    /// Segments the fused kernels refused, so that the reference body ran
    /// them, by reason: indexed like [`REFUSAL_NAMES`] (`Refusal as
    /// usize`).
    pub kernel_refusals: [u64; 1],
    /// Kernel segments of a one-statement body that took the ordered
    /// element-major path because a read stream overlaps the write stream
    /// (bodies of several statements always take it and are not counted).
    pub kernel_aliased: u64,
    /// Time steps that were replayed from the recorded one instead of
    /// being simulated access by access (see [`crate::replay`]).
    pub replayed_steps: u64,
    /// Time steps simulated access by access: begun minus replayed.
    pub steps_simulated: u64,
    /// Why the run replayed, or why it could not.
    pub memo: MemoOutcome,
    /// Bytes the race detector allocated for shadow cells and the profiler
    /// for its per-line tables, shadow slabs and rows (0 = not attached).
    /// Allocated, not resident: what a host pays for observing this run.
    pub race_shadow_bytes: u64,
    pub profiler_table_bytes: u64,
}

impl FastPathStats {
    /// The host-side reason counts as JSON object members (no braces):
    /// `"cursor_bumps": n, "resolves": {..}, "kernel_refusals": {..},
    /// "kernel_aliased": n, "steps_simulated": n`, each histogram keyed by
    /// its label with zero counts left out.
    pub fn reasons_json(&self) -> String {
        fn histogram(names: &[&str], counts: &[u64]) -> String {
            let members: Vec<String> = names
                .iter()
                .zip(counts)
                .filter(|(_, &n)| n > 0)
                .map(|(name, n)| format!("\"{name}\": {n}"))
                .collect();
            format!("{{{}}}", members.join(", "))
        }
        format!(
            "\"cursor_bumps\": {}, \"resolves\": {}, \"kernel_refusals\": {}, \"kernel_aliased\": {}, \
             \"steps_simulated\": {}",
            self.cursor_bumps,
            histogram(&RESOLVE_NAMES, &self.resolves),
            histogram(&REFUSAL_NAMES, &self.kernel_refusals),
            self.kernel_aliased,
            self.steps_simulated,
        )
    }

    /// What the observers of this run allocated, as JSON object members
    /// (no braces).
    pub fn observer_bytes_json(&self) -> String {
        format!(
            "\"race_shadow_bytes\": {}, \"profiler_table_bytes\": {}",
            self.race_shadow_bytes, self.profiler_table_bytes
        )
    }

    /// Fold counters from a lane (plain integer sums).
    fn accumulate(&mut self, o: &FastPathStats) {
        self.fast_iters += o.fast_iters;
        self.slow_iters += o.slow_iters;
        self.segments += o.segments;
        self.cursor_bumps += o.cursor_bumps;
        for (a, b) in self.resolves.iter_mut().zip(&o.resolves) {
            *a += b;
        }
        self.kernel_iters += o.kernel_iters;
        for (a, b) in self.kernel_shapes.iter_mut().zip(&o.kernel_shapes) {
            *a += b;
        }
        for (a, b) in self.kernel_refusals.iter_mut().zip(&o.kernel_refusals) {
            *a += b;
        }
        self.kernel_aliased += o.kernel_aliased;
        self.replayed_steps += o.replayed_steps;
        self.steps_simulated += o.steps_simulated;
        self.memo = self.memo.max(o.memo);
    }
}

/// Result of one simulated execution.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Wall-clock cycles (max over processors at program end).
    pub cycles: u64,
    /// Final per-processor clocks.
    pub clocks: Vec<u64>,
    /// Machine statistics (misses, invalidations, ...).
    pub stats: Stats,
    /// Sum of all array elements (cheap numeric fingerprint).
    pub checksum: f64,
    /// Barriers executed.
    pub barriers: u64,
    /// Total busy cycles per compute nest (summed over processors and time
    /// steps) — which nest dominates the execution.
    pub nest_cycles: Vec<u64>,
    /// Total busy cycles of the initialization nests.
    pub init_cycles: u64,
    /// Strided fast-path counters.
    pub fast: FastPathStats,
    /// The run hit its cycle or wall-clock budget and was aborted; the
    /// result is partial (the repro harness records it as a Timeout cell).
    pub timed_out: bool,
    /// The run was aborted by its cooperative [`dct_ir::CancelToken`] at a
    /// sync-point boundary; the result is partial and must be discarded
    /// (the supervisor retries or quarantines the cell).
    pub cancelled: bool,
    /// Happens-before race report, when the run was executed with
    /// `race_detect` enabled (`None` = detection was off).
    pub race: Option<RaceReport>,
    /// Memory-behavior profile — per-(nest, array, processor) attribution
    /// with 4-C miss classification and the true/false sharing split —
    /// when the run was executed with `profile` enabled (`None` =
    /// profiling was off).
    pub mem_profile: Option<MemProfile>,
    /// Inert (always 0); goes with the follow-up benchmark PR.
    pub par_regions: u64,
    /// Sync-free regions (nest executions) walked.
    pub seq_regions: u64,
}

/// A resolved reference inside a strided segment: current byte address and
/// arena slot plus their per-iteration deltas.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct RefCursor {
    byte: u64,
    slot: usize,
    dbyte: i64,
    dslot: i64,
}

/// Why a segment's cursors were resolved from scratch instead of bumped
/// (indexes [`FastPathStats::resolves`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Resolve {
    /// First innermost-loop entry of a top-level walk.
    WalkStart = 0,
    /// A loop further out than the one around the innermost moved.
    PrefixChanged = 1,
    /// The innermost loop starts elsewhere or strides differently
    /// (triangular bounds).
    InnerRangeChanged = 2,
    /// The entry is outside the outer steps the resolved one vouched for.
    OuterExhausted = 3,
    /// A strip boundary inside the innermost loop: the entry spans several
    /// segments, or this is a later one of them.
    SplitSegment = 4,
    /// The nest has one level, so nothing to bump along.
    Depth1 = 5,
}

/// Labels of [`FastPathStats::resolves`], indexed by `Resolve as usize`.
pub const RESOLVE_NAMES: [&str; 6] = [
    "walk_start",
    "outer_prefix_changed",
    "inner_range_changed",
    "outer_validity_exhausted",
    "split_segment",
    "depth1_nest",
];

/// Why the fused kernels refused a segment (indexes
/// [`FastPathStats::kernel_refusals`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Refusal {
    /// A sweep would leave its arena.
    OutOfBounds = 0,
}

/// Labels of [`FastPathStats::kernel_refusals`], indexed by `Refusal as
/// usize`.
pub const REFUSAL_NAMES: [&str; 1] = ["out_of_bounds"];

/// The rectangle the last resolved innermost-loop entry vouches for, kept
/// so that later entries need no probe and no kernel set-up.
/// [`dct_layout::DataLayout::affine_probe`] answers for `steps1`
/// iterations of the innermost loop by `steps2` values of the loop around
/// it, on which every reference's address is `base + t1*(dbyte, dslot) +
/// t2*delta`. An entry of the same execution of the loop around the
/// innermost, with the same inner `(start, step)`, at most `steps1`
/// iterations, and `0 < k < steps2` outer values later therefore has the
/// cursors `base + k*delta` and is one unsplit segment. The layouts are
/// fixed, but bounds and subscripts may use the time parameter, so the
/// memo lives for one top-level [`Lane::walk`] call (one nest, processor,
/// parameter binding and tile) and is dropped at the next.
#[derive(Default)]
struct CursorMemo {
    live: bool,
    /// The loop around the innermost began a new execution since the last
    /// resolve, so the loops further out moved. Set by the walk of that
    /// loop, which knows it without comparing indices.
    moved_out: bool,
    /// The innermost loop's `(start, step, count)` for the current
    /// execution of the loop around it, kept when the innermost bounds do
    /// not mention that loop's index ([`WalkCtx::inner_fixed`]).
    range: Option<(i64, i64, i64)>,
    /// Upper bound of the loop around the innermost in its current
    /// execution: no bumped entry lies beyond it.
    outer_hi: i64,
    /// `(start, step)` of the innermost loop at the resolved entry.
    inner: (i64, i64),
    /// Index of the loop around the innermost at the resolved entry.
    outer0: i64,
    steps1: i64,
    steps2: i64,
    base: Vec<RefCursor>,
    /// Per reference, `(byte, slot)` change per step of the outer loop.
    delta: Vec<(i64, i64)>,
    /// `(seg, unroll_safe)`: the kernel streams and access vector were
    /// proven for the whole rectangle at this segment length (every sweep
    /// in bounds, and the aliasing verdict the same at every outer step),
    /// and the scratch stream vectors still hold the resolved entry's. A
    /// bumped entry of that length then only moves their addresses.
    kernel: Option<(i64, bool)>,
}

/// Where a segment's kernel streams come from (see
/// [`Lane::exec_segment_kernel`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Streams {
    /// Moved into place by the bump, from the rectangle's proof.
    Bumped { unroll_safe: bool },
    /// The entry that resolved the memo: prove the rectangle it opens.
    OpensRect,
    /// Prove this segment alone.
    Alone,
}

/// Per-nest walk context, built once per nest execution instead of per
/// iteration: each statement's read references in evaluation (DFS) order,
/// and the body's kernel plan.
struct WalkCtx<'n> {
    nest: &'n SpmdNest,
    /// `reads[s]` = read refs of statement `s` in `Expr::collect_refs`
    /// order (which matches `eval`'s recursion order).
    reads: Vec<Vec<&'n ArrayRef>>,
    /// `(array, is_write)` of every segment cursor in `setup_cursors`
    /// order (per statement: the write first, then its reads) — the race
    /// detector's view of the cursor table.
    ref_info: Vec<(usize, bool)>,
    /// Cursor index of every kernel write stream, read stream and
    /// access-vector slot, in the order [`Lane::prove_streams`] builds them.
    wr_of: Vec<usize>,
    rd_of: Vec<usize>,
    acc_of: Vec<usize>,
    /// The innermost bounds do not mention the index of the loop around
    /// it, so its range is the same at every step of that loop.
    inner_fixed: bool,
    /// Fused segment-kernel plan for this nest's body, compiled once here;
    /// every strided segment runs through it.
    plan: KernelPlan,
}

impl<'n> WalkCtx<'n> {
    fn new(nest: &'n SpmdNest) -> WalkCtx<'n> {
        let reads: Vec<Vec<&'n ArrayRef>> = nest
            .source
            .body
            .iter()
            .map(|s| {
                let mut v = Vec::new();
                s.rhs.collect_refs(&mut v);
                v
            })
            .collect();
        let (mut ref_info, mut wr_of, mut rd_of, mut acc_of) = (vec![], vec![], vec![], vec![]);
        for (s, rds) in nest.source.body.iter().zip(&reads) {
            let w = ref_info.len();
            wr_of.push(w);
            ref_info.push((s.lhs.array.0, true));
            for r in rds.iter() {
                rd_of.push(ref_info.len());
                acc_of.push(ref_info.len());
                ref_info.push((r.array.0, false));
            }
            acc_of.push(w);
        }
        let depth = nest.source.depth;
        let inner_fixed = depth >= 2 && {
            let b = &nest.source.bounds[depth - 1];
            b.los.iter().chain(&b.his).all(|f| f.aff.var_coeff(depth - 2) == 0)
        };
        let plan = kernel::build_plan(nest);
        WalkCtx { nest, reads, ref_info, wr_of, rd_of, acc_of, inner_fixed, plan }
    }
}

/// The simulated SPMD execution of one lowered program.
pub struct Executor<'a> {
    sp: &'a SpmdProgram,
    /// The shared lowered schedule: gates and doacross plans.
    sched: Schedule<'a>,
    machine: Machine,
    arenas: Vec<Vec<f64>>,
    clocks: Vec<u64>,
    cost: CostModel,
    barriers: u64,
    /// Execute innermost levels through the strided segment engine
    /// (default). Disable to force the general walk everywhere — used by
    /// the differential tests that pin bit-exactness between both modes.
    pub fast_path: bool,
    /// Run the happens-before race detector alongside execution. A pure
    /// observer: cycles, statistics and results are unchanged; the run
    /// result gains a [`RaceReport`].
    pub race_detect: bool,
    /// Run the memory-behavior profiler alongside execution. Like the
    /// race detector a pure observer: it receives each access's
    /// already-decided outcome and cost, so cycles, statistics and
    /// results are unchanged; the run result gains a [`MemProfile`].
    pub profile: bool,
    /// Abort the run once the slowest processor clock exceeds this many
    /// simulated cycles (checked at nest boundaries).
    pub max_cycles: Option<u64>,
    /// Abort the run after this much host wall-clock time (checked at nest
    /// boundaries).
    pub max_wall: Option<std::time::Duration>,
    /// Cooperative cancellation flag, polled at sync-point boundaries
    /// (nest ends, lane switches, pipeline-chain members). `None` = never
    /// cancelled; polling costs one atomic load
    /// per boundary, nothing on the innermost path.
    pub cancel: Option<dct_ir::CancelToken>,
    /// Reusable iteration vector (hoisted out of the per-processor and
    /// per-tile loops; the walk leaves it zeroed on exit).
    scratch_ivec: Vec<i64>,
    /// Scratch buffers for allocation-free address computation (shared by
    /// every lane).
    scratch: Scratch,
    fast: FastPathStats,
    /// Per-compute-nest busy-cycle accumulators.
    nest_cycles: Vec<u64>,
    init_cycles: u64,
    /// Accumulator target for the nest currently executing.
    current_acc: Option<usize>,
    /// The happens-before detector, created at `run()` when
    /// `race_detect` is set (boxed: the executor hot state stays small).
    race: Option<Box<Detector>>,
    /// The memory profiler, created at `run()` when `profile` is set.
    profiler: Option<Box<Profiler>>,
    /// Sync-free regions (nest executions) walked.
    seq_regions: u64,
    /// Time-step recorder and replayer (see [`crate::replay`]).
    memo: StepMemo,
}

impl<'a> Executor<'a> {
    pub fn new(sp: &'a SpmdProgram, machine_cfg: MachineConfig, cost: CostModel) -> Executor<'a> {
        assert_eq!(machine_cfg.nprocs, sp.nprocs);
        let arenas = sp.layouts.iter().map(|l| vec![0.0f64; l.layout.size() as usize]).collect();
        Executor {
            sp,
            sched: Schedule::new(sp),
            machine: Machine::new(machine_cfg),
            arenas,
            clocks: vec![0; sp.nprocs],
            cost,
            barriers: 0,
            fast_path: true,
            race_detect: false,
            profile: false,
            max_cycles: None,
            max_wall: None,
            cancel: None,
            scratch_ivec: Vec::with_capacity(8),
            scratch: Scratch::default(),
            fast: FastPathStats::default(),
            nest_cycles: vec![0; sp.nests.len()],
            init_cycles: 0,
            current_acc: None,
            race: None,
            profiler: None,
            seq_regions: 0,
            memo: StepMemo::new(MemoOutcome::default()),
        }
    }

    /// May this run replay time steps, and if not, why not?
    /// `NoRecurrence` is the eligible answer until a step repeats.
    fn memo_verdict(&self) -> MemoOutcome {
        if !self.fast_path {
            MemoOutcome::ReferenceWalk
        } else if self.sp.time_steps < 3 {
            MemoOutcome::NoTimeLoop
        } else if !self.sched.time_invariant() {
            MemoOutcome::TimeDependent
        } else {
            MemoOutcome::NoRecurrence
        }
    }

    /// Construct the memory profiler for this program: attribution sites
    /// are init nests followed by compute nests; array identity is
    /// recovered from line numbers via the allocation ranges (a
    /// replicated array's range spans all per-processor replicas).
    fn build_profiler(&self) -> Profiler {
        let sp = self.sp;
        let cfg = &self.machine.cfg;
        let line = cfg.line_bytes.max(1) as u64;
        let l1_lines = cfg.l1_bytes / cfg.line_bytes.max(1);
        let ranges = (0..sp.layouts.len())
            .map(|x| {
                let bytes = if sp.repl_stride[x] > 0 {
                    sp.repl_stride[x] * sp.nprocs as u64
                } else {
                    sp.layouts[x].layout.size() as u64 * sp.elem_bytes[x]
                };
                LineRange {
                    start: sp.bases[x] / line,
                    end: (sp.bases[x] + bytes).div_ceil(line),
                    array: x,
                }
            })
            .collect();
        let nsites = sp.init.len() + sp.nests.len();
        Profiler::new(sp.nprocs, nsites, sp.layouts.len(), l1_lines, ranges)
    }

    /// Run the whole program: init nests, then the (possibly time-stepped)
    /// compute schedule. A configured cycle or wall-clock budget is
    /// checked at nest boundaries; a runaway simulation returns a partial
    /// result flagged `timed_out` instead of hanging its sweep.
    pub fn run(&mut self) -> RunResult {
        if self.race_detect && self.race.is_none() {
            self.race = Some(Box::new(Detector::new(self.sp)));
        }
        if self.profile && self.profiler.is_none() {
            self.profiler = Some(Box::new(self.build_profiler()));
        }
        let started = std::time::Instant::now();
        let mut timed_out = false;
        let mut cancelled = false;
        self.memo = StepMemo::new(self.memo_verdict());
        let mut steps = Steps::new(self.sp);
        while let Some((step, params)) = steps.next() {
            if !step.init && step.idx == 0 {
                self.memo.begin_step(&self.machine, self.profiler.as_deref_mut());
            }
            self.exec_step(step, params);
            self.memo.end_nest(&mut self.machine.stats.per_proc, self.profiler.as_deref_mut());
            match step.sync {
                SyncKind::Barrier => self.barrier(),
                SyncKind::ProducerWait => self.producer_wait(),
                SyncKind::None => {}
            }
            if self.cancel_requested() {
                cancelled = true;
                break;
            }
            if self.over_budget(started) {
                timed_out = true;
                break;
            }
        }
        let cycles = self.clocks.iter().copied().max().unwrap_or(0);
        self.fast.replayed_steps = self.memo.replayed_steps;
        self.fast.steps_simulated = self.memo.steps - self.memo.replayed_steps;
        self.fast.memo = self.memo.outcome;
        self.fast.race_shadow_bytes = self.race.as_ref().map_or(0, |d| d.shadow_bytes());
        self.fast.profiler_table_bytes = self.profiler.as_ref().map_or(0, |p| p.table_bytes());
        RunResult {
            cycles,
            clocks: self.clocks.clone(),
            stats: self.machine.stats.clone(),
            checksum: self.checksum(),
            barriers: self.barriers,
            nest_cycles: self.nest_cycles.clone(),
            init_cycles: self.init_cycles,
            fast: self.fast,
            timed_out,
            cancelled,
            race: self.race.as_ref().map(|d| d.report_snapshot()),
            mem_profile: self.profiler.as_ref().map(|p| {
                let sites = self
                    .sp
                    .init
                    .iter()
                    .chain(self.sp.nests.iter())
                    .map(|n| n.source.name.clone())
                    .collect();
                p.snapshot(sites, self.sp.init.len(), self.sp.array_names.clone())
            }),
            par_regions: 0,
            seq_regions: self.seq_regions,
        }
    }

    /// Has the cooperative cancellation token been set? Polled at every
    /// sync-point boundary; a cancelled run aborts with a partial result
    /// flagged `cancelled` that the supervisor discards.
    fn cancel_requested(&self) -> bool {
        self.cancel.as_ref().is_some_and(|t| t.is_cancelled())
    }

    fn over_budget(&self, started: std::time::Instant) -> bool {
        if let Some(mc) = self.max_cycles {
            if self.clocks.iter().copied().max().unwrap_or(0) > mc {
                return true;
            }
        }
        if let Some(mw) = self.max_wall {
            if started.elapsed() > mw {
                return true;
            }
        }
        false
    }

    /// Read an array's values in original index order (for verification).
    pub fn values(&self, x: usize) -> Vec<f64> {
        schedule::read_out(self.sp, x, &self.arenas[x])
    }

    pub fn checksum(&self) -> f64 {
        checksum_arenas(&self.arenas)
    }

    fn barrier(&mut self) {
        self.barriers += 1;
        let m = self.clocks.iter().copied().max().unwrap_or(0);
        let c = m + self.machine.sync(SyncOp::Barrier { active: self.sp.nprocs });
        for x in &mut self.clocks {
            *x = c;
        }
        if let Some(d) = self.race.as_deref_mut() {
            d.global_sync();
        }
    }

    fn producer_wait(&mut self) {
        let m = self.clocks.iter().copied().max().unwrap_or(0);
        let c = m + self.machine.sync(SyncOp::LockHandoff);
        for x in &mut self.clocks {
            *x = c;
        }
        // The executor's producer-wait joins every cycle clock, so the
        // matching happens-before edge is barrier-strength too.
        if let Some(d) = self.race.as_deref_mut() {
            d.global_sync();
        }
    }

    fn exec_step(&mut self, step: Step<'a>, params: &[i64]) {
        let Step { nest, idx, init, .. } = step;
        let ninit = self.sp.init.len();
        self.current_acc = if init { None } else { Some(idx) };
        if let Some(d) = self.race.as_deref_mut() {
            d.set_site(init, idx, ninit);
        }
        if let Some(pf) = self.profiler.as_deref_mut() {
            pf.set_site(if init { idx } else { ninit + idx });
        }
        self.seq_regions += 1;
        match self.sched.pipeline_plan(nest, params) {
            Some(plan) => self.exec_pipelined(nest, &plan, params),
            None => self.exec_doall(nest, params),
        }
        self.current_acc = None;
    }

    /// Record busy cycles against the executing nest's accumulator.
    fn account(&mut self, busy: u64) {
        match self.current_acc {
            Some(j) => self.nest_cycles[j] += busy,
            None => self.init_cycles += busy,
        }
    }

    fn exec_doall(&mut self, nest: &SpmdNest, params: &[i64]) {
        let ctx = WalkCtx::new(nest);
        let mut ivec = std::mem::take(&mut self.scratch_ivec);
        ivec.clear();
        ivec.resize(nest.source.depth, 0);
        let procs = self.sched.participants(nest, params);
        let mut total = 0u64;
        let token = self.cancel.clone();
        // Built from individual fields (not a helper method) so the
        // borrow checker lets the loop update `self.clocks` alongside.
        let mut lane = Lane {
            sp: self.sp,
            cost: &self.cost,
            coords: self.sched.coords(),
            machine: &mut self.machine,
            arenas: &mut self.arenas,
            profiler: self.profiler.as_deref_mut(),
            race: self.race.as_deref_mut(),
            fast_path: self.fast_path,
            values_only: self.memo.replaying(),
            scratch: &mut self.scratch,
            fast: FastPathStats::default(),
        };
        for p in procs {
            // Lane switches are sync-point boundaries: a cancelled run
            // stops issuing lanes and aborts at the enclosing nest end.
            if token.as_ref().is_some_and(|t| t.is_cancelled()) {
                break;
            }
            let busy = self.memo.walk_busy(lane.walk(&ctx, p, 0, &mut ivec, params, None));
            total += busy;
            self.clocks[p] += busy;
        }
        let fast = lane.fast;
        self.fast.accumulate(&fast);
        self.account(total);
        self.scratch_ivec = ivec;
    }

    /// Doacross pipeline: processors along the pipeline grid dimension
    /// proceed tile-by-tile behind their predecessor.
    fn exec_pipelined(&mut self, nest: &SpmdNest, plan: &PipelinePlan, params: &[i64]) {
        let ntiles = plan.tiles.len();
        let ctx = WalkCtx::new(nest);
        let mut ivec = std::mem::take(&mut self.scratch_ivec);
        ivec.clear();
        ivec.resize(nest.source.depth, 0);
        let lock = self.machine.cfg.lock_cost;
        let mut total = 0u64;
        let token = self.cancel.clone();
        let mut lane = Lane {
            sp: self.sp,
            cost: &self.cost,
            coords: self.sched.coords(),
            machine: &mut self.machine,
            arenas: &mut self.arenas,
            profiler: self.profiler.as_deref_mut(),
            race: self.race.as_deref_mut(),
            fast_path: self.fast_path,
            values_only: self.memo.replaying(),
            scratch: &mut self.scratch,
            fast: FastPathStats::default(),
        };
        for chain in &plan.chains {
            let mut prev_done: Vec<u64> = vec![0; ntiles];
            // Predecessor's released detector clocks, one per tile (empty
            // when detection is off or for the chain head).
            let mut prev_rel: Vec<Vec<u64>> = Vec::new();
            let mut head = true;
            for &p in chain {
                // Chain-member handoffs are sync-point boundaries too.
                if token.as_ref().is_some_and(|t| t.is_cancelled()) {
                    break;
                }
                let mut clock = self.clocks[p];
                let mut done = Vec::with_capacity(ntiles);
                let mut rel: Vec<Vec<u64>> = Vec::new();
                for (r, &(rlo, rhi)) in plan.tiles.iter().enumerate() {
                    // Chain members behind a predecessor acquire its
                    // per-tile handoff (same lock cost the clock model
                    // already charges).
                    let lk = if head {
                        lock
                    } else {
                        let c = lane.machine.sync(SyncOp::PipelineHandoff);
                        lane.race_acquire(p, r, &prev_rel);
                        c
                    };
                    let start = clock.max(prev_done[r].saturating_add(lk));
                    let tile = Some((plan.tile_level, rlo, rhi));
                    let busy = self.memo.walk_busy(lane.walk(&ctx, p, 0, &mut ivec, params, tile));
                    total += busy;
                    clock = start + busy;
                    done.push(clock);
                    // Release after each tile: later tiles open a new
                    // epoch the successor's acquire does not cover.
                    rel.push(lane.race_release(p));
                }
                self.clocks[p] = clock;
                prev_done = done;
                prev_rel = rel;
                head = false;
            }
        }
        let fast = lane.fast;
        self.fast.accumulate(&fast);
        self.account(total);
        self.scratch_ivec = ivec;
    }
}

/// Reusable buffers for allocation-free address computation: one set per
/// executor.
#[derive(Default)]
struct Scratch {
    /// Evaluated index vector of the reference being resolved.
    idx: Vec<i64>,
    /// Layout address-computation scratch.
    lay: Vec<i64>,
    /// Per-dimension index slopes for `affine_probe`: along the innermost
    /// loop, and along the loop around it.
    didx: Vec<i64>,
    didx2: Vec<i64>,
    /// `affine_probe` slope tracking.
    probe: Vec<[i64; 3]>,
    /// Segment cursors, one per statement reference of the current nest.
    cursors: Vec<RefCursor>,
    /// Per cursor, its `(byte, slot)` change per step of the loop around
    /// the innermost one, as last resolved.
    delta: Vec<(i64, i64)>,
    /// The last resolved innermost-loop entry.
    memo: CursorMemo,
    /// Kernel-path machine access vector (per statement: reads in postfix
    /// order, then the write — the reference walk's access order).
    seg_accs: Vec<SegAccess>,
    /// Kernel-path resolved read streams, in the same order as the plan's
    /// per-statement reads.
    rd_streams: Vec<RdStream>,
    /// Kernel-path resolved write streams, one per statement.
    wr_streams: Vec<WrStream>,
}

/// The walk engine: executes one processor at a time against the
/// executor's machine and arenas, with the profiler and race detector
/// (when attached) observing every access inline.
struct Lane<'e> {
    sp: &'e SpmdProgram,
    cost: &'e CostModel,
    coords: &'e [Vec<usize>],
    machine: &'e mut Machine,
    arenas: &'e mut [Vec<f64>],
    profiler: Option<&'e mut Profiler>,
    race: Option<&'e mut Detector>,
    fast_path: bool,
    /// A replayed time step: compute values and keep the race detector
    /// watching, send the machine and the profiler nothing. The busy cycles
    /// a walk then returns are meaningless; the caller takes them from the
    /// recorded step (see [`crate::replay`]).
    values_only: bool,
    scratch: &'e mut Scratch,
    fast: FastPathStats,
}

impl Lane<'_> {
    /// One machine access, observed by the profiler when attached; none
    /// at all in a replayed step.
    #[inline]
    fn access(&mut self, proc: usize, byte_addr: u64, write: bool) -> u64 {
        if self.values_only {
            return 0;
        }
        match self.profiler.as_deref_mut() {
            Some(p) => {
                self.machine.access_probed(proc, byte_addr, write, Some(p as &mut dyn MemProbe))
            }
            None => self.machine.access(proc, byte_addr, write),
        }
    }

    /// Recursive loop walk; returns busy cycles for this processor.
    fn walk(
        &mut self,
        ctx: &WalkCtx,
        proc: usize,
        level: usize,
        ivec: &mut Vec<i64>,
        params: &[i64],
        tile: Option<(usize, i64, i64)>,
    ) -> u64 {
        let depth = ctx.nest.source.depth;
        if level == depth {
            self.fast.slow_iters += 1;
            return self.exec_body(ctx.nest, proc, ivec, params);
        }
        if self.fast_path && level + 1 == depth {
            return self.walk_innermost(ctx, proc, level, ivec, params, tile);
        }
        if level == 0 {
            self.scratch.memo.live = false;
        }
        let it = self.level_iter(ctx.nest, proc, level, ivec, params, tile);
        if level + 2 == depth {
            // A new execution of the loop around the innermost one.
            let m = &mut self.scratch.memo;
            m.moved_out = true;
            m.range = None;
            m.outer_hi = it.hi();
        }
        self.walk_values(ctx, proc, level, ivec, params, tile, it)
    }

    /// Run loop `level` over `it`, each value walking the levels inside.
    fn walk_values(
        &mut self,
        ctx: &WalkCtx,
        proc: usize,
        level: usize,
        ivec: &mut Vec<i64>,
        params: &[i64],
        tile: Option<(usize, i64, i64)>,
        it: OwnedIter,
    ) -> u64 {
        let mut busy = 0u64;
        for v in it {
            ivec[level] = v;
            busy += self.cost.loop_iter + self.walk(ctx, proc, level + 1, ivec, params, tile);
        }
        ivec[level] = 0;
        busy
    }

    /// The values of loop `level` this processor runs at the current
    /// iteration point: its bounds, clamped to the tile, then the subset the
    /// processor owns when the level is distributed.
    fn level_iter(
        &self,
        nest: &SpmdNest,
        proc: usize,
        level: usize,
        ivec: &[i64],
        params: &[i64],
        tile: Option<(usize, i64, i64)>,
    ) -> OwnedIter {
        let mut lo = nest.source.bounds[level].eval_lo(ivec, params);
        let mut hi = nest.source.bounds[level].eval_hi(ivec, params);
        if let Some((tl, rlo, rhi)) = tile {
            if tl == level {
                lo = lo.max(rlo);
                hi = hi.min(rhi);
            }
        }
        match &nest.sched[level] {
            LevelSched::Seq => OwnedIter::Range { next: lo, hi },
            LevelSched::Dist { proc_dim, folding, extent, offset } => {
                let q = self.coords[proc].get(*proc_dim).copied().unwrap_or(0) as i64;
                let procs = self.sp.grid.get(*proc_dim).copied().unwrap_or(1) as i64;
                owned_iter(lo, hi, offset.eval(&[], params), *extent, procs, q, *folding)
            }
        }
    }

    /// The innermost loop on the segment engine. When its bounds do not
    /// mention the index of the loop around it ([`WalkCtx::inner_fixed`]),
    /// its range is worked out at the first entry of each execution of that
    /// loop and kept in the memo for the others. Owned iterations that form
    /// no arithmetic progression (block-cyclic) take the general walk.
    fn walk_innermost(
        &mut self,
        ctx: &WalkCtx,
        proc: usize,
        level: usize,
        ivec: &mut Vec<i64>,
        params: &[i64],
        tile: Option<(usize, i64, i64)>,
    ) -> u64 {
        let (start, step, count) = match self.scratch.memo.range {
            Some(kept) if ctx.inner_fixed => {
                // The test profile proves every kept range it uses.
                #[cfg(debug_assertions)]
                assert_eq!(
                    self.level_iter(ctx.nest, proc, level, ivec, params, tile).progression(),
                    Some(kept),
                    "kept innermost range"
                );
                kept
            }
            _ => {
                let it = self.level_iter(ctx.nest, proc, level, ivec, params, tile);
                let Some(range) = it.progression() else {
                    return self.walk_values(ctx, proc, level, ivec, params, tile, it);
                };
                if ctx.inner_fixed {
                    self.scratch.memo.range = Some(range);
                }
                range
            }
        };
        if count > 0 {
            self.walk_innermost_strided(ctx, proc, level, ivec, params, start, step, count)
        } else {
            0
        }
    }

    /// Strided innermost execution: iterate `v = start + t*step` for
    /// `count` iterations, re-resolving reference cursors only at layout
    /// segment boundaries. Produces exactly the machine access stream of
    /// the general walk.
    fn walk_innermost_strided(
        &mut self,
        ctx: &WalkCtx,
        proc: usize,
        level: usize,
        ivec: &mut Vec<i64>,
        params: &[i64],
        start: i64,
        step: i64,
        count: i64,
    ) -> u64 {
        let mut busy = 0u64;
        let mut v = start;
        let mut remaining = count;
        while remaining > 0 {
            ivec[level] = v;
            let entry = (remaining == count).then_some(count);
            let (seg, streams) = self.setup_cursors(ctx, proc, ivec, params, level, step, entry);
            let seg = seg.min(remaining);
            self.fast.segments += 1;
            self.fast.fast_iters += seg as u64;
            self.race_segment(ctx, proc, seg);
            match self.exec_segment_kernel(ctx, proc, ivec, level, v, step, seg, streams) {
                Some(b) => {
                    busy += b;
                    self.fast.kernel_iters += seg as u64;
                    self.fast.kernel_shapes[ctx.plan.shape as usize] += seg as u64;
                }
                None => {
                    let it = OwnedIter::Stepped { next: v, hi: v + step * (seg - 1), step };
                    busy += self.exec_refused(ctx, proc, level, ivec, params, it);
                }
            }
            v += step * seg;
            remaining -= seg;
        }
        ivec[level] = 0;
        busy
    }

    /// Execute one whole strided segment through the fused kernel layer:
    /// one [`Machine::access_seg`] call for the machine accounting plus a
    /// shape-specialized value sweep over raw arena slices
    /// ([`kernel::exec_values`]). A bumped entry comes with its streams and
    /// access vector already moved into place from its rectangle's proof;
    /// the entry that opens a rectangle proves it; any other segment is
    /// proven alone. Returns `None` — with no machine, arena, or observer
    /// state touched — when a sweep would leave its arena, counted as
    /// [`Refusal::OutOfBounds`].
    fn exec_segment_kernel(
        &mut self,
        ctx: &WalkCtx,
        proc: usize,
        ivec: &[i64],
        level: usize,
        v0: i64,
        step: i64,
        seg: i64,
        streams: Streams,
    ) -> Option<u64> {
        let plan = &ctx.plan;
        let unroll_safe = match streams {
            Streams::Bumped { unroll_safe } => {
                #[cfg(debug_assertions)]
                self.check_bumped_streams(ctx, plan, seg, unroll_safe);
                unroll_safe
            }
            Streams::OpensRect => {
                let m = &self.scratch.memo;
                let kmax = (m.steps2 - 1).min(m.outer_hi - m.outer0);
                match self.prove_streams(ctx, plan, seg, kmax) {
                    Some(unroll_safe) => {
                        self.scratch.memo.kernel = Some((seg, unroll_safe));
                        unroll_safe
                    }
                    None => self.prove_alone(ctx, plan, seg)?,
                }
            }
            Streams::Alone => self.prove_alone(ctx, plan, seg)?,
        };
        if plan.stmts.len() == 1 && !unroll_safe {
            self.fast.kernel_aliased += 1;
        }
        let sc = &mut *self.scratch;
        let probe = self.profiler.as_deref_mut().map(|p| p as &mut dyn MemProbe);
        let busy = seg as u64 * (self.cost.loop_iter + plan.extra_cycles)
            + self.machine.access_seg(proc, &mut sc.seg_accs, seg as u64, probe);
        // SAFETY: every stream's sweep was bounds-checked against its arena
        // by `prove_streams`, either for this segment alone or for every
        // segment of this length in the rectangle it belongs to (a bump
        // lies inside it: see `setup_cursors`). The arenas are never
        // resized, and none was indexed since the streams were derived (a
        // refused segment, which the reference body runs, drops the
        // rectangle's proof).
        unsafe {
            kernel::exec_values(
                plan,
                &sc.wr_streams,
                &sc.rd_streams,
                seg,
                ivec,
                level,
                v0,
                step,
                unroll_safe,
            );
        }
        Some(busy)
    }

    /// The iterations `it` of a segment the kernels refused, through the
    /// reference body. A refused sweep leaves an arena, so the body's
    /// bounds-checked indexing stops the run where the reference walk
    /// would. Cold and out of line: it never runs on the suite, and inlined
    /// it would change the code of the per-segment loop around it.
    #[cold]
    #[inline(never)]
    fn exec_refused(
        &mut self,
        ctx: &WalkCtx,
        proc: usize,
        level: usize,
        ivec: &mut [i64],
        params: &[i64],
        it: OwnedIter,
    ) -> u64 {
        let mut busy = 0u64;
        for v in it {
            ivec[level] = v;
            busy += self.cost.loop_iter + self.exec_body(ctx.nest, proc, ivec, params);
        }
        busy
    }

    /// [`Self::prove_streams`] for this segment alone; drops the memo's
    /// rectangle proof, whose streams this overwrites.
    fn prove_alone(&mut self, ctx: &WalkCtx, plan: &KernelPlan, seg: i64) -> Option<bool> {
        self.scratch.memo.kernel = None;
        let verdict = self.prove_streams(ctx, plan, seg, 0);
        if verdict.is_none() {
            self.fast.kernel_refusals[Refusal::OutOfBounds as usize] += 1;
        }
        verdict
    }

    /// Resolve every cursor into a raw kernel stream and the machine access
    /// vector, and prove them for the rectangle of `seg` iterations by the
    /// next `kmax` steps of the loop around the innermost, along the memo's
    /// per-step deltas (`kmax` 0: this segment alone). A slot is affine in
    /// both sides, so the rectangle's four corners bound every sweep: each
    /// must stay inside its arena, since a kernel must never touch memory
    /// the reference walk would not. Returns whether the sweeps may unroll,
    /// which needs no read stream to overlap the write stream — or `None`
    /// when a corner leaves an arena or the overlap differs between outer
    /// steps. Out of line: it runs once per rectangle, and inlined it would
    /// grow `walk_innermost_strided`, which runs once per segment.
    #[inline(never)]
    fn prove_streams(&mut self, ctx: &WalkCtx, plan: &KernelPlan, seg: i64, kmax: i64) -> Option<bool> {
        let sc = &mut *self.scratch;
        sc.seg_accs.clear();
        sc.rd_streams.clear();
        sc.wr_streams.clear();
        let d2 = |i: usize| if kmax > 0 { sc.memo.delta[i].1 } else { 0 };
        // Slots a cursor sweeps at outer step 0, widened by `k2` slots.
        let span = |c: &RefCursor, k2: i64| {
            let (first, t) = (c.slot as i64, (seg - 1) * c.dslot);
            let (lo, hi) = (first + t.min(0), first + t.max(0));
            (lo.saturating_add(k2.min(0)), hi.saturating_add(k2.max(0)))
        };
        for (i, (&(x, is_write), c)) in ctx.ref_info.iter().zip(&sc.cursors).enumerate() {
            let arena = &mut self.arenas[x];
            let (lo, hi) = span(c, kmax.saturating_mul(d2(i)));
            if lo < 0 || hi >= arena.len() as i64 {
                return None;
            }
            let (ptr, slot) = (arena.as_mut_ptr(), c.slot as i64);
            if is_write {
                sc.wr_streams.push(WrStream { ptr, slot, dslot: c.dslot });
            } else {
                sc.rd_streams.push(RdStream { ptr, slot, dslot: c.dslot });
            }
        }
        // Machine access vector: per statement, reads in postfix order
        // then the write — exactly the reference walk's access order. Left
        // empty on a replayed step: `access_seg` of no slots does nothing.
        if !self.values_only {
            sc.seg_accs.extend(ctx.acc_of.iter().map(|&i| {
                let c = &sc.cursors[i];
                SegAccess { byte: c.byte, dbyte: c.dbyte, write: ctx.ref_info[i].1 }
            }));
        }
        // Unrolled sweeps require the write stream to alias no read
        // stream (single-statement bodies only; other bodies, an empty one
        // among them, take the ordered element-major path regardless). At
        // outer step `k` a read overlaps the write when `a <= k*d <= b`;
        // over the rectangle `k*d` stays between 0 and `kmax*d`.
        if plan.stmts.len() != 1 {
            return Some(false);
        }
        let (wx, _) = ctx.ref_info[0];
        let (wlo, whi) = span(&sc.cursors[0], 0);
        let mut mixed = false;
        for (i, (&(x, _), c)) in ctx.ref_info.iter().zip(&sc.cursors).enumerate().skip(1) {
            if x != wx {
                continue;
            }
            let (rlo, rhi) = span(c, 0);
            let (a, b) = (rlo - whi, rhi - wlo);
            let s = kmax.saturating_mul(d2(0) - d2(i));
            let (s0, s1) = (s.min(0), s.max(0));
            if a <= s0 && s1 <= b {
                return Some(false);
            }
            mixed |= s1 >= a && s0 <= b;
        }
        (!mixed).then_some(true)
    }

    /// The test profile derives a bumped entry's streams, access vector and
    /// verdicts again the per-segment way, and compares.
    #[cfg(debug_assertions)]
    fn check_bumped_streams(&mut self, ctx: &WalkCtx, plan: &KernelPlan, seg: i64, unroll_safe: bool) {
        let taken = |sc: &Scratch| {
            let accs: Vec<_> = sc.seg_accs.iter().map(|a| (a.byte, a.dbyte, a.write)).collect();
            (sc.wr_streams.clone(), sc.rd_streams.clone(), accs)
        };
        let bumped = taken(&*self.scratch);
        let verdict = self.prove_streams(ctx, plan, seg, 0);
        assert_eq!(verdict, Some(unroll_safe), "bumped entry's bounds and aliasing verdicts");
        assert_eq!(taken(&*self.scratch), bumped, "bumped entry's kernel streams and access vector");
    }

    /// Set the cursors of the segment that starts at the current iteration
    /// point, returning the number of iterations they stay exact (>= 1) and
    /// where its kernel streams come from. `entry` is the trip count when
    /// the segment opens an innermost loop: such a segment is bumped from
    /// the [`CursorMemo`] when it lies in the memo's rectangle, and
    /// otherwise resolved and remembered. Segments after a strip boundary
    /// are always resolved. A bump is `base + k*delta` over the cursors,
    /// and, when the rectangle's kernel proof covers the entry's length,
    /// the same move of the streams and the access vector; no slice
    /// comparison, copy or probe (none may sit here: a slice `==` on
    /// `i64`s is a libc `bcmp` call, and this runs once per entry).
    ///
    /// Out of line on purpose: inlined, it changes how the compiler lays
    /// out the value sweeps that share `walk_innermost_strided` with it,
    /// and the long-segment cells pay several per cent for a call saved
    /// once per segment.
    #[inline(never)]
    fn setup_cursors(
        &mut self,
        ctx: &WalkCtx,
        proc: usize,
        ivec: &[i64],
        params: &[i64],
        level: usize,
        step: i64,
        entry: Option<i64>,
    ) -> (i64, Streams) {
        let why = match entry {
            None => Resolve::SplitSegment,
            Some(_) if level == 0 => Resolve::Depth1,
            Some(count) => {
                let m = &self.scratch.memo;
                let k = ivec[level - 1] - m.outer0;
                if !m.live {
                    Resolve::WalkStart
                } else if m.moved_out {
                    Resolve::PrefixChanged
                } else if m.inner != (ivec[level], step) {
                    Resolve::InnerRangeChanged
                } else if count > m.steps1 {
                    Resolve::SplitSegment
                } else if k <= 0 || k >= m.steps2 {
                    Resolve::OuterExhausted
                } else {
                    self.fast.cursor_bumps += 1;
                    let streams = self.bump(ctx, k, count);
                    // The test profile proves every bump it takes.
                    #[cfg(debug_assertions)]
                    {
                        let sc = &mut *self.scratch;
                        let bumped = std::mem::take(&mut sc.cursors);
                        let (steps1, _) = resolve_cursors(self.sp, ctx, proc, ivec, params, level, step, sc);
                        assert_eq!(sc.cursors, bumped, "bumped cursors, {k} outer steps from the resolved entry");
                        assert_eq!(steps1.min(count), count, "bumped segment length");
                    }
                    return (count, streams);
                }
            }
        };
        self.fast.resolves[why as usize] += 1;
        let opens = entry.is_some() && level > 0;
        let steps1 = self.resolve_entry(ctx, proc, ivec, params, level, step, opens);
        (steps1, if opens { Streams::OpensRect } else { Streams::Alone })
    }

    /// Move the cursors `k` outer steps from the memo's resolved entry and,
    /// when the rectangle's kernel proof is for `seg` iterations, the
    /// streams and the access vector with them. Part of `setup_cursors`,
    /// so that one function serves a bumped entry.
    #[inline(always)]
    fn bump(&mut self, ctx: &WalkCtx, k: i64, seg: i64) -> Streams {
        let sc = &mut *self.scratch;
        let m = &sc.memo;
        for ((c, b), &(dbyte, dslot)) in sc.cursors.iter_mut().zip(&m.base).zip(&m.delta) {
            *c = RefCursor {
                byte: (b.byte as i64 + k * dbyte) as u64,
                slot: (b.slot as i64 + k * dslot) as usize,
                ..*b
            };
        }
        match m.kernel {
            Some((proven, unroll_safe)) if proven == seg => {
                let cursors = &sc.cursors;
                for (s, &i) in sc.wr_streams.iter_mut().zip(&ctx.wr_of) {
                    s.slot = cursors[i].slot as i64;
                }
                for (s, &i) in sc.rd_streams.iter_mut().zip(&ctx.rd_of) {
                    s.slot = cursors[i].slot as i64;
                }
                for (a, &i) in sc.seg_accs.iter_mut().zip(&ctx.acc_of) {
                    a.byte = cursors[i].byte;
                }
                Streams::Bumped { unroll_safe }
            }
            _ => Streams::Alone,
        }
    }

    /// Resolve the segment's cursors from scratch; when it `opens` an
    /// innermost-loop entry, remember them as the memo's new rectangle.
    /// Returns the number of iterations they stay exact. Out of line, so
    /// that its copies stay out of `setup_cursors`, which serves the bumps.
    #[inline(never)]
    fn resolve_entry(
        &mut self,
        ctx: &WalkCtx,
        proc: usize,
        ivec: &[i64],
        params: &[i64],
        level: usize,
        step: i64,
        opens: bool,
    ) -> i64 {
        let sc = &mut *self.scratch;
        let (steps1, steps2) = resolve_cursors(self.sp, ctx, proc, ivec, params, level, step, sc);
        if opens {
            let m = &mut sc.memo;
            m.live = true;
            m.moved_out = false;
            m.inner = (ivec[level], step);
            m.outer0 = ivec[level - 1];
            (m.steps1, m.steps2) = (steps1, steps2);
            m.base.clone_from(&sc.cursors);
            std::mem::swap(&mut m.delta, &mut sc.delta);
            m.kernel = None;
        }
        steps1
    }

    /// Report a whole strided segment to the race detector: one interval
    /// per reference cursor. Exact, not an approximation — no sync can
    /// occur inside a segment and the simulator runs one processor at a
    /// time, so every element access in the segment carries the same
    /// `proc:epoch` and per-reference batching observes the same
    /// happens-before facts as the per-iteration general walk.
    fn race_segment(&mut self, ctx: &WalkCtx, proc: usize, seg: i64) {
        let Some(d) = self.race.as_deref_mut() else { return };
        for (c, &(x, is_write)) in self.scratch.cursors.iter().zip(&ctx.ref_info) {
            d.range_access(proc, x, c.slot, c.dslot, seg, is_write);
        }
    }

    fn exec_body(&mut self, nest: &SpmdNest, proc: usize, ivec: &[i64], params: &[i64]) -> u64 {
        let mut busy = 0u64;
        for (s, sc) in nest.source.body.iter().zip(&nest.stmt_costs) {
            let mut read_idx = 0;
            let (val, c) = self.eval(proc, &s.rhs, ivec, params, &sc.read_extras, &mut read_idx);
            busy += c + sc.flop_cycles;
            // Write.
            let x = s.lhs.array.0;
            let (addr, slot) = self.addr_of_ref(proc, x, &s.lhs.access, ivec, params);
            if let Some(d) = self.race.as_deref_mut() {
                d.access(proc, x, slot, true);
            }
            busy += self.access(proc, addr, true) + sc.write_extra;
            self.arenas[x][slot] = val;
        }
        busy
    }

    #[allow(clippy::only_used_in_recursion)]
    fn eval(
        &mut self,
        proc: usize,
        e: &Expr,
        ivec: &[i64],
        params: &[i64],
        read_extras: &[u64],
        read_idx: &mut usize,
    ) -> (f64, u64) {
        match e {
            Expr::Const(c) => (*c, 0),
            Expr::Index(l) => (ivec[*l] as f64, 0),
            Expr::Ref(r) => {
                let x = r.array.0;
                let (addr, slot) = self.addr_of_ref(proc, x, &r.access, ivec, params);
                if let Some(d) = self.race.as_deref_mut() {
                    d.access(proc, x, slot, false);
                }
                let extra = read_extras.get(*read_idx).copied().unwrap_or(0);
                *read_idx += 1;
                let c = self.access(proc, addr, false) + extra;
                (self.arenas[x][slot], c)
            }
            Expr::Bin(op, a, b) => {
                let (va, ca) = self.eval(proc, a, ivec, params, read_extras, read_idx);
                let (vb, cb) = self.eval(proc, b, ivec, params, read_extras, read_idx);
                let v = match op {
                    BinOp::Add => va + vb,
                    BinOp::Sub => va - vb,
                    BinOp::Mul => va * vb,
                    BinOp::Div => va / vb,
                };
                (v, ca + cb)
            }
        }
    }

    /// Byte address and arena slot of a reference at an iteration point,
    /// applying the per-processor replica stride when the array is
    /// replicated. Allocation-free (reuses executor scratch).
    fn addr_of_ref(
        &mut self,
        proc: usize,
        x: usize,
        access: &dct_ir::AffineAccess,
        ivec: &[i64],
        params: &[i64],
    ) -> (u64, usize) {
        let sc = &mut *self.scratch;
        access.eval_into(ivec, params, &mut sc.idx);
        let lay = &self.sp.layouts[x];
        let elem = lay.layout.address_of_buf(&sc.idx, &mut sc.lay);
        debug_assert!(
            elem >= 0 && elem < lay.layout.size(),
            "array {x} index {:?} out of bounds",
            sc.idx
        );
        let byte = self.sp.bases[x]
            + self.sp.repl_stride[x] * proc as u64
            + elem as u64 * self.sp.elem_bytes[x];
        (byte, elem as usize)
    }

    /// Pipeline-handoff acquire edge: the detector consumes the
    /// predecessor's released clocks for tile `r`.
    fn race_acquire(&mut self, proc: usize, r: usize, prev_rel: &[Vec<u64>]) {
        if let (Some(d), Some(snap)) = (self.race.as_deref_mut(), prev_rel.get(r)) {
            d.acquire(proc, snap);
        }
    }

    /// Release edge after a pipeline tile; returns the released clocks
    /// (empty when detection is off).
    fn race_release(&mut self, proc: usize) -> Vec<u64> {
        self.race.as_deref_mut().map_or_else(Vec::new, |d| d.release(proc))
    }
}

/// Resolve every reference of the nest body at the iteration point `ivec`
/// into `sc.cursors` (per statement: the write, then its reads), and into
/// `sc.delta` how each moves per step of the loop around `level`. Returns
/// the sides `(steps1, steps2)` of the rectangle on which all of them stay
/// exact: iterations of `level` at stride `step`, and values of the loop
/// around it (`i64::MAX` for a nest of one level).
fn resolve_cursors(
    sp: &SpmdProgram,
    ctx: &WalkCtx,
    proc: usize,
    ivec: &[i64],
    params: &[i64],
    level: usize,
    step: i64,
    sc: &mut Scratch,
) -> (i64, i64) {
    sc.cursors.clear();
    sc.delta.clear();
    let (mut steps1, mut steps2) = (i64::MAX, i64::MAX);
    for (s, reads) in ctx.nest.source.body.iter().zip(&ctx.reads) {
        for r in std::iter::once(&s.lhs).chain(reads.iter().copied()) {
            let x = r.array.0;
            r.access.eval_into(ivec, params, &mut sc.idx);
            sc.didx.clear();
            sc.didx2.clear();
            for d in 0..sc.idx.len() {
                let row = r.access.mat.row(d);
                sc.didx.push(row[level] * step);
                sc.didx2.push(if level > 0 { row[level - 1] } else { 0 });
            }
            let lay = &sp.layouts[x].layout;
            let p = lay.affine_probe(&sc.idx, &sc.didx, &sc.didx2, &mut sc.probe);
            debug_assert!(
                p.addr >= 0 && p.addr < lay.size(),
                "array {x} index {:?} out of bounds",
                sc.idx
            );
            steps1 = steps1.min(p.steps1);
            steps2 = steps2.min(p.steps2);
            let bytes = sp.elem_bytes[x] as i64;
            sc.cursors.push(RefCursor {
                byte: sp.bases[x] + sp.repl_stride[x] * proc as u64 + p.addr as u64 * sp.elem_bytes[x],
                slot: p.addr as usize,
                dbyte: p.s1 * bytes,
                dslot: p.s1,
            });
            sc.delta.push((p.s2 * bytes, p.s2));
        }
    }
    (steps1, steps2)
}

// The checksum-bits format lives in dct-ir so the native backend folds
// final values through the exact same function (see `dct_ir::checksum`).
use dct_ir::checksum_arenas;

/// Iteration subset of `[lo, hi]` owned by grid coordinate `q`: a concrete
/// enum iterator (no per-loop-entry allocation). Block and cyclic foldings
/// yield arithmetic progressions the strided executor can consume
/// directly; block-cyclic owners are scattered and fall back to a filter.
pub enum OwnedIter {
    /// Contiguous `next..=hi`.
    Range { next: i64, hi: i64 },
    /// `next, next+step, ...` up to `hi`.
    Stepped { next: i64, hi: i64, step: i64 },
    /// Membership-filtered scan (block-cyclic folding).
    Filtered { next: i64, hi: i64, off: i64, extent: i64, procs: i64, q: i64, folding: dct_decomp::Folding },
}

impl OwnedIter {
    /// `(start, step, count)` when the owned set is an arithmetic
    /// progression; `None` for block-cyclic foldings.
    pub fn progression(&self) -> Option<(i64, i64, i64)> {
        match *self {
            OwnedIter::Range { next, hi } => Some((next, 1, (hi - next + 1).max(0))),
            OwnedIter::Stepped { next, hi, step } => {
                let count = if next > hi { 0 } else { div_rem_floor(hi - next, step).0 + 1 };
                Some((next, step, count))
            }
            OwnedIter::Filtered { .. } => None,
        }
    }

    /// Upper bound of the values still to come.
    fn hi(&self) -> i64 {
        match *self {
            OwnedIter::Range { hi, .. } | OwnedIter::Stepped { hi, .. } | OwnedIter::Filtered { hi, .. } => hi,
        }
    }
}

impl Iterator for OwnedIter {
    type Item = i64;

    fn next(&mut self) -> Option<i64> {
        match self {
            OwnedIter::Range { next, hi } => {
                if *next > *hi {
                    return None;
                }
                let v = *next;
                *next += 1;
                Some(v)
            }
            OwnedIter::Stepped { next, hi, step } => {
                if *next > *hi {
                    return None;
                }
                let v = *next;
                *next += *step;
                Some(v)
            }
            OwnedIter::Filtered { next, hi, off, extent, procs, q, folding } => {
                while *next <= *hi {
                    let v = *next;
                    *next += 1;
                    if folding.owner(v + *off, *extent, *procs) == *q {
                        return Some(v);
                    }
                }
                None
            }
        }
    }
}

/// `(a.div_euclid(b), a.rem_euclid(b))` for `b > 0`, by shift and mask when
/// `b` is a power of two, as the processor counts of the paper's machine
/// are: ownership is worked out at every entry of a distributed loop, and
/// a 64-bit divide there costs as much as bumping every cursor.
#[inline]
fn div_rem_floor(a: i64, b: i64) -> (i64, i64) {
    debug_assert!(b > 0);
    if b & (b - 1) == 0 {
        (a >> b.trailing_zeros(), a & (b - 1))
    } else {
        (a.div_euclid(b), a.rem_euclid(b))
    }
}

/// Iterate the values `v` in `[lo, hi]` owned by grid coordinate `q`.
pub fn owned_iter(
    lo: i64,
    hi: i64,
    off: i64,
    extent: i64,
    procs: i64,
    q: i64,
    folding: dct_decomp::Folding,
) -> OwnedIter {
    use dct_decomp::Folding;
    if procs <= 1 {
        return OwnedIter::Range { next: lo, hi };
    }
    match folding {
        Folding::Block => {
            let b = div_rem_floor(extent + procs - 1, procs).0;
            let start = (q * b - off).max(lo);
            let end = ((q + 1) * b - 1 - off).min(hi);
            OwnedIter::Range { next: start, hi: end }
        }
        Folding::Cyclic => {
            // First v >= lo with (v + off) mod procs == q.
            let r = div_rem_floor(q - lo - off, procs).1;
            let start = lo + r;
            OwnedIter::Stepped { next: start, hi, step: procs }
        }
        Folding::BlockCyclic { .. } => {
            OwnedIter::Filtered { next: lo, hi, off, extent, procs, q, folding }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dct_decomp::Folding;

    #[test]
    fn owned_iter_block() {
        // extent 16, 4 procs: blocks of 4.
        let v: Vec<i64> = owned_iter(0, 15, 0, 16, 4, 1, Folding::Block).collect();
        assert_eq!(v, vec![4, 5, 6, 7]);
        // Clamped by loop bounds.
        let v: Vec<i64> = owned_iter(5, 9, 0, 16, 4, 1, Folding::Block).collect();
        assert_eq!(v, vec![5, 6, 7]);
        // Offset shifts ownership.
        let v: Vec<i64> = owned_iter(0, 15, 4, 16, 4, 1, Folding::Block).collect();
        assert_eq!(v, vec![0, 1, 2, 3]);
    }

    #[test]
    fn owned_iter_cyclic() {
        let v: Vec<i64> = owned_iter(0, 10, 0, 16, 4, 1, Folding::Cyclic).collect();
        assert_eq!(v, vec![1, 5, 9]);
        let v: Vec<i64> = owned_iter(3, 10, 0, 16, 4, 1, Folding::Cyclic).collect();
        assert_eq!(v, vec![5, 9]);
    }

    #[test]
    fn owned_iter_block_cyclic() {
        let f = Folding::BlockCyclic { block: 2 };
        let v: Vec<i64> = owned_iter(0, 11, 0, 12, 3, 0, f).collect();
        assert_eq!(v, vec![0, 1, 6, 7]);
    }

    #[test]
    fn owned_iter_partition() {
        // Every folding partitions [lo,hi] exactly across q values.
        for folding in [Folding::Block, Folding::Cyclic, Folding::BlockCyclic { block: 3 }] {
            for procs in [1i64, 2, 3, 5] {
                let mut all: Vec<i64> = Vec::new();
                for q in 0..procs {
                    all.extend(owned_iter(2, 20, 1, 24, procs, q, folding));
                }
                all.sort();
                assert_eq!(all, (2..=20).collect::<Vec<i64>>(), "{folding:?} procs={procs}");
            }
        }
    }

    #[test]
    fn owned_iter_single_proc() {
        let v: Vec<i64> = owned_iter(3, 7, 0, 100, 1, 0, Folding::Cyclic).collect();
        assert_eq!(v, vec![3, 4, 5, 6, 7]);
    }

    #[test]
    fn progression_matches_iteration() {
        // For block and cyclic foldings, the progression must enumerate
        // exactly the iterator's values.
        for folding in [Folding::Block, Folding::Cyclic] {
            for procs in [1i64, 2, 3, 5] {
                for q in 0..procs {
                    let vals: Vec<i64> = owned_iter(2, 20, 1, 24, procs, q, folding).collect();
                    let (start, step, count) =
                        owned_iter(2, 20, 1, 24, procs, q, folding).progression().unwrap();
                    let gen: Vec<i64> = (0..count).map(|t| start + t * step).collect();
                    assert_eq!(vals, gen, "{folding:?} procs={procs} q={q}");
                }
            }
        }
        // Block-cyclic has no progression.
        assert!(owned_iter(0, 11, 0, 12, 3, 0, Folding::BlockCyclic { block: 2 })
            .progression()
            .is_none());
    }
}
