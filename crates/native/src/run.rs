//! The native threaded executor: one OS thread per simulated processor,
//! running the certified SPMD schedule over shared `f64` arenas.
//!
//! ## Bit-identity argument
//!
//! The simulator executes processors' lanes sequentially; this backend
//! executes them concurrently. The final arena contents are nevertheless
//! bit-identical because
//!
//! 1. every worker walks exactly the iteration subset the simulator's
//!    lane walks (same `owned_iter`; steps, gates, chains and tiles come
//!    from the one shared [`dct_spmd::Schedule`] the simulator reads), and
//!    evaluates statement bodies with the same recursive f64 operation
//!    order — so each individual write stores the identical bits;
//! 2. the certified schedule is race-free between sync points (the
//!    happens-before detector proves it; the fuzz oracle asserts it for
//!    every generated program), so no two workers touch the same slot
//!    within a sync-free window and concurrent execution cannot reorder
//!    conflicting writes;
//! 3. every `SyncKind` edge becomes a real happens-before edge here —
//!    `Barrier` a rendezvous on the abortable barrier, `ProducerWait` an
//!    all-to-leader-to-all channel handoff, pipeline tiles per-pair token
//!    channels — so writes before an edge are visible after it (arena
//!    loads/stores themselves are `Relaxed`; the sync edges carry all
//!    ordering);
//! 4. the one schedule-level exception, replicated-write init nests (all
//!    processors sweep the *same* shared slots), is executed leader-only:
//!    thread 0 runs every processor's pass in ascending order, which is
//!    precisely the simulator's sequential semantics.
//!
//! ## Supervision
//!
//! Worker panics (e.g. injected by the chaos harness through
//! [`NativeOptions::worker_hook`]) are caught per worker; the dying
//! worker tears down the barrier and every peer unwinds with a structured
//! `DctError` instead of deadlocking. Cooperative cancellation reaches a
//! uniform verdict at sync points: the barrier leader (or the handoff
//! leader) reads the token once and publishes the decision, so either all
//! workers stop at a boundary or none do.

use crate::barrier::{AbortableBarrier, WaitOutcome};
use dct_ir::{
    checksum_arenas, panic_message, ArrayRef, BinOp, CancelToken, ChecksumAcc, DctError,
    DctResult, Expr, Phase,
};
use dct_spmd::{
    owned_iter, schedule, LevelSched, PipelinePlan, Schedule, SpmdNest, SpmdProgram, Step, Steps,
    SyncKind,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Control-channel messages: pipeline tile tokens and handoff arrivals
/// are `CONT`; the handoff leader broadcasts `STOP` on cancellation.
const CONT: u8 = 0;
const STOP: u8 = 1;

/// Options of one native execution.
#[derive(Clone, Default)]
pub struct NativeOptions {
    /// Cooperative cancellation, polled by the sync-point leader so every
    /// worker reaches the same stop/continue verdict (the PR 6 watchdog
    /// machinery drives this token).
    pub cancel: Option<CancelToken>,
    /// Scheduling-stress seed: randomized per-worker spawn delays plus
    /// yield/sleep injection at sync points. Results must be (and are)
    /// bit-identical for every seed — the stress tests repeat runs under
    /// fresh seeds and compare checksums.
    pub jitter: Option<u64>,
    /// Chaos hook, called once per worker at startup with the processor
    /// id. May panic (the run fails with a structured error, no
    /// deadlock) or sleep (the run stalls until the watchdog cancels).
    /// Lives here so the fault closures stay in the bench crate and this
    /// crate keeps its zero-panic gate.
    pub worker_hook: Option<Arc<dyn Fn(usize) + Send + Sync>>,
}

/// Result of one native execution.
#[derive(Clone, Debug)]
pub struct NativeRun {
    /// Whole-program checksum over the final arenas, in the repository's
    /// checksum-bits format — bit-comparable with the simulator's
    /// `RunResult::checksum` for the same compiled configuration.
    pub checksum: f64,
    /// Per-worker checksum over the values that worker wrote, in its
    /// program order (diagnostic fingerprint; deterministic per config).
    pub thread_checksums: Vec<f64>,
    /// Barrier sync points executed (matches the simulator's count when
    /// the run completes).
    pub barriers: u64,
    /// Producer-wait handoffs executed.
    pub handoffs: u64,
    /// The run stopped at a sync point on its cancellation token; arenas
    /// and checksums are partial.
    pub cancelled: bool,
    /// Host wall-clock of the threaded execution.
    pub wall_secs: f64,
    pub nprocs: usize,
}

/// Cache-line padding of one shared arena.
///
/// The layout linearizes first-dim-fastest, so the slowest (last) final
/// dimension — the processor dimension after a data decomposition —
/// splits the arena into contiguous chunks, one per value of that
/// dimension. Backing chunks at their logical length lets two
/// processors' extents share a 64-byte line at every chunk boundary:
/// real false sharing on real hardware (the effect Section 4 of the
/// paper transforms data to avoid). Physically rounding each chunk up
/// to a whole number of lines (8 f64) gives every chunk its own lines.
///
/// Logical addresses (the layout's) are unchanged; only the physical
/// slot mapping differs, and the padding slots are never read — so
/// checksums and values stay bit-identical to the unpadded backend and
/// the simulator, which the padding differential test pins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArenaPad {
    /// Logical slots per slowest-dim chunk.
    pub chunk: usize,
    /// Physical slots per chunk (`chunk` rounded up to 8 f64 = 64B).
    pub padded: usize,
    /// Chunk count (the slowest final dimension's extent).
    pub chunks: usize,
}

impl ArenaPad {
    /// f64 elements per cache line (64-byte lines).
    pub const LINE_F64: usize = 8;

    /// Padding of one array layout. Degenerate shapes (empty arrays,
    /// single-chunk arenas — nothing to false-share with) stay unpadded.
    pub fn of_layout(size: usize, final_dims: &[i64]) -> ArenaPad {
        let last = final_dims.last().copied().unwrap_or(0).max(0) as usize;
        if last <= 1 || size == 0 || size % last != 0 {
            return ArenaPad { chunk: size, padded: size, chunks: 1 };
        }
        let chunk = size / last;
        let padded = chunk.div_ceil(Self::LINE_F64) * Self::LINE_F64;
        ArenaPad { chunk, padded, chunks: last }
    }

    /// Physical arena length, padding included.
    pub fn physical_size(&self) -> usize {
        self.padded * self.chunks
    }

    /// Logical arena length (the layout's `size()`).
    pub fn logical_size(&self) -> usize {
        self.chunk * self.chunks
    }

    /// Did padding actually engage for this array?
    pub fn is_padded(&self) -> bool {
        self.padded != self.chunk
    }

    /// Physical slot of a logical address.
    #[inline]
    pub fn slot(&self, logical: usize) -> usize {
        if self.padded == self.chunk {
            logical
        } else {
            logical / self.chunk * self.padded + logical % self.chunk
        }
    }
}

/// The padding the native backend will use for each of `sp`'s arrays —
/// introspection for the differential tests (which assert both that
/// padding engages and that results stay bit-identical).
///
/// Only distributed, restructured arrays are padded: those are exactly
/// the ones whose slowest final dimension is a processor-grid dimension,
/// so a chunk is one processor's owned extent. Shared and replicated
/// arrays keep their exact layout (their slowest dim is a data
/// dimension; "padding" it would be per-element memory blowup, not
/// false-sharing avoidance).
pub fn arena_padding(sp: &SpmdProgram) -> Vec<ArenaPad> {
    sp.layouts
        .iter()
        .map(|l| {
            let size = l.layout.size().max(0) as usize;
            if l.dist_info.is_empty() || !l.transformed {
                ArenaPad { chunk: size, padded: size, chunks: 1 }
            } else {
                ArenaPad::of_layout(size, l.layout.final_dims())
            }
        })
        .collect()
}

/// Why a worker left the main loop early.
enum Halt {
    /// Uniform stop verdict at a sync point.
    Cancelled,
    /// A peer died; the barrier was torn down.
    Abort,
}

enum WorkerOut {
    Done { checksum: f64, cancelled: bool },
    Failed,
}

struct Shared<'a> {
    sp: &'a SpmdProgram,
    /// The lowered schedule, shared with the simulator and the C emitter.
    sched: Schedule<'a>,
    /// Arena element bits (`f64::to_bits`), cache-line padded per
    /// [`ArenaPad`]. `Relaxed` everywhere: the schedule is race-free and
    /// the sync edges carry all ordering.
    arenas: Vec<Vec<AtomicU64>>,
    /// Physical slot mapping of each arena (logical addresses from the
    /// layout pass through here before touching `arenas`).
    pads: Vec<ArenaPad>,
    barrier: AbortableBarrier,
    /// Published stop verdict (sticky; written by sync-point leaders).
    stop: AtomicBool,
    /// A worker died; peers polling channels bail out.
    aborted: AtomicBool,
    abort_msg: Mutex<Option<String>>,
    barriers: AtomicU64,
    handoffs: AtomicU64,
    cancel: Option<CancelToken>,
}

impl Shared<'_> {
    fn fail(&self, msg: String) {
        let mut g = self.abort_msg.lock().unwrap_or_else(|e| e.into_inner());
        g.get_or_insert(msg);
        drop(g);
        self.aborted.store(true, Ordering::SeqCst);
        self.barrier.abort();
    }

    fn cancel_requested(&self) -> bool {
        self.cancel.as_ref().is_some_and(|t| t.is_cancelled())
    }
}

/// splitmix64 — tiny, seedable, good enough for scheduling jitter.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// Reusable per-worker buffers for allocation-free address computation.
#[derive(Default)]
struct Scratch {
    idx: Vec<i64>,
    lay: Vec<i64>,
    ivec: Vec<i64>,
}

struct Worker<'a> {
    sh: &'a Shared<'a>,
    p: usize,
    /// `txs[q]` sends to worker `q`; `rxs[q]` receives from worker `q`.
    /// Per-pair FIFO channels carry pipeline tile tokens and handoff
    /// control without interference (tokens of a nest fully precede the
    /// nest's trailing handoff messages on any given pair).
    txs: Vec<Sender<u8>>,
    rxs: Vec<Receiver<u8>>,
    acc: ChecksumAcc,
    rng: Option<Rng>,
    scratch: Scratch,
}

impl Worker<'_> {
    fn spawn_jitter(&mut self) {
        if let Some(r) = self.rng.as_mut() {
            let us = r.below(150);
            if us > 0 {
                std::thread::sleep(Duration::from_micros(us));
            }
        }
    }

    /// Scheduling perturbation at sync points: results must be identical
    /// whether or not this runs (the stress tests pin that).
    fn maybe_yield(&mut self) {
        if let Some(r) = self.rng.as_mut() {
            match r.below(3) {
                0 => std::thread::yield_now(),
                1 => {
                    let us = r.below(40);
                    std::thread::sleep(Duration::from_micros(us));
                }
                _ => {}
            }
        }
    }

    /// Receive one control byte from worker `from`, bailing out if a
    /// peer died (timeout polling keeps a dead pipeline from deadlocking
    /// the pool).
    fn recv_ctl(&mut self, from: usize) -> Result<u8, Halt> {
        loop {
            if self.sh.aborted.load(Ordering::SeqCst) {
                return Err(Halt::Abort);
            }
            match self.rxs[from].recv_timeout(Duration::from_millis(20)) {
                Ok(v) => return Ok(v),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return Err(Halt::Abort),
            }
        }
    }

    /// Whole program, this worker's lane.
    fn run(&mut self) -> Result<(), Halt> {
        let mut steps = Steps::new(self.sh.sp);
        while let Some((step, params)) = steps.next() {
            self.run_step(step, params)?;
            self.sync(step.sync)?;
        }
        Ok(())
    }

    fn run_step(&mut self, step: Step, params: &[i64]) -> Result<(), Halt> {
        let nest = step.nest;
        let sched = &self.sh.sched;
        if nest.replicated_write {
            // Every processor's pass sweeps the same shared slots, so the
            // leader runs all passes in ascending order — the simulator's
            // sequential semantics, reproduced exactly (the nest is
            // barrier-bounded).
            if self.p == 0 {
                for q in sched.participants(nest, params) {
                    self.walk_nest(nest, q, params, None);
                }
            }
            Ok(())
        } else if let Some(plan) = sched.pipeline_plan(nest, params) {
            self.run_pipelined(nest, &plan, params)
        } else {
            if sched.participates(self.p, nest, params) {
                self.walk_nest(nest, self.p, params, None);
            }
            Ok(())
        }
    }

    /// Doacross pipeline: chain members advance tile-by-tile behind their
    /// predecessor through the per-pair token channels. Every worker
    /// derives the identical plan (a pure function of the program and
    /// params), so the token protocol needs no setup.
    fn run_pipelined(
        &mut self,
        nest: &SpmdNest,
        plan: &PipelinePlan,
        params: &[i64],
    ) -> Result<(), Halt> {
        let Some((chain, pos)) = plan
            .chains
            .iter()
            .find_map(|c| c.iter().position(|&q| q == self.p).map(|pos| (c, pos)))
        else {
            return Ok(());
        };
        let pred = if pos > 0 { Some(chain[pos - 1]) } else { None };
        let succ = chain.get(pos + 1).copied();
        for &(rlo, rhi) in &plan.tiles {
            if let Some(q) = pred {
                // The predecessor's token for this tile is the certified
                // handoff edge: its writes up to the tile happen-before
                // this member's tile.
                self.recv_ctl(q)?;
                self.maybe_yield();
            }
            self.walk_nest(nest, self.p, params, Some((plan.tile_level, rlo, rhi)));
            if let Some(q) = succ {
                let _ = self.txs[q].send(CONT);
            }
        }
        Ok(())
    }

    fn sync(&mut self, sync: SyncKind) -> Result<(), Halt> {
        match sync {
            SyncKind::Barrier => self.barrier_point(),
            SyncKind::ProducerWait => self.handoff_point(),
            SyncKind::None => Ok(()),
        }
    }

    /// Barrier sync with cancellation consensus: wait #1 gathers all
    /// workers, the elected leader reads the token once and publishes the
    /// verdict, wait #2 makes it visible to everyone — so all workers
    /// stop at the same boundary or none do.
    fn barrier_point(&mut self) -> Result<(), Halt> {
        self.maybe_yield();
        match self.sh.barrier.wait() {
            Ok(WaitOutcome::Leader) => {
                self.sh.barriers.fetch_add(1, Ordering::Relaxed);
                if self.sh.cancel_requested() {
                    self.sh.stop.store(true, Ordering::SeqCst);
                }
            }
            Ok(WaitOutcome::Follower) => {}
            Err(_) => return Err(Halt::Abort),
        }
        if self.sh.barrier.wait().is_err() {
            return Err(Halt::Abort);
        }
        if self.sh.stop.load(Ordering::SeqCst) {
            return Err(Halt::Cancelled);
        }
        Ok(())
    }

    /// Producer-wait handoff: all-to-leader-to-all over the control
    /// channels. Same barrier-strength happens-before edge the
    /// simulator's clock join models, at lock-handoff cost; worker 0 is
    /// the consensus leader.
    fn handoff_point(&mut self) -> Result<(), Halt> {
        self.maybe_yield();
        let n = self.sh.sp.nprocs;
        if n <= 1 {
            self.sh.handoffs.fetch_add(1, Ordering::Relaxed);
            if self.sh.cancel_requested() {
                return Err(Halt::Cancelled);
            }
            return Ok(());
        }
        if self.p == 0 {
            for q in 1..n {
                self.recv_ctl(q)?;
            }
            self.sh.handoffs.fetch_add(1, Ordering::Relaxed);
            let stop = self.sh.cancel_requested();
            if stop {
                self.sh.stop.store(true, Ordering::SeqCst);
            }
            let msg = if stop { STOP } else { CONT };
            for q in 1..n {
                let _ = self.txs[q].send(msg);
            }
            if stop {
                Err(Halt::Cancelled)
            } else {
                Ok(())
            }
        } else {
            let _ = self.txs[0].send(CONT);
            if self.recv_ctl(0)? == STOP {
                Err(Halt::Cancelled)
            } else {
                Ok(())
            }
        }
    }

    // ---- the walk: the simulator's general walk, values only ----

    fn walk_nest(
        &mut self,
        nest: &SpmdNest,
        proc: usize,
        params: &[i64],
        tile: Option<(usize, i64, i64)>,
    ) {
        let mut ivec = std::mem::take(&mut self.scratch.ivec);
        ivec.clear();
        ivec.resize(nest.source.depth, 0);
        self.walk(nest, proc, 0, &mut ivec, params, tile);
        self.scratch.ivec = ivec;
    }

    fn walk(
        &mut self,
        nest: &SpmdNest,
        proc: usize,
        level: usize,
        ivec: &mut Vec<i64>,
        params: &[i64],
        tile: Option<(usize, i64, i64)>,
    ) {
        if level == nest.source.depth {
            self.exec_body(nest, ivec, params);
            return;
        }
        let mut lo = nest.source.bounds[level].eval_lo(ivec, params);
        let mut hi = nest.source.bounds[level].eval_hi(ivec, params);
        if let Some((tl, rlo, rhi)) = tile {
            if tl == level {
                lo = lo.max(rlo);
                hi = hi.min(rhi);
            }
        }
        match &nest.sched[level] {
            LevelSched::Seq => {
                for v in lo..=hi {
                    ivec[level] = v;
                    self.walk(nest, proc, level + 1, ivec, params, tile);
                }
            }
            LevelSched::Dist { proc_dim, folding, extent, offset } => {
                let q = self.sh.sched.coords()[proc].get(*proc_dim).copied().unwrap_or(0) as i64;
                let procs = self.sh.sp.grid.get(*proc_dim).copied().unwrap_or(1) as i64;
                let off = offset.eval(&[], params);
                for v in owned_iter(lo, hi, off, *extent, procs, q, *folding) {
                    ivec[level] = v;
                    self.walk(nest, proc, level + 1, ivec, params, tile);
                }
            }
        }
        ivec[level] = 0;
    }

    fn exec_body(&mut self, nest: &SpmdNest, ivec: &[i64], params: &[i64]) {
        for s in &nest.source.body {
            // Evaluate the rhs before resolving the write, like the
            // simulator (matters when a statement reads its own target).
            let v = self.eval(&s.rhs, ivec, params);
            let x = s.lhs.array.0;
            let slot = self.slot_of(&s.lhs, ivec, params);
            self.sh.arenas[x][self.sh.pads[x].slot(slot)].store(v.to_bits(), Ordering::Relaxed);
            self.acc.push(v);
        }
    }

    /// Recursive f64 evaluation in the simulator's exact operation order.
    fn eval(&mut self, e: &Expr, ivec: &[i64], params: &[i64]) -> f64 {
        match e {
            Expr::Const(c) => *c,
            Expr::Index(l) => ivec[*l] as f64,
            Expr::Ref(r) => {
                let x = r.array.0;
                let slot = self.slot_of(r, ivec, params);
                f64::from_bits(
                    self.sh.arenas[x][self.sh.pads[x].slot(slot)].load(Ordering::Relaxed),
                )
            }
            Expr::Bin(op, a, b) => {
                let va = self.eval(a, ivec, params);
                let vb = self.eval(b, ivec, params);
                match op {
                    BinOp::Add => va + vb,
                    BinOp::Sub => va - vb,
                    BinOp::Mul => va * vb,
                    BinOp::Div => va / vb,
                }
            }
        }
    }

    /// Logical arena slot of a reference at an iteration point (callers
    /// map it through [`ArenaPad::slot`]). Slots ignore the replica
    /// stride: replicated arrays natively share one arena, and their
    /// leader-only writes reproduce the simulator's slot contents.
    fn slot_of(&mut self, r: &ArrayRef, ivec: &[i64], params: &[i64]) -> usize {
        let sc = &mut self.scratch;
        r.access.eval_into(ivec, params, &mut sc.idx);
        let lay = &self.sh.sp.layouts[r.array.0];
        lay.layout.address_of_buf(&sc.idx, &mut sc.lay) as usize
    }
}

/// Execute the compiled program natively.
pub fn execute(sp: &SpmdProgram, opts: &NativeOptions) -> DctResult<NativeRun> {
    execute_inner(sp, opts).map(|(run, _)| run)
}

/// Execute and also return the final contents of every array in original
/// index order (bit-comparable with `simulate_with_values`).
pub fn execute_with_values(
    sp: &SpmdProgram,
    opts: &NativeOptions,
) -> DctResult<(NativeRun, Vec<Vec<f64>>)> {
    let (run, arenas) = execute_inner(sp, opts)?;
    let vals = (0..sp.layouts.len()).map(|x| schedule::read_out(sp, x, &arenas[x])).collect();
    Ok((run, vals))
}

fn execute_inner(
    sp: &SpmdProgram,
    opts: &NativeOptions,
) -> DctResult<(NativeRun, Vec<Vec<f64>>)> {
    let n = sp.nprocs.max(1);
    let pads = arena_padding(sp);
    let shared = Shared {
        sp,
        sched: Schedule::new(sp),
        arenas: pads
            .iter()
            .map(|pad| (0..pad.physical_size()).map(|_| AtomicU64::new(0)).collect())
            .collect(),
        pads,
        barrier: AbortableBarrier::new(n),
        stop: AtomicBool::new(false),
        aborted: AtomicBool::new(false),
        abort_msg: Mutex::new(None),
        barriers: AtomicU64::new(0),
        handoffs: AtomicU64::new(0),
        cancel: opts.cancel.clone(),
    };

    // Per-pair FIFO control channels: rows_tx[p][q] sends p -> q,
    // rows_rx[p][q] receives at p from q.
    let mut rows_tx: Vec<Vec<Sender<u8>>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
    let mut rows_rx: Vec<Vec<Receiver<u8>>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
    for p in 0..n {
        for q in 0..n {
            let (tx, rx) = std::sync::mpsc::channel();
            rows_tx[p].push(tx);
            rows_rx[q].push(rx);
        }
    }
    let started = std::time::Instant::now();
    let shared_ref = &shared;
    let outs: Vec<WorkerOut> = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(n);
        for (p, (txs, rxs)) in rows_tx.drain(..).zip(rows_rx.drain(..)).enumerate() {
            let hook = opts.worker_hook.clone();
            let rng = opts.jitter.map(|seed| {
                let mut r = Rng::new(seed ^ (p as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
                r.next_u64();
                r
            });
            handles.push(s.spawn(move || {
                let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut w = Worker {
                        sh: shared_ref,
                        p,
                        txs,
                        rxs,
                        acc: ChecksumAcc::new(),
                        rng,
                        scratch: Scratch::default(),
                    };
                    w.spawn_jitter();
                    if let Some(h) = &hook {
                        h(p);
                    }
                    let r = w.run();
                    (r, w.acc.finish())
                }));
                match res {
                    Ok((Ok(()), cs)) => WorkerOut::Done { checksum: cs, cancelled: false },
                    Ok((Err(Halt::Cancelled), cs)) => {
                        WorkerOut::Done { checksum: cs, cancelled: true }
                    }
                    Ok((Err(Halt::Abort), _)) => WorkerOut::Failed,
                    Err(payload) => {
                        shared_ref.fail(panic_message(payload.as_ref()));
                        WorkerOut::Failed
                    }
                }
            }));
        }
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(out) => out,
                Err(payload) => {
                    shared_ref.fail(panic_message(payload.as_ref()));
                    WorkerOut::Failed
                }
            })
            .collect()
    });
    let wall_secs = started.elapsed().as_secs_f64();

    let failed = outs.iter().any(|o| matches!(o, WorkerOut::Failed));
    if failed || shared.aborted.load(Ordering::SeqCst) {
        let msg = shared
            .abort_msg
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .unwrap_or_else(|| "native worker aborted".to_string());
        return Err(DctError::internal(Phase::Native, msg));
    }
    let cancelled = outs
        .iter()
        .any(|o| matches!(o, WorkerOut::Done { cancelled: true, .. }));
    let thread_checksums = outs
        .iter()
        .map(|o| match o {
            WorkerOut::Done { checksum, .. } => *checksum,
            WorkerOut::Failed => 0.0,
        })
        .collect();
    // De-pad before anything downstream sees the arenas: the checksum
    // and the value extraction walk logical addresses only, so padded
    // and unpadded backends produce identical bits.
    let arenas: Vec<Vec<f64>> = shared
        .arenas
        .iter()
        .zip(&shared.pads)
        .map(|(a, pad)| {
            (0..pad.logical_size())
                .map(|s| f64::from_bits(a[pad.slot(s)].load(Ordering::Relaxed)))
                .collect()
        })
        .collect();
    let run = NativeRun {
        checksum: checksum_arenas(&arenas),
        thread_checksums,
        barriers: shared.barriers.load(Ordering::Relaxed),
        handoffs: shared.handoffs.load(Ordering::Relaxed),
        cancelled,
        wall_secs,
        nprocs: n,
    };
    Ok((run, arenas))
}

/// Lower and natively execute one configuration: the same certified
/// schedule `simulate` runs (via [`dct_spmd::lower`]).
pub fn run_native(
    prog: &dct_ir::Program,
    dec: &dct_decomp::Decomposition,
    sim: &dct_spmd::SimOptions,
    opts: &NativeOptions,
) -> DctResult<NativeRun> {
    let sp = dct_spmd::lower(prog, dec, sim)?;
    execute(&sp, opts)
}

/// [`run_native`], also returning final array values in original index
/// order.
pub fn run_native_with_values(
    prog: &dct_ir::Program,
    dec: &dct_decomp::Decomposition,
    sim: &dct_spmd::SimOptions,
    opts: &NativeOptions,
) -> DctResult<(NativeRun, Vec<Vec<f64>>)> {
    let sp = dct_spmd::lower(prog, dec, sim)?;
    execute_with_values(&sp, opts)
}
