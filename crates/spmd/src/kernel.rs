//! Fused segment kernels for the strided fast path.
//!
//! The interpreter's hot loop (`exec_body_fast`) pays per element for
//! work that is constant across a whole strided segment: postfix
//! dispatch, a fresh operand stack per statement, bounds-checked arena
//! indexing, and one full machine probe per reference. This module
//! compiles a nest's flattened postfix body once (memoized in
//! [`crate::exec::WalkCtx`]) into a [`KernelPlan`]: each statement is
//! classified into one of the closed-form shapes the paper's seven
//! benchmarks actually use — copy, scale, axpy, 2-ref mul-add, k-ary
//! sum/stencil reduction — or, failing that, into a resolved tape that
//! still strips the per-element constant work. The executor then runs a
//! *whole segment* per kernel call: machine accounting goes through one
//! [`dct_machine::Machine::access_seg`] call and values through tight
//! raw-pointer sweeps over arena slices.
//!
//! ## Bit-identity argument
//!
//! Values: every kernel evaluates, per element, exactly the expression
//! dag the interpreter evaluates, with the same association and operand
//! order — no reassociation, ever (IEEE addition is not associative;
//! SNIPPETS.md Snippet 3 warns exactly about this). The "k >= 4
//! independent accumulators" of the roadmap item are realized as
//! unrolling across *independent output elements* ([`sweep`]'s 4-wide
//! groups), which touches no intra-element chain. Cross-element and
//! cross-statement dependences (`a(i) = f(a(i-1))` scans, adi's
//! two-statement coupled sweeps) are handled by the element-major
//! ordered path, which is a verbatim re-rolling of the interpreter's
//! loop structure minus its constant overhead. Timing: the access
//! vector handed to `access_seg` lists, per statement, the reads in
//! postfix order then the write — the interpreter's exact access order —
//! and `access_seg` is pinned bit-identical to the one-by-one walk by
//! the machine crate's own tests. Anything outside the supported
//! envelope (too many references, short segments, out-of-bounds sweeps)
//! returns to the interpreter path untouched.

use crate::codegen::SpmdNest;
use crate::exec::{BodyOp, MAX_EVAL_STACK};
use dct_ir::BinOp;

/// Segments shorter than this run the interpreter: the per-segment setup
/// (stream resolution, bounds checks) would not amortize.
pub(crate) const MIN_KERNEL_SEG: i64 = 4;

/// Most statement references (write + reads, whole body) a plan accepts;
/// wider bodies fall back to the interpreter.
pub(crate) const MAX_KERNEL_ACCS: usize = 24;

/// Kernel shape of a nest, for the telemetry histogram. Multi-statement
/// bodies count as `Fused` regardless of their per-statement shapes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    Copy = 0,
    Scale = 1,
    Axpy = 2,
    MulAdd = 3,
    SumK = 4,
    Fused = 5,
}

/// Histogram labels, indexed by `Shape as usize`.
pub const SHAPE_NAMES: [&str; 6] = ["copy", "scale", "axpy", "muladd", "sumk", "fused"];

/// One op of a resolved postfix tape (the generic fallback kernel):
/// [`BodyOp`] minus the per-read cost extras, which live entirely on the
/// timing side of the split.
#[derive(Clone, Copy)]
pub(crate) enum TapeOp {
    Const(f64),
    /// Loop index of a nest level as f64; only the innermost level
    /// varies within a segment.
    Index(usize),
    /// Next read stream's element.
    Read,
    Bin(BinOp),
}

/// The scalar kernel of one statement: closed-form shapes evaluated
/// directly, everything else through the resolved tape.
pub(crate) enum StmtKernel {
    /// `lhs = r0`
    Copy,
    /// `lhs = c op r0` (`c_left`) or `lhs = r0 op c`
    Scale { op: BinOp, c: f64, c_left: bool },
    /// `lhs = (c*r0) op r1` (`mul_first`) or `lhs = r0 op (c*r1)`;
    /// `c_left` preserves the constant's operand side in the multiply.
    Axpy { op: BinOp, c: f64, c_left: bool, mul_first: bool },
    /// `lhs = r0 op (r1 * r2)` — the LU/tomcatv update.
    MulAdd { op: BinOp },
    /// `lhs = (((r0 op r1) op r2) ...) [op_scale c]` — stencil sums.
    SumK { ops: Vec<BinOp>, scale: Option<(BinOp, f64)> },
    /// Resolved postfix tape.
    Tape { ops: Vec<TapeOp> },
}

pub(crate) struct StmtPlan {
    pub(crate) kernel: StmtKernel,
    pub(crate) nreads: usize,
}

/// Per-nest kernel plan, built once in `WalkCtx::new`.
pub(crate) struct KernelPlan {
    pub(crate) stmts: Vec<StmtPlan>,
    /// Busy cycles per element besides `loop_iter` and memory accesses:
    /// flop cycles, write extras, and the per-read cost extras.
    pub(crate) extra_cycles: u64,
    pub(crate) shape: Shape,
}

/// Classify a nest body; `None` = the nest always takes the interpreter
/// (empty body or more than [`MAX_KERNEL_ACCS`] references).
pub(crate) fn build_plan(nest: &SpmdNest, ops: &[Vec<BodyOp>]) -> Option<KernelPlan> {
    if nest.source.body.is_empty() {
        return None;
    }
    let mut cursors = 0usize;
    let mut extra = 0u64;
    let mut stmts = Vec::with_capacity(ops.len());
    for (sc, sops) in nest.stmt_costs.iter().zip(ops) {
        let mut nreads = 0usize;
        for o in sops {
            if let BodyOp::Read { extra: e, .. } = o {
                nreads += 1;
                extra += e;
            }
        }
        cursors += 1 + nreads;
        extra += sc.flop_cycles + sc.write_extra;
        stmts.push(StmtPlan { kernel: classify_stmt(sops), nreads });
    }
    if cursors > MAX_KERNEL_ACCS {
        return None;
    }
    let shape = if stmts.len() == 1 { shape_of(&stmts[0].kernel) } else { Shape::Fused };
    Some(KernelPlan { stmts, extra_cycles: extra, shape })
}

fn shape_of(k: &StmtKernel) -> Shape {
    match k {
        StmtKernel::Copy => Shape::Copy,
        StmtKernel::Scale { .. } => Shape::Scale,
        StmtKernel::Axpy { .. } => Shape::Axpy,
        StmtKernel::MulAdd { .. } => Shape::MulAdd,
        StmtKernel::SumK { .. } => Shape::SumK,
        StmtKernel::Tape { .. } => Shape::Fused,
    }
}

fn classify_stmt(ops: &[BodyOp]) -> StmtKernel {
    use BodyOp as B;
    match ops {
        [B::Read { .. }] => StmtKernel::Copy,
        [B::Read { .. }, B::Const(c), B::Bin(op)] => {
            StmtKernel::Scale { op: *op, c: *c, c_left: false }
        }
        [B::Const(c), B::Read { .. }, B::Bin(op)] => {
            StmtKernel::Scale { op: *op, c: *c, c_left: true }
        }
        [B::Const(c), B::Read { .. }, B::Bin(BinOp::Mul), B::Read { .. }, B::Bin(op)] => {
            StmtKernel::Axpy { op: *op, c: *c, c_left: true, mul_first: true }
        }
        [B::Read { .. }, B::Const(c), B::Bin(BinOp::Mul), B::Read { .. }, B::Bin(op)] => {
            StmtKernel::Axpy { op: *op, c: *c, c_left: false, mul_first: true }
        }
        [B::Read { .. }, B::Const(c), B::Read { .. }, B::Bin(BinOp::Mul), B::Bin(op)] => {
            StmtKernel::Axpy { op: *op, c: *c, c_left: true, mul_first: false }
        }
        [B::Read { .. }, B::Read { .. }, B::Const(c), B::Bin(BinOp::Mul), B::Bin(op)] => {
            StmtKernel::Axpy { op: *op, c: *c, c_left: false, mul_first: false }
        }
        [B::Read { .. }, B::Read { .. }, B::Read { .. }, B::Bin(BinOp::Mul), B::Bin(op)] => {
            StmtKernel::MulAdd { op: *op }
        }
        _ => try_sumk(ops).unwrap_or_else(|| tape(ops)),
    }
}

/// Left-associated chain of adds/subs over reads, with an optional
/// trailing constant scale: the stencil body `(b+b+b+b+b)*0.2`.
fn try_sumk(ops: &[BodyOp]) -> Option<StmtKernel> {
    use BodyOp as B;
    let (chain, scale) = match ops {
        [rest @ .., B::Const(c), B::Bin(op)] if rest.len() >= 3 => (rest, Some((*op, *c))),
        _ => (ops, None),
    };
    if chain.len() < 3 || chain.len() % 2 == 0 {
        return None;
    }
    if !matches!(chain[0], B::Read { .. }) {
        return None;
    }
    let mut chain_ops = Vec::with_capacity(chain.len() / 2);
    let mut i = 1;
    while i < chain.len() {
        if !matches!(chain[i], B::Read { .. }) {
            return None;
        }
        match chain[i + 1] {
            B::Bin(o @ (BinOp::Add | BinOp::Sub)) => chain_ops.push(o),
            _ => return None,
        }
        i += 2;
    }
    Some(StmtKernel::SumK { ops: chain_ops, scale })
}

fn tape(ops: &[BodyOp]) -> StmtKernel {
    let t = ops
        .iter()
        .map(|o| match *o {
            BodyOp::Const(c) => TapeOp::Const(c),
            BodyOp::Index(l) => TapeOp::Index(l),
            BodyOp::Read { .. } => TapeOp::Read,
            BodyOp::Bin(op) => TapeOp::Bin(op),
        })
        .collect();
    StmtKernel::Tape { ops: t }
}

/// One resolved read stream of a segment: raw arena base plus the slot
/// cursor (`slot + t*dslot` for element `t`).
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) struct RdStream {
    pub(crate) ptr: *const f64,
    pub(crate) slot: i64,
    pub(crate) dslot: i64,
}

/// One resolved write stream of a segment.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) struct WrStream {
    pub(crate) ptr: *mut f64,
    pub(crate) slot: i64,
    pub(crate) dslot: i64,
}

#[inline(always)]
unsafe fn rdv(r: RdStream, t: i64) -> f64 {
    unsafe { *r.ptr.offset((r.slot + t * r.dslot) as isize) }
}

#[inline(always)]
unsafe fn wrv(w: WrStream, t: i64, v: f64) {
    unsafe { *w.ptr.offset((w.slot + t * w.dslot) as isize) = v }
}

#[inline(always)]
fn bin(op: BinOp, a: f64, b: f64) -> f64 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
    }
}

/// 4-wide element sweep: four independent per-element chains in flight
/// (the "k >= 4 independent accumulators"), stores grouped after loads.
/// Only legal when no read stream aliases the write stream — the caller
/// proves disjointness before choosing this path.
#[inline(always)]
unsafe fn sweep(w: WrStream, seg: i64, mut f: impl FnMut(i64) -> f64) {
    let mut t = 0i64;
    while t + 4 <= seg {
        let v0 = f(t);
        let v1 = f(t + 1);
        let v2 = f(t + 2);
        let v3 = f(t + 3);
        unsafe {
            wrv(w, t, v0);
            wrv(w, t + 1, v1);
            wrv(w, t + 2, v2);
            wrv(w, t + 3, v3);
        }
        t += 4;
    }
    while t < seg {
        let v = f(t);
        unsafe { wrv(w, t, v) };
        t += 1;
    }
}

/// Evaluate a resolved tape for element `t`. Stack discipline (depth,
/// never-read-before-write) is guaranteed at flatten time, so the
/// operand stack needs no per-element zeroing.
#[inline]
unsafe fn eval_tape(
    ops: &[TapeOp],
    rds: &[RdStream],
    t: i64,
    iv: i64,
    level: usize,
    ivec: &[i64],
) -> f64 {
    let mut stack = [std::mem::MaybeUninit::<f64>::uninit(); MAX_EVAL_STACK];
    let mut top = 0usize;
    let mut cur = 0usize;
    for op in ops {
        match *op {
            TapeOp::Const(c) => {
                stack[top].write(c);
                top += 1;
            }
            TapeOp::Index(l) => {
                let v = if l == level { iv } else { ivec[l] };
                stack[top].write(v as f64);
                top += 1;
            }
            TapeOp::Read => {
                let v = unsafe { rdv(rds[cur], t) };
                cur += 1;
                stack[top].write(v);
                top += 1;
            }
            TapeOp::Bin(op) => {
                top -= 1;
                let (a, b) = unsafe {
                    (stack[top - 1].assume_init(), stack[top].assume_init())
                };
                stack[top - 1].write(bin(op, a, b));
            }
        }
    }
    unsafe { stack[top - 1].assume_init() }
}

/// Evaluate one statement's kernel for element `t` (ordered path).
#[inline]
unsafe fn eval_stmt(
    k: &StmtKernel,
    rds: &[RdStream],
    t: i64,
    iv: i64,
    level: usize,
    ivec: &[i64],
) -> f64 {
    unsafe {
        match k {
            StmtKernel::Copy => rdv(rds[0], t),
            StmtKernel::Scale { op, c, c_left } => {
                let x = rdv(rds[0], t);
                if *c_left { bin(*op, *c, x) } else { bin(*op, x, *c) }
            }
            StmtKernel::Axpy { op, c, c_left, mul_first } => {
                let a = rdv(rds[0], t);
                let b = rdv(rds[1], t);
                if *mul_first {
                    let p = if *c_left { *c * a } else { a * *c };
                    bin(*op, p, b)
                } else {
                    let p = if *c_left { *c * b } else { b * *c };
                    bin(*op, a, p)
                }
            }
            StmtKernel::MulAdd { op } => {
                let a = rdv(rds[0], t);
                let b = rdv(rds[1], t);
                let c2 = rdv(rds[2], t);
                bin(*op, a, b * c2)
            }
            StmtKernel::SumK { ops, scale } => {
                let mut acc = rdv(rds[0], t);
                for (i, op) in ops.iter().enumerate() {
                    acc = bin(*op, acc, rdv(rds[i + 1], t));
                }
                if let Some((op, c)) = scale {
                    acc = bin(*op, acc, *c);
                }
                acc
            }
            StmtKernel::Tape { ops } => eval_tape(ops, rds, t, iv, level, ivec),
        }
    }
}

/// Run the value half of one segment. `wr[s]` / `rd` follow the plan's
/// statement order (reads of statement `s` are `rd[base_s..base_s +
/// nreads_s]` in postfix order). `unroll_safe` = no read stream aliases
/// the write stream (single-statement bodies only; the caller proves it
/// from slot intervals).
///
/// # Safety
///
/// Every stream's touched slots `slot + t*dslot` for `t in 0..seg` must
/// be in bounds of its arena allocation, and the raw pointers must stay
/// valid for the duration of the call (the executor checks both per
/// segment before dispatching here).
///
/// Out of line on purpose: it is called once per segment, and inlined into
/// the executor's innermost-loop driver the code of its sweeps depends on
/// whatever else that function holds (measured when the driver grew by the
/// cursor memo: 6 to 9 % on the long-segment cells, gone with this).
#[inline(never)]
pub(crate) unsafe fn exec_values(
    plan: &KernelPlan,
    wr: &[WrStream],
    rd: &[RdStream],
    seg: i64,
    ivec: &[i64],
    level: usize,
    iv0: i64,
    step: i64,
    unroll_safe: bool,
) {
    unsafe {
        if unroll_safe && plan.stmts.len() == 1 {
            let w = wr[0];
            match &plan.stmts[0].kernel {
                StmtKernel::Copy => {
                    let r0 = rd[0];
                    sweep(w, seg, |t| rdv(r0, t));
                }
                StmtKernel::Scale { op, c, c_left } => {
                    let (r0, op, c, c_left) = (rd[0], *op, *c, *c_left);
                    sweep(w, seg, |t| {
                        let x = rdv(r0, t);
                        if c_left { bin(op, c, x) } else { bin(op, x, c) }
                    });
                }
                StmtKernel::Axpy { op, c, c_left, mul_first } => {
                    let (r0, r1) = (rd[0], rd[1]);
                    let (op, c, c_left, mul_first) = (*op, *c, *c_left, *mul_first);
                    sweep(w, seg, |t| {
                        let a = rdv(r0, t);
                        let b = rdv(r1, t);
                        if mul_first {
                            let p = if c_left { c * a } else { a * c };
                            bin(op, p, b)
                        } else {
                            let p = if c_left { c * b } else { b * c };
                            bin(op, a, p)
                        }
                    });
                }
                StmtKernel::MulAdd { op } => {
                    let (r0, r1, r2, op) = (rd[0], rd[1], rd[2], *op);
                    sweep(w, seg, |t| {
                        let a = rdv(r0, t);
                        bin(op, a, rdv(r1, t) * rdv(r2, t))
                    });
                }
                StmtKernel::SumK { ops, scale } => {
                    let (ops, scale) = (&ops[..], *scale);
                    sweep(w, seg, |t| {
                        let mut acc = rdv(rd[0], t);
                        for (i, op) in ops.iter().enumerate() {
                            acc = bin(*op, acc, rdv(rd[i + 1], t));
                        }
                        if let Some((op, c)) = scale {
                            acc = bin(op, acc, c);
                        }
                        acc
                    });
                }
                StmtKernel::Tape { ops } => {
                    let ops = &ops[..];
                    sweep(w, seg, |t| eval_tape(ops, rd, t, iv0 + t * step, level, ivec));
                }
            }
        } else {
            // Element-major ordered path: exact interpreter order for
            // cross-statement and cross-element dependences.
            for t in 0..seg {
                let iv = iv0 + t * step;
                let mut cur = 0usize;
                for (sp, w) in plan.stmts.iter().zip(wr) {
                    let rds = &rd[cur..cur + sp.nreads];
                    cur += sp.nreads;
                    let val = eval_stmt(&sp.kernel, rds, t, iv, level, ivec);
                    wrv(*w, t, val);
                }
            }
        }
    }
}
