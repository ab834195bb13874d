//! Fused segment kernels: the engine of every strided segment.
//!
//! Within a strided segment every reference moves by a constant stride, so
//! the work that is constant across the segment is done once: postfix
//! dispatch, operand-stack set-up, bounds checks, and one machine probe per
//! reference. This module compiles a nest's statement bodies once (in
//! [`crate::exec::WalkCtx`]) into a [`KernelPlan`]: each statement is
//! classified into one of the closed-form shapes the paper's seven
//! benchmarks actually use — copy, scale, axpy, 2-ref mul-add, k-ary
//! sum/stencil reduction — or, failing that, into a resolved postfix tape.
//! Every body gets a plan, whatever its width. The executor then runs a
//! *whole segment* per kernel call, of any length: machine accounting goes
//! through one [`dct_machine::Machine::access_seg`] call and values through
//! tight raw-pointer sweeps over arena slices.
//!
//! ## Bit-identity argument
//!
//! Values: every kernel evaluates, per element, exactly the expression
//! dag of the reference walk's recursive `eval`, with the same association
//! and operand order — no reassociation, ever (IEEE addition is not
//! associative; SNIPPETS.md Snippet 3 warns exactly about this). The "k >=
//! 4 independent accumulators" of that snippet are realized as unrolling
//! across *independent output elements* ([`sweep`]'s 4-wide
//! groups), which touches no intra-element chain. Cross-element and
//! cross-statement dependences (`a(i) = f(a(i-1))` scans, adi's
//! two-statement coupled sweeps) are handled by the element-major ordered
//! path, which keeps the reference walk's loop order. Timing: the access
//! vector handed to `access_seg` lists, per statement, the reads in
//! evaluation order then the write — the reference walk's exact access
//! order — and `access_seg` is pinned bit-identical to the one-by-one walk
//! by the machine crate's own tests. A segment whose sweeps the executor
//! cannot prove in bounds runs the reference body instead.

use crate::codegen::SpmdNest;
use dct_ir::{BinOp, Expr};

/// Maximum operand-stack depth of a statement body (compiler-generated
/// expressions are shallow; codegen rejects deeper bodies with a
/// [`dct_ir::DctError`] before an executor is ever built).
pub(crate) const MAX_EVAL_STACK: usize = 32;

/// Operand-stack depth needed to evaluate `e` (postfix order): used by
/// codegen to reject too-deep statement bodies up front.
pub(crate) fn expr_stack_depth(e: &Expr) -> usize {
    match e {
        Expr::Const(_) | Expr::Index(_) | Expr::Ref(_) => 1,
        Expr::Bin(_, a, b) => expr_stack_depth(a).max(1 + expr_stack_depth(b)),
    }
}

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

/// One op of a statement's right-hand side in postfix order, which is
/// exactly [`Expr`]'s DFS evaluation order (the generic fallback kernel
/// runs it as a tape).
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

fn flatten(e: &Expr, out: &mut Vec<TapeOp>) {
    match e {
        Expr::Const(c) => out.push(TapeOp::Const(*c)),
        Expr::Index(l) => out.push(TapeOp::Index(*l)),
        Expr::Ref(_) => out.push(TapeOp::Read),
        Expr::Bin(op, a, b) => {
            flatten(a, out);
            flatten(b, out);
            out.push(TapeOp::Bin(*op));
        }
    }
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

/// Classify a nest body (an empty one gets a plan with no statements).
pub(crate) fn build_plan(nest: &SpmdNest) -> KernelPlan {
    let mut extra = 0u64;
    let mut stmts = Vec::with_capacity(nest.source.body.len());
    for (s, sc) in nest.source.body.iter().zip(&nest.stmt_costs) {
        let mut ops = Vec::new();
        flatten(&s.rhs, &mut ops);
        let nreads = ops.iter().filter(|o| matches!(o, TapeOp::Read)).count();
        extra += sc.read_extras.iter().take(nreads).sum::<u64>() + sc.flop_cycles + sc.write_extra;
        stmts.push(StmtPlan { kernel: classify_stmt(ops), nreads });
    }
    let shape = if stmts.len() == 1 { shape_of(&stmts[0].kernel) } else { Shape::Fused };
    KernelPlan { stmts, extra_cycles: extra, shape }
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

fn classify_stmt(ops: Vec<TapeOp>) -> StmtKernel {
    use TapeOp as T;
    match ops[..] {
        [T::Read] => StmtKernel::Copy,
        [T::Read, T::Const(c), T::Bin(op)] => StmtKernel::Scale { op, c, c_left: false },
        [T::Const(c), T::Read, T::Bin(op)] => StmtKernel::Scale { op, c, c_left: true },
        [T::Const(c), T::Read, T::Bin(BinOp::Mul), T::Read, T::Bin(op)] => {
            StmtKernel::Axpy { op, c, c_left: true, mul_first: true }
        }
        [T::Read, T::Const(c), T::Bin(BinOp::Mul), T::Read, T::Bin(op)] => {
            StmtKernel::Axpy { op, c, c_left: false, mul_first: true }
        }
        [T::Read, T::Const(c), T::Read, T::Bin(BinOp::Mul), T::Bin(op)] => {
            StmtKernel::Axpy { op, c, c_left: true, mul_first: false }
        }
        [T::Read, T::Read, T::Const(c), T::Bin(BinOp::Mul), T::Bin(op)] => {
            StmtKernel::Axpy { op, c, c_left: false, mul_first: false }
        }
        [T::Read, T::Read, T::Read, T::Bin(BinOp::Mul), T::Bin(op)] => StmtKernel::MulAdd { op },
        _ => try_sumk(&ops).unwrap_or(StmtKernel::Tape { ops }),
    }
}

/// Left-associated chain of adds/subs over reads, with an optional
/// trailing constant scale: the stencil body `(b+b+b+b+b)*0.2`.
fn try_sumk(ops: &[TapeOp]) -> Option<StmtKernel> {
    use TapeOp as T;
    let (chain, scale) = match ops {
        [rest @ .., T::Const(c), T::Bin(op)] if rest.len() >= 3 => (rest, Some((*op, *c))),
        _ => (ops, None),
    };
    if chain.len() < 3 || chain.len() % 2 == 0 {
        return None;
    }
    if !matches!(chain[0], T::Read) {
        return None;
    }
    let mut chain_ops = Vec::with_capacity(chain.len() / 2);
    let mut i = 1;
    while i < chain.len() {
        if !matches!(chain[i], T::Read) {
            return None;
        }
        match chain[i + 1] {
            T::Bin(o @ (BinOp::Add | BinOp::Sub)) => chain_ops.push(o),
            _ => return None,
        }
        i += 2;
    }
    Some(StmtKernel::SumK { ops: chain_ops, scale })
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

/// Evaluate a resolved tape for element `t`. Postfix order never reads a
/// slot before writing it, and codegen bounds the depth, so the operand
/// stack needs no per-element zeroing.
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
            // Element-major ordered path: the reference walk's order, for
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
