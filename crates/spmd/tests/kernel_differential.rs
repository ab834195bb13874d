//! Differential property test for the fused segment kernels, the engine of
//! every strided segment: for randomized bodies covering every kernel
//! shape (copy, scale, axpy, mul-add, k-ary sum, resolved tape,
//! multi-statement fusion, aliased scans), the strided run must be
//! *bit-identical* to the general reference walk — cycles, clocks, machine
//! statistics, checksum bits, race report, and memory profile — under
//! every folding and processor count. A second suite covers the segments a
//! length or width limit once sent elsewhere (wide bodies, short innermost
//! loops, single-iteration segments split at a strip boundary): each must
//! run through a kernel, unrefused, with unchanged results.

use dct_decomp::{decompose, Folding};
use dct_dep::{analyze_nest, DepConfig};
use dct_ir::{Aff, Expr, Program, ProgramBuilder};
use dct_spmd::exec::Resolve;
use dct_spmd::{simulate, SimOptions};
use proptest::prelude::*;

/// Build a 2-array time-stepped program whose compute nest's body is
/// chosen by `shape` (0..=7), exercising every statement kernel plus the
/// fused multi-statement and aliased-scan paths. `scale2` strides the
/// inner read index by 2 on some shapes to vary the access slope.
fn program_for(n: i64, shape: u8, dj: i64, scale2: bool) -> Program {
    let mut pb = ProgramBuilder::new("kern-rand");
    let np = pb.param("N", n);
    let a = pb.array("A", &[Aff::param(np), Aff::param(np)], 4);
    let b = pb.array("B", &[Aff::param(np), Aff::param(np)], 4);
    let _t = pb.time_loop(Aff::konst(1));

    let mut nb = pb.nest_builder("init");
    let i = nb.loop_var(Aff::konst(0), Aff::param(np) - 1);
    let j = nb.loop_var(Aff::konst(0), Aff::param(np) - 1);
    let v = Expr::Index(i) * Expr::Const(0.5) + Expr::Index(j) + Expr::Const(1.0);
    nb.assign(b, &[Aff::var(i), Aff::var(j)], v);
    pb.init_nest(nb.build());

    // Compute nest: outer i in [1, (N-2)/2] (so scaled reads stay in
    // bounds), inner j in [1, N-2] (long enough for kernel dispatch).
    let mut nb = pb.nest_builder("compute");
    let hi = (n - 2) / 2;
    let i = nb.loop_var(Aff::konst(1), Aff::konst(hi));
    let j = nb.loop_var(Aff::konst(1), Aff::param(np) - 2);
    let col = if scale2 { Aff::var(j) } else { Aff::var(j) + dj };
    let row = if scale2 { Aff::var(i) * 2 } else { Aff::var(i) };
    let r0 = nb.read(b, &[row, col]);
    let r1 = nb.read(b, &[Aff::var(i), Aff::var(j)]);
    match shape {
        // Copy.
        0 => {
            nb.assign(a, &[Aff::var(i), Aff::var(j)], r0);
        }
        // Scale, constant on the right.
        1 => {
            nb.assign(a, &[Aff::var(i), Aff::var(j)], r0 * Expr::Const(0.5));
        }
        // Scale, constant on the left.
        2 => {
            nb.assign(a, &[Aff::var(i), Aff::var(j)], Expr::Const(-1.5) * r0);
        }
        // Axpy: r0 + c*r1.
        3 => {
            nb.assign(a, &[Aff::var(i), Aff::var(j)], r0 + Expr::Const(0.25) * r1);
        }
        // Mul-add: r0 - r1*r2 (the LU update).
        4 => {
            let r2 = nb.read(b, &[Aff::var(i), Aff::var(j) + 1]);
            nb.assign(a, &[Aff::var(i), Aff::var(j)], r0 - r1 * r2);
        }
        // k-ary sum with trailing scale (stencil).
        5 => {
            let r2 = nb.read(b, &[Aff::var(i), Aff::var(j) - 1]);
            let r3 = nb.read(b, &[Aff::var(i), Aff::var(j) + 1]);
            nb.assign(a, &[Aff::var(i), Aff::var(j)], (r0 + r1 + r2 - r3) * Expr::Const(0.2));
        }
        // Resolved tape: the body mixes in a loop index, which no
        // closed-form shape carries.
        6 => {
            nb.assign(a, &[Aff::var(i), Aff::var(j)], r0 * Expr::Const(0.5) + Expr::Index(j));
        }
        // Aliased scan: reads the element the previous iteration wrote,
        // forcing the ordered element-major value path.
        _ => {
            let prev = nb.read(a, &[Aff::var(i), Aff::var(j) - 1]);
            nb.assign(a, &[Aff::var(i), Aff::var(j)], prev + r1 * Expr::Const(0.125));
        }
    }
    // A second statement in a separate nest keeps data flowing so every
    // strategy has work after the compute nest.
    let mut nb2 = pb.nest_builder("copyback");
    let i = nb2.loop_var(Aff::konst(1), Aff::konst(hi));
    let j = nb2.loop_var(Aff::konst(1), Aff::param(np) - 2);
    let rhs = nb2.read(a, &[Aff::var(i), Aff::var(j)]);
    nb2.assign(b, &[Aff::var(i), Aff::var(j)], rhs);
    pb.nest(nb2.build());
    pb.build()
}

/// Assert two runs are bit-identical in every determinism-relevant
/// field, including the race report and memory profile when present.
fn assert_same(l: &dct_spmd::RunResult, r: &dct_spmd::RunResult, what: &str) {
    assert_eq!(l.cycles, r.cycles, "{what}: cycles differ");
    assert_eq!(&l.clocks, &r.clocks, "{what}: clocks differ");
    assert_eq!(&l.stats, &r.stats, "{what}: stats differ");
    assert_eq!(l.barriers, r.barriers, "{what}: barriers differ");
    assert_eq!(
        l.checksum.to_bits(),
        r.checksum.to_bits(),
        "{what}: checksum bits differ ({} vs {})",
        l.checksum,
        r.checksum
    );
    assert_eq!(&l.race, &r.race, "{what}: race reports differ");
    assert_eq!(&l.mem_profile, &r.mem_profile, "{what}: memory profiles differ");
}

fn run(prog: &Program, dec: &dct_decomp::Decomposition, opts: &SimOptions) -> dct_spmd::RunResult {
    simulate(prog, dec, opts).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Kernel path vs reference walk: identical cycles, clocks, stats,
    /// checksums, race reports, and memory profiles for every folding x
    /// processor count. Observers off for one pair (`access_seg` runs
    /// `seg_rounds`), on for another (the per-access observed loop), so
    /// both loops of `access_seg` are pinned.
    #[test]
    fn kernels_match_reference(
        n in 10i64..=14,
        shape in 0u8..=7,
        dj in -1i64..=1,
        scale2 in any::<bool>(),
        transform in any::<bool>(),
    ) {
        let prog = program_for(n, shape, dj, scale2);
        let params = prog.default_params();

        for folding in [Folding::Block, Folding::Cyclic, Folding::BlockCyclic { block: 2 }] {
            let mut dec = decomposed(&prog);
            for f in dec.foldings.iter_mut() {
                *f = folding;
            }
            for procs in [1usize, 2, 4] {
                let mut kern = SimOptions::new(procs, params.clone());
                kern.transform_data = transform;
                let reference = SimOptions { fast_path: false, ..kern.clone() };

                // Plain runs: no probe, so `access_seg` runs `seg_rounds`.
                let rk = run(&prog, &dec, &kern);
                let rr = run(&prog, &dec, &reference);
                prop_assert_eq!(rk.fast.kernel_refusals, [0; 1], "refused kernel segments");
                prop_assert!(
                    rk.fast.fast_iters > 0 || matches!(folding, Folding::BlockCyclic { .. }),
                    "kernels never engaged ({:?}, P={})", folding, procs
                );
                // Only the scan reads the array it writes.
                prop_assert!(shape == 7 || rk.fast.kernel_aliased == 0, "aliased kernel segments: {:?}", rk.fast);
                assert_same(&rk, &rr, "kernel vs reference (plain)");

                // Observed runs: race detection + profiling attached, so
                // the machine layer takes its exact probed path while the
                // kernel value sweeps and race batching stay engaged.
                let observed = |o: &SimOptions| SimOptions { race_detect: true, profile: true, ..o.clone() };
                let ok = run(&prog, &dec, &observed(&kern));
                let or = run(&prog, &dec, &observed(&reference));
                prop_assert!(ok.race.is_some() && ok.mem_profile.is_some());
                assert_same(&ok, &or, "kernel vs reference (observed)");
                prop_assert_eq!(ok.cycles, rk.cycles, "observers perturbed cycles");
            }
        }
    }
}

/// A body of 26 references (25 reads and the write) runs through a
/// kernel like any other: the plan has no width limit.
#[test]
fn wide_bodies_run_kernels() {
    let n = 40i64;
    let mut pb = ProgramBuilder::new("kern-wide");
    let np = pb.param("N", n);
    let a = pb.array("A", &[Aff::param(np), Aff::param(np)], 4);
    let b = pb.array("B", &[Aff::param(np), Aff::param(np)], 4);
    let _t = pb.time_loop(Aff::konst(1));
    let mut nb = pb.nest_builder("init");
    let i = nb.loop_var(Aff::konst(0), Aff::param(np) - 1);
    let j = nb.loop_var(Aff::konst(0), Aff::konst(2)); // 3 iters: short segments
    nb.assign(b, &[Aff::var(i), Aff::var(j)], Expr::Index(i) + Expr::Index(j) * Expr::Const(2.0));
    pb.init_nest(nb.build());
    let mut nb = pb.nest_builder("wide");
    let i = nb.loop_var(Aff::konst(1), Aff::param(np) - 27);
    let j = nb.loop_var(Aff::konst(1), Aff::param(np) - 27);
    let mut rhs = nb.read(b, &[Aff::var(i), Aff::var(j)]);
    for k in 1..25 {
        rhs = rhs + nb.read(b, &[Aff::var(i), Aff::var(j) + k]);
    }
    nb.assign(a, &[Aff::var(i), Aff::var(j)], rhs);
    pb.nest(nb.build());
    assert_kernels_exact(&pb.build(), "wide body");
}

/// An innermost loop of 3 iterations: every segment is short, and every
/// one runs through a kernel.
#[test]
fn short_segments_run_kernels() {
    assert_kernels_exact(&short_inner_program(), "short segments");
}

/// A 4-point relaxation whose reads `A(i-1, j)` and `A(i+1, j)` cross a
/// strip boundary of the transformed layout one iteration before or after
/// the write does: each entry of the innermost loop splits into a long
/// segment and segments of a single iteration, which are resolved, never
/// bumped, and still run through kernels.
#[test]
fn split_short_segments_run_kernels() {
    let n = 40i64;
    let mut pb = ProgramBuilder::new("kern-split");
    let np = pb.param("N", n);
    let a = pb.array("A", &[Aff::param(np), Aff::param(np)], 8);
    let b = pb.array("B", &[Aff::param(np), Aff::param(np)], 8);
    let _t = pb.time_loop(Aff::konst(1));
    let mut nb = pb.nest_builder("init");
    let j = nb.loop_var(Aff::konst(0), Aff::param(np) - 1);
    let i = nb.loop_var(Aff::konst(0), Aff::param(np) - 1);
    nb.assign(a, &[Aff::var(i), Aff::var(j)], Expr::Index(i) * Expr::Const(0.25) + Expr::Index(j));
    pb.init_nest(nb.build());
    let mut nb = pb.nest_builder("sweep");
    let j = nb.loop_var(Aff::konst(1), Aff::param(np) - 2);
    let i = nb.loop_var(Aff::konst(1), Aff::param(np) - 2);
    let rhs = (nb.read(a, &[Aff::var(i) - 1, Aff::var(j)])
        + nb.read(a, &[Aff::var(i) + 1, Aff::var(j)])
        + nb.read(a, &[Aff::var(i), Aff::var(j) - 1])
        + nb.read(a, &[Aff::var(i), Aff::var(j) + 1]))
        * Expr::Const(0.25);
    nb.assign(b, &[Aff::var(i), Aff::var(j)], rhs);
    pb.nest(nb.build());
    let runs = assert_kernels_exact(&pb.build(), "split segments");
    let split = runs.iter().map(|r| r.fast.resolves[Resolve::SplitSegment as usize]).sum::<u64>();
    assert!(split > 0, "no entry split at a strip boundary");
}

/// `SimOptions::seg_kernels` is inert: `false` gives the default run's
/// result, counters and all.
#[test]
fn seg_kernels_off_changes_nothing() {
    let prog = program_for(12, 3, 0, false);
    let dec = decomposed(&prog);
    for procs in [1usize, 4] {
        let opts = SimOptions::new(procs, prog.default_params());
        let off = SimOptions { seg_kernels: false, ..opts.clone() };
        let (a, b) = (run(&prog, &dec, &opts), run(&prog, &dec, &off));
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "P={procs}");
    }
}

/// Build a program whose innermost loop runs 3 iterations.
fn short_inner_program() -> Program {
    let n = 16i64;
    let mut pb = ProgramBuilder::new("kern-short");
    let np = pb.param("N", n);
    let a = pb.array("A", &[Aff::param(np), Aff::param(np)], 4);
    let b = pb.array("B", &[Aff::param(np), Aff::param(np)], 4);
    let _t = pb.time_loop(Aff::konst(1));
    let mut nb = pb.nest_builder("init");
    let i = nb.loop_var(Aff::konst(0), Aff::param(np) - 1);
    let j = nb.loop_var(Aff::konst(0), Aff::konst(2)); // 3 iters: short segments
    nb.assign(b, &[Aff::var(i), Aff::var(j)], Expr::Index(i) - Expr::Index(j) * Expr::Const(0.5));
    pb.init_nest(nb.build());
    let mut nb = pb.nest_builder("short");
    let i = nb.loop_var(Aff::konst(1), Aff::param(np) - 2);
    let j = nb.loop_var(Aff::konst(1), Aff::konst(3)); // 3 iterations
    let rhs = nb.read(b, &[Aff::var(i), Aff::var(j)]) * Expr::Const(0.75);
    nb.assign(a, &[Aff::var(i), Aff::var(j)], rhs);
    pb.nest(nb.build());
    pb.build()
}

fn decomposed(prog: &Program) -> dct_decomp::Decomposition {
    let cfg = DepConfig { nparams: prog.params.len(), param_min: 4 };
    let deps: Vec<_> = prog.nests.iter().map(|nst| analyze_nest(nst, cfg)).collect();
    decompose(prog, &deps).unwrap()
}

/// Run `prog` observed (race detector and profiler on) and with the
/// reference walk at P in {1, 4}; require that every innermost iteration
/// ran through a kernel, none through the general walk, and that the
/// results are bit-identical. Returns the kernel runs.
fn assert_kernels_exact(prog: &Program, what: &str) -> Vec<dct_spmd::RunResult> {
    let dec = decomposed(prog);
    let mut runs = Vec::new();
    for procs in [1usize, 4] {
        let mut opts = SimOptions::new(procs, prog.default_params());
        opts.race_detect = true;
        opts.profile = true;
        let reference = SimOptions { fast_path: false, ..opts.clone() };
        let rk = run(prog, &dec, &opts);
        let rr = run(prog, &dec, &reference);
        let f = rk.fast;
        assert!(f.kernel_iters > 0, "{what}: kernels never ran (P={procs})");
        assert_eq!((f.slow_iters, f.kernel_refusals), (0, [0; 1]), "{what}: general-walk iterations (P={procs})");
        assert_eq!(f.kernel_shapes.iter().sum::<u64>(), f.kernel_iters, "{what}: shape histogram (P={procs})");
        assert_same(&rk, &rr, what);
        runs.push(rk);
    }
    runs
}

/// A nest with no statements gets a plan with none: its segments run
/// through a kernel that touches nothing.
#[test]
fn empty_body_runs_kernels() {
    let mut pb = ProgramBuilder::new("kern-empty");
    let np = pb.param("N", 16);
    let a = pb.array("A", &[Aff::param(np), Aff::param(np)], 8);
    let mut nb = pb.nest_builder("init");
    let j = nb.loop_var(Aff::konst(0), Aff::param(np) - 1);
    let i = nb.loop_var(Aff::konst(0), Aff::param(np) - 1);
    nb.assign(a, &[Aff::var(i), Aff::var(j)], Expr::Index(i) + Expr::Index(j));
    pb.init_nest(nb.build());
    let mut nb = pb.nest_builder("empty");
    let _j = nb.loop_var(Aff::konst(0), Aff::param(np) - 1);
    let _i = nb.loop_var(Aff::konst(0), Aff::param(np) - 1);
    pb.nest(nb.build());
    assert_kernels_exact(&pb.build(), "empty body");
}
