//! Qualitative reproduction of the paper's evaluation (Section 6): the
//! *shapes* of the figures — who wins, where the pathologies appear — at
//! moderate problem sizes. Absolute numbers differ from the paper (our
//! substrate is a simulator, not the DASH prototype); the orderings and
//! crossovers are what these tests pin down.

use dct_bench::sweep::{run_cells, CellTask, SweepConfig};
use dct_bench::{programs, ThreadBudget, Variant};
use dct_core::Strategy;

/// Speedups of `strategy` over the sequential reference at each count in
/// `procs`, from one run of the cell executor.
fn speedups(prog: &dct_core::ir::Program, strategy: Strategy, procs: &[usize]) -> Vec<f64> {
    let kind = match strategy {
        Strategy::Base => "base",
        Strategy::CompDecomp => "comp",
        Strategy::Full => "full",
    };
    let task = |kind, procs| CellTask { prog, bench: "shape", kind, procs, variant: Variant::Default };
    let tasks: Vec<CellTask> =
        std::iter::once(task("seq", 1)).chain(procs.iter().map(|&p| task(kind, p))).collect();
    let rep = run_cells(&SweepConfig::plain(1, 1.0), &tasks, ThreadBudget::clamp(2));
    let cycles: Vec<u64> = rep.cells.iter().map(|c| c.cycles().unwrap()).collect();
    cycles[1..].iter().map(|&c| cycles[0] as f64 / c as f64).collect()
}

/// Figure 4 (vpenta): the base compiler stalls at a small speedup while
/// the fully optimized version keeps scaling.
#[test]
fn fig4_vpenta_shape() {
    let prog = programs::vpenta(128, 3);
    let base = speedups(&prog, Strategy::Base, &[16]);
    let full = speedups(&prog, Strategy::Full, &[16]);
    assert!(base[0] < 6.0, "base should stall, got {:.1}", base[0]);
    assert!(full[0] > 10.0, "full should scale, got {:.1}", full[0]);
    assert!(full[0] > 2.0 * base[0], "paper: ~3.4x gap at 32 procs");
}

/// Figure 6 (LU): comp-decomp alone is conflict-ridden at powers of two —
/// 31 processors beat 32 — while the data transformation stabilizes it.
#[test]
fn fig6_lu_conflict_pathology() {
    let prog = programs::lu(256);
    let comp = speedups(&prog, Strategy::CompDecomp, &[31, 32]);
    assert!(
        comp[0] > 1.2 * comp[1],
        "31 procs ({:.1}) must beat 32 ({:.1}) under cyclic columns without transform",
        comp[0],
        comp[1]
    );
    let full = speedups(&prog, Strategy::Full, &[31, 32]);
    assert!(
        full[1] > comp[1],
        "transform must fix the 32-processor case: {:.1} vs {:.1}",
        full[1],
        comp[1]
    );
    // Full beats base decisively (paper: 19.5 -> 33.5 at 1Kx1K).
    let base = speedups(&prog, Strategy::Base, &[32]);
    assert!(full[1] > 2.0 * base[0]);
}

/// Figure 8 (stencil): 2-D blocks *without* the data transformation are
/// worse than the base compiler; with it they are competitive or better.
#[test]
fn fig8_stencil_shape() {
    let prog = programs::stencil(256, 4);
    let base = speedups(&prog, Strategy::Base, &[16]);
    let comp = speedups(&prog, Strategy::CompDecomp, &[16]);
    let full = speedups(&prog, Strategy::Full, &[16]);
    assert!(
        comp[0] < 0.7 * base[0],
        "comp-decomp alone ({:.1}) must lose to base ({:.1})",
        comp[0],
        base[0]
    );
    assert!(
        full[0] > 0.9 * base[0],
        "with the transform ({:.1}) it must recover to base ({:.1})",
        full[0],
        base[0]
    );
}

/// Figure 10 (ADI): the pipelined column decomposition beats base, and
/// the data transformation adds nothing (already contiguous).
#[test]
fn fig10_adi_shape() {
    let prog = programs::adi(256, 3);
    let base = speedups(&prog, Strategy::Base, &[32]);
    let comp = speedups(&prog, Strategy::CompDecomp, &[32]);
    let full = speedups(&prog, Strategy::Full, &[32]);
    assert!(comp[0] > 1.3 * base[0], "comp {:.1} vs base {:.1}", comp[0], base[0]);
    let rel = (full[0] - comp[0]).abs() / comp[0];
    assert!(rel < 0.05, "transform must be a no-op for ADI ({rel:.3})");
}

/// Figure 11 (erlebacher): modest improvement (most phases already local).
#[test]
fn fig11_erlebacher_shape() {
    // Run at the paper's size (64^3): the replication and realignment
    // costs only amortize at realistic volume.
    let prog = programs::erlebacher(64);
    let base = speedups(&prog, Strategy::Base, &[16]);
    let full = speedups(&prog, Strategy::Full, &[16]);
    assert!(full[0] > base[0], "full {:.1} must beat base {:.1}", full[0], base[0]);
    assert!(full[0] < 3.0 * base[0], "improvement should be modest");
}

/// Figure 12 (swm256): base is already good; full ends slightly ahead.
#[test]
fn fig12_swm_shape() {
    let prog = programs::swm256(257, 3);
    let base = speedups(&prog, Strategy::Base, &[32]);
    let comp = speedups(&prog, Strategy::CompDecomp, &[32]);
    let full = speedups(&prog, Strategy::Full, &[32]);
    assert!(base[0] > 10.0, "base should scale well, got {:.1}", base[0]);
    assert!(comp[0] < base[0], "2-D without transform must lose");
    assert!(full[0] > 0.95 * base[0], "full ({:.1}) regains base ({:.1})", full[0], base[0]);
}

/// Figure 13 (tomcatv): base limited by alternating row/column
/// partitioning; the fixed block-row decomposition with contiguous rows
/// wins big (paper: 4.9 -> 18).
#[test]
fn fig13_tomcatv_shape() {
    let prog = programs::tomcatv(257, 3);
    let base = speedups(&prog, Strategy::Base, &[32]);
    let full = speedups(&prog, Strategy::Full, &[32]);
    assert!(full[0] > 1.4 * base[0], "full {:.1} vs base {:.1}", full[0], base[0]);
}
