//! The paper's three signature diagnoses, reproduced as machine-checked
//! assertions over `repro explain` profiles instead of prose:
//!
//! (a) stencil under the 2-D computation decomposition alone suffers
//!     false-sharing-dominated coherence misses — non-contiguous block
//!     boundaries slice cache lines between processors — and the data
//!     transformation eliminates them (>10x drop);
//! (b) vpenta's untransformed layout (every array a 64 KB power-of-2
//!     allocation, so corresponding elements of different arrays collide
//!     in the direct-mapped L1) shows conflict misses that *spike* as P
//!     grows and partitions narrow, which the data transformation removes;
//! (c) LU at P=32 columns hits the power-of-2 conflict pathology —
//!     cyclically-owned columns stride the direct-mapped cache in lockstep
//!     — so conflict misses dwarf P=31's, while the strip-mined layout
//!     restores parity between the two processor counts.
//!
//! Each test profiles only the strategies the claim needs
//! (`explain_strategies`), because the Base cells at full scale are far
//! slower than the claims under test.

use dct_bench::sweep::SweepConfig;
use dct_bench::{explain_strategies, ThreadBudget};
use dct_core::Strategy;
use dct_ir::MemRow;

fn total_of(bench: &str, scale: f64, procs: usize, strategy: Strategy) -> MemRow {
    let cfg = SweepConfig::plain(procs, scale);
    let (r, _) = explain_strategies(bench, &cfg, ThreadBudget::clamp(1), &[strategy])
        .unwrap_or_else(|| panic!("{bench} is a suite benchmark"));
    r.profile_of(strategy)
        .unwrap_or_else(|| panic!("{bench} {strategy:?} cell must run"))
        .total()
}

/// (a) Stencil: comp-decomp's coherence misses are false-sharing
/// dominated; the data transformation drops false sharing >10x (to zero
/// at this size: contiguous per-processor blocks land line-aligned).
#[test]
fn stencil_data_transform_eliminates_false_sharing() {
    let (scale, procs) = (0.09, 32);
    let cd = total_of("stencil", scale, procs, Strategy::CompDecomp);
    let full = total_of("stencil", scale, procs, Strategy::Full);

    assert!(
        cd.coh_false > cd.coh_true,
        "comp-decomp coherence must be false-sharing dominated: {} false vs {} true",
        cd.coh_false,
        cd.coh_true
    );
    assert!(
        cd.coh_false > cd.cold + cd.capacity + cd.conflict,
        "false sharing must dominate all other miss classes: {cd:?}"
    );
    assert!(
        cd.coh_false > 10 * full.coh_false,
        "data transform must drop false sharing >10x: {} -> {}",
        cd.coh_false,
        full.coh_false
    );
}

/// (b) Vpenta: conflict misses dominate the untransformed layout and
/// spike as P grows; the data transformation removes the pathology.
#[test]
fn vpenta_conflict_misses_spike_at_high_p_without_transform() {
    let scale = 1.0;
    let low = total_of("vpenta", scale, 2, Strategy::CompDecomp);
    let high = total_of("vpenta", scale, 32, Strategy::CompDecomp);
    let full = total_of("vpenta", scale, 32, Strategy::Full);

    assert!(
        high.conflict > high.cold + high.capacity + high.coherence(),
        "untransformed vpenta at P=32 must be conflict dominated: {high:?}"
    );
    assert!(
        high.conflict * 2 > low.conflict * 3,
        "conflicts must spike at high P: {} at P=2 -> {} at P=32",
        low.conflict,
        high.conflict
    );
    assert!(
        high.conflict > 10 * full.conflict,
        "data transform must remove the conflict pathology: {} -> {}",
        high.conflict,
        full.conflict
    );
}

/// (c) LU: P=32 shows conflict misses >> P=31 without the transform
/// (power-of-2 column stride), and parity with it under the strip-mined
/// layout.
#[test]
fn lu_power_of_two_conflict_pathology_vanishes_under_transform() {
    let scale = 1.0;
    let cd31 = total_of("lu", scale, 31, Strategy::CompDecomp);
    let cd32 = total_of("lu", scale, 32, Strategy::CompDecomp);
    let full31 = total_of("lu", scale, 31, Strategy::Full);
    let full32 = total_of("lu", scale, 32, Strategy::Full);

    assert!(
        cd32.conflict > 10 * cd31.conflict,
        "P=32 must show the power-of-2 conflict pathology P=31 avoids: {} vs {}",
        cd32.conflict,
        cd31.conflict
    );
    assert!(
        cd32.conflict > cd32.cold + cd32.capacity + cd32.coherence(),
        "untransformed LU at P=32 must be conflict dominated: {cd32:?}"
    );
    // Parity: with the transform the two processor counts are within 4x
    // of each other (vs the >10x pathology gap without it).
    let (a, b) = (full32.conflict.max(full31.conflict), full32.conflict.min(full31.conflict));
    assert!(
        a <= 4 * b.max(1),
        "transformed layout must restore 32-vs-31 parity: {} vs {}",
        full32.conflict,
        full31.conflict
    );
    assert!(
        cd32.conflict > 10 * full32.conflict,
        "transform must remove the P=32 pathology: {} -> {}",
        cd32.conflict,
        full32.conflict
    );
}
