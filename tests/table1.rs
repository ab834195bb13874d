//! Table 1 reproduction: the decompositions the compiler finds for every
//! benchmark must match the paper's "Data Decompositions" column, and the
//! critical-technique flags must match its check marks.

use dct_bench::programs;
use dct_core::{Compiler, Strategy};

fn hpf(name: &str, prog: &dct_core::ir::Program) -> Vec<String> {
    let c = Compiler::new(Strategy::Full).compile(prog).unwrap();
    let all = c.decomposition.hpf_all(&c.program);
    println!("{name}: {all:?}");
    all
}

#[test]
fn vpenta_decompositions() {
    let all = hpf("vpenta", &programs::vpenta(64, 3));
    // Paper: F(*, BLOCK, *), A(*, BLOCK).
    assert!(all.contains(&"F(*, BLOCK, *)".to_string()));
    assert!(all.contains(&"A(*, BLOCK)".to_string()));
    assert!(all.contains(&"X(*, BLOCK)".to_string()));
}

#[test]
fn lu_decompositions() {
    let all = hpf("lu", &programs::lu(64));
    assert_eq!(all, vec!["A(*, CYCLIC)"]);
}

#[test]
fn stencil_decompositions() {
    let all = hpf("stencil", &programs::stencil(64, 2));
    assert!(all.contains(&"A(BLOCK, BLOCK)".to_string()));
}

#[test]
fn adi_decompositions() {
    let all = hpf("adi", &programs::adi(64, 2));
    assert!(all.contains(&"A(*, BLOCK)".to_string()));
    assert!(all.contains(&"X(*, BLOCK)".to_string()));
}

#[test]
fn erlebacher_decompositions() {
    let all = hpf("erlebacher", &programs::erlebacher(24));
    assert!(all.contains(&"DUX(*, *, BLOCK)".to_string()));
    assert!(all.contains(&"DUY(*, *, BLOCK)".to_string()));
    assert!(all.contains(&"DUZ(*, BLOCK, *)".to_string()));
    assert!(all.contains(&"U(replicated)".to_string()));
}

#[test]
fn swm256_decompositions() {
    let all = hpf("swm256", &programs::swm256(65, 2));
    assert!(all.contains(&"P(BLOCK, BLOCK)".to_string()));
}

#[test]
fn tomcatv_decompositions() {
    let all = hpf("tomcatv", &programs::tomcatv(65, 2));
    assert!(all.contains(&"AA(BLOCK, *)".to_string()));
    assert!(all.contains(&"X(BLOCK, *)".to_string()));
}

/// The harness's Table 1 runs end to end at a small scale and produces
/// sane rows: positive speedups, every paper benchmark present.
#[test]
fn table1_harness_small_scale() {
    let rows = dct_bench::table1_parallel(8, 0.25, dct_bench::ThreadBudget::clamp(1));
    assert_eq!(rows.len(), 7);
    for r in &rows {
        let base = r.base_speedup.unwrap_or_else(|| panic!("{}: {:?}", r.program, r.notes));
        let full = r.full_speedup.unwrap_or_else(|| panic!("{}: {:?}", r.program, r.notes));
        assert!(base > 0.2, "{}: base {base}", r.program);
        assert!(full > 0.5, "{}: full {full}", r.program);
        assert!(!r.decompositions.is_empty(), "{}: no decompositions", r.program);
    }
    let names: Vec<&str> = rows.iter().map(|r| r.program.as_str()).collect();
    assert_eq!(names, vec!["vpenta", "lu", "stencil", "adi", "erlebacher", "swm256", "tomcatv"]);
}

/// ADI: the paper marks only computation decomposition as critical (data
/// already contiguous); the pipeline must be present.
#[test]
fn adi_pipeline_and_no_transform() {
    let prog = programs::adi(64, 2);
    let c = Compiler::new(Strategy::Full).compile(&prog).unwrap();
    assert!(c.decomposition.comp.iter().any(|cd| cd.pipeline_level.is_some()));
    let opts = dct_core::spmd::SpmdOptions {
        procs: 8,
        params: prog.default_params(),
        transform_data: true,
        barrier_elision: true,
        cost: dct_core::spmd::CostModel::default(),
    };
    let sp = dct_core::spmd::codegen(&c.program, &c.decomposition, &opts).unwrap();
    assert!(sp.layouts.iter().all(|l| !l.transformed));
}

/// Vpenta: only the 3-D array needs restructuring.
#[test]
fn vpenta_transforms_only_f() {
    let prog = programs::vpenta(64, 3);
    let c = Compiler::new(Strategy::Full).compile(&prog).unwrap();
    let opts = dct_core::spmd::SpmdOptions {
        procs: 8,
        params: prog.default_params(),
        transform_data: true,
        barrier_elision: true,
        cost: dct_core::spmd::CostModel::default(),
    };
    let sp = dct_core::spmd::codegen(&c.program, &c.decomposition, &opts).unwrap();
    let transformed: Vec<&str> = sp
        .layouts
        .iter()
        .enumerate()
        .filter(|(_, l)| l.transformed)
        .map(|(x, _)| c.program.arrays[x].name.as_str())
        .collect();
    assert_eq!(transformed, vec!["F"]);
}
