//! The benchmark suite from FORTRAN source: every `.f` file in
//! `crates/bench/fortran/` must parse, lower, and compile to the same
//! Table 1 decomposition as the IR-built suite, and execute identically
//! across strategies and processor counts.

use dct_core::{Compiler, Strategy};
use dct_frontend::parse_fortran;

fn load(name: &str) -> dct_core::ir::Program {
    let path = format!("{}/fortran/{name}.f", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    parse_fortran(&src).unwrap_or_else(|e| panic!("{name}.f: {e}"))
}

fn hpf_all(prog: &dct_core::ir::Program) -> Vec<String> {
    let c = Compiler::new(Strategy::Full).compile(prog).unwrap();
    c.decomposition.hpf_all(&c.program)
}

#[test]
fn lu_f_matches_table1() {
    let all = hpf_all(&load("lu"));
    assert_eq!(all, vec!["A(*, CYCLIC)"]);
}

#[test]
fn stencil_f_matches_table1() {
    let all = hpf_all(&load("stencil"));
    assert!(all.contains(&"A(BLOCK, BLOCK)".to_string()), "{all:?}");
}

#[test]
fn adi_f_matches_table1() {
    let prog = load("adi");
    let c = Compiler::new(Strategy::Full).compile(&prog).unwrap();
    let all = c.decomposition.hpf_all(&c.program);
    assert!(all.contains(&"X(*, BLOCK)".to_string()), "{all:?}");
    assert!(c.decomposition.comp.iter().any(|cd| cd.pipeline_level.is_some()));
}

#[test]
fn vpenta_f_matches_table1() {
    let all = hpf_all(&load("vpenta"));
    assert!(all.contains(&"F(*, BLOCK, *)".to_string()), "{all:?}");
    assert!(all.contains(&"A(*, BLOCK)".to_string()), "{all:?}");
}

#[test]
fn erlebacher_f_matches_table1() {
    let all = hpf_all(&load("erlebacher"));
    assert!(all.contains(&"U(replicated)".to_string()), "{all:?}");
    assert!(all.contains(&"DUX(*, *, BLOCK)".to_string()), "{all:?}");
    assert!(all.contains(&"DUZ(*, BLOCK, *)".to_string()), "{all:?}");
}

#[test]
fn swm256_f_matches_table1() {
    let all = hpf_all(&load("swm256"));
    assert!(all.contains(&"P(BLOCK, BLOCK)".to_string()), "{all:?}");
}

#[test]
fn tomcatv_f_matches_table1() {
    let all = hpf_all(&load("tomcatv"));
    assert!(all.contains(&"AA(BLOCK, *)".to_string()), "{all:?}");
}

/// Every FORTRAN benchmark computes identical values across strategies and
/// processor counts.
#[test]
fn fortran_suite_deterministic() {
    for name in ["lu", "stencil", "adi", "vpenta", "erlebacher", "swm256", "tomcatv"] {
        let prog = load(name);
        let run = |strategy: Strategy, procs: usize| {
            let c = Compiler::new(strategy);
            let compiled = c.compile(&prog).unwrap();
            let opts = c.sim_options(procs, prog.default_params());
            dct_core::spmd::simulate_with_values(
                &compiled.program,
                &compiled.decomposition,
                &opts,
            ).unwrap()
            .1
        };
        let reference = run(Strategy::Base, 1);
        for strategy in Strategy::ALL {
            for procs in [3usize, 8] {
                let got = run(strategy, procs);
                for (x, (a, b)) in reference.iter().zip(&got).enumerate() {
                    for (k, (p, q)) in a.iter().zip(b).enumerate() {
                        assert!(
                            p == q,
                            "{name}.f {} P={procs}: array {x} elem {k}: {p} != {q}",
                            strategy.label()
                        );
                    }
                }
            }
        }
    }
}

/// `REAL A(2,...,2)` of rank 17 under 17 nested `DO`s. Strip-mining adds a
/// dimension per distributed one, so the transformed layouts go beyond
/// rank 16, which the address computation once permuted through a fixed
/// 16-entry scratch: strategy full panicked in the simulator.
#[test]
fn rank_17_array_simulates_under_every_strategy() {
    let rank = 17;
    let list = |f: &dyn Fn(usize) -> String| (1..=rank).map(f).collect::<Vec<_>>().join(",");
    let (dims, subs) = (list(&|_| "2".to_string()), list(&|k| format!("I{k}")));
    let nest = |label: usize, stmt: &str| {
        let dos: String = (1..=rank).rev().map(|k| format!("      DO {label} I{k} = 1, 2\n")).collect();
        format!("{dos}   {label} {stmt}\n")
    };
    let src = format!(
        "      PROGRAM DEEP\n      REAL A({dims}), B({dims})\nCDCT$ INIT\n{}{}      END\n",
        nest(10, &format!("B({subs}) = 1.0 + I1 * 0.5 + I17 * 0.25")),
        nest(20, &format!("A({subs}) = B({subs}) + 1.0")),
    );
    let prog = parse_fortran(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let run = |strategy: Strategy, procs: usize| {
        let c = Compiler::new(strategy);
        let compiled = c.compile(&prog).unwrap_or_else(|e| panic!("{}: {e}", strategy.label()));
        let opts = c.sim_options(procs, prog.default_params());
        dct_core::spmd::simulate_with_values(&compiled.program, &compiled.decomposition, &opts)
            .unwrap_or_else(|e| panic!("{} P={procs}: {e}", strategy.label()))
            .1
    };
    let reference = run(Strategy::Base, 1);
    assert_eq!(reference[0].len(), 1 << rank);
    for strategy in Strategy::ALL {
        assert!(run(strategy, 8) == reference, "{} at 8 processors", strategy.label());
    }
}
