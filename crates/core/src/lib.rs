//! # dct-core
//!
//! The integrated compiler of *Data and Computation Transformations for
//! Multiprocessors* (Anderson, Amarasinghe & Lam, PPoPP'95): given an
//! affine sequential program, it exposes outermost parallelism with
//! unimodular loop transformations, chooses global computation and data
//! decompositions that minimize synchronization and sharing, restructures
//! array layouts with strip-mining + permutation so each processor's data
//! are contiguous, and simulates the generated SPMD program on a DASH-like
//! cache-coherent NUMA machine.
//!
//! ```
//! use dct_core::{Compiler, Strategy};
//! use dct_ir::{Aff, NestBuilder, ProgramBuilder};
//!
//! let mut pb = ProgramBuilder::new("demo");
//! let n = pb.param("N", 64);
//! let a = pb.array("A", &[Aff::param(n), Aff::param(n)], 4);
//! let mut nb = NestBuilder::new("sweep", 1);
//! let j = nb.loop_var(Aff::konst(1), Aff::param(n) - 1);
//! let i = nb.loop_var(Aff::konst(0), Aff::param(n) - 1);
//! let rhs = nb.read(a, &[Aff::var(i), Aff::var(j) - 1]);
//! nb.assign(a, &[Aff::var(i), Aff::var(j)], rhs);
//! pb.nest(nb.build());
//! let prog = pb.build();
//!
//! let compiler = Compiler::new(Strategy::Full);
//! let compiled = compiler.compile(&prog).unwrap();
//! assert_eq!(compiled.decomposition.hpf_of(&compiled.program, 0), "A(BLOCK, *)");
//! let result = compiler.simulate(&compiled, 8, &prog.default_params()).unwrap();
//! assert!(result.cycles > 0);
//! ```

#![allow(clippy::needless_range_loop, clippy::manual_memcpy)]

pub mod pipeline;
pub mod report;

pub use pipeline::{
    rung_sim_options, sequential_cycles, CompileError, Compiled, Compiler, Degradation, Rung,
    Strategy,
};
pub use report::{render_profile, render_report};

// Re-export the sub-crates so downstream users need a single dependency.
pub use dct_decomp as decomp;
pub use dct_dep as dep;
pub use dct_ir as ir;
pub use dct_layout as layout;
pub use dct_linalg as linalg;
pub use dct_machine as machine;
pub use dct_spmd as spmd;
pub use dct_transform as transform;
