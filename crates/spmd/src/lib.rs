//! # dct-spmd
//!
//! SPMD code generation and deterministic parallel execution over the
//! simulated machine: iteration partitioning (block / cyclic /
//! block-cyclic, owner-computes, localized and pipelined nests), barrier
//! placement and elision, address-cost annotation, and the executor
//! that produces per-processor cycle counts and coherence statistics.

#![allow(clippy::needless_range_loop, clippy::manual_memcpy)]

pub mod codegen;
pub mod cost;
pub mod emit_c;
pub mod exec;
pub mod kernel;
pub mod race;
pub mod replay;
pub mod run;
pub mod schedule;

pub use codegen::{codegen, Gate, LevelSched, PipelineSpec, SpmdNest, SpmdOptions, SpmdProgram, StmtCost, SyncKind};
pub use cost::CostModel;
pub use dct_ir::{Race, RaceAccess, RaceKind, RaceReport};
pub use emit_c::{emit_c, emit_runtime_header};
pub use exec::{owned_iter, Executor, RunResult};
pub use race::Detector;
pub use replay::MemoOutcome;
pub use run::{default_threads, lower, simulate, simulate_with_values, SimOptions};
pub use schedule::{PipelinePlan, Schedule, Step, Steps};
