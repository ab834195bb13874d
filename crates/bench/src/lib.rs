//! # dct-bench
//!
//! The paper's benchmark suite (Section 6) in the affine IR, plus the
//! harness that regenerates every figure and table of the evaluation.

#![allow(clippy::needless_range_loop, clippy::manual_memcpy)]

pub mod ablate;
pub mod cache;
pub mod chaos;
pub mod explain;
pub mod fuzz;
pub mod harness;
pub mod native_check;
pub mod profile;
pub mod programs;
pub mod sweep;

pub use ablate::{all_ablations, Ablation, Variant};
pub use cache::{
    artifact_cache_key, cell_cache_key, CacheKey, CacheStats, KeyInputs, KeyMemo, ResultStore,
    CACHE_KEY_SCHEMA,
};
pub use chaos::{
    render_chaos, run_chaos, ChaosConfig, ChaosReport, Fault, FaultInjector, FaultPlan,
    FaultSite, RetryPolicy, RetryRung,
};
pub use explain::{explain, explain_cached, explain_json, explain_strategies, render_explain, ExplainResult, ExplainRun, StrategyExplain};
pub use harness::{atomic_write_sync, figure, run_figure, table1_parallel, FigureResult, FigureSpec, SpeedupPoint, StrategyCurve, Table1Row, ThreadBudget};
pub use native_check::{native_sweep, NATIVE_DIVERGES};
pub use sweep::{
    compute_cell_supervised, run_cells, run_sweep_supervised,
    scale_key, Cell, CellOutcome, CellRun, CellTask, SweepConfig, SweepReport, KINDS,
};
