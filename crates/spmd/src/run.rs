//! High-level simulation entry point: program + decomposition + options in,
//! cycles and statistics out.

use crate::codegen::{codegen, SpmdOptions};
use crate::cost::CostModel;
use crate::exec::{Executor, RunResult};
use dct_decomp::Decomposition;
use dct_ir::{DctResult, Program};
use dct_machine::MachineConfig;

/// Options of one simulated run.
#[derive(Clone, Debug)]
pub struct SimOptions {
    pub procs: usize,
    /// Binding for the program's real parameters (time slot may hold
    /// anything; it is rewritten during execution).
    pub params: Vec<i64>,
    /// Apply the data transformations (Section 4)?
    pub transform_data: bool,
    /// Apply barrier elision / lock conversion?
    pub barrier_elision: bool,
    /// Apply the address-calculation optimizations (Section 4.3)?
    pub addr_opt: bool,
    /// Machine configuration; `None` = DASH preset for `procs`.
    pub machine: Option<MachineConfig>,
    /// Execute innermost loops through the strided segment engine
    /// (default). The general walk produces bit-identical results; the
    /// differential tests flip this to prove it.
    pub fast_path: bool,
    /// Inert (never read: the fused kernels run every strided segment);
    /// goes with the follow-up benchmark PR.
    pub seg_kernels: bool,
    /// Run the happens-before race detector alongside execution (pure
    /// observer: cycles and results are unchanged; the run result gains
    /// a `RaceReport`).
    pub race_detect: bool,
    /// Run the memory-behavior profiler alongside execution (pure
    /// observer: cycles and results are unchanged; the run result gains
    /// a `MemProfile` with per-nest/array/processor miss classification
    /// and the true/false sharing split).
    pub profile: bool,
    /// Inert (never read); goes with the follow-up benchmark PR.
    pub threads: usize,
    /// Abort a runaway simulation once the slowest processor clock exceeds
    /// this many simulated cycles; the result comes back `timed_out`.
    pub max_cycles: Option<u64>,
    /// Abort a runaway simulation after this many host wall-clock seconds.
    pub max_wall_secs: Option<f64>,
    /// Cooperative cancellation: a supervisor (sweep watchdog) sets the
    /// token from another thread and the run aborts at the next sync-point
    /// boundary with `RunResult::cancelled` — a stuck cell dies at a
    /// well-defined schedule point instead of relying on the cycle budget.
    pub cancel: Option<dct_ir::CancelToken>,
}

impl SimOptions {
    pub fn new(procs: usize, params: Vec<i64>) -> SimOptions {
        SimOptions {
            procs,
            params,
            transform_data: true,
            barrier_elision: true,
            addr_opt: true,
            machine: None,
            fast_path: true,
            seg_kernels: true,
            race_detect: false,
            profile: false,
            threads: 1,
            max_cycles: None,
            max_wall_secs: None,
            cancel: None,
        }
    }
}

fn build_executor<'a>(
    prog: &Program,
    opts: &SimOptions,
    sp: &'a crate::codegen::SpmdProgram,
    cost: CostModel,
) -> Executor<'a> {
    let _ = prog;
    let machine = opts.machine.clone().unwrap_or_else(|| MachineConfig::dash(opts.procs));
    let mut ex = Executor::new(sp, machine, cost);
    ex.fast_path = opts.fast_path;
    ex.race_detect = opts.race_detect;
    ex.profile = opts.profile;
    ex.max_cycles = opts.max_cycles;
    ex.max_wall = opts.max_wall_secs.map(std::time::Duration::from_secs_f64);
    ex.cancel = opts.cancel.clone();
    ex
}

/// The host's available parallelism, which clamps the bench harness's
/// `--workers`. Inert as a simulation option; the name goes with the
/// follow-up benchmark PR.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn spmd_options(opts: &SimOptions, cost: CostModel) -> SpmdOptions {
    SpmdOptions {
        procs: opts.procs,
        params: opts.params.clone(),
        transform_data: opts.transform_data,
        barrier_elision: opts.barrier_elision,
        cost,
    }
}

/// Lower one configuration to its concretized [`SpmdProgram`] without
/// executing it — the same codegen (schedule, sync placement, layouts)
/// `simulate` runs on, exposed so other execution backends (`emit_c`
/// consumers, the native multithreaded backend) run the *certified*
/// schedule rather than re-deriving one.
pub fn lower(
    prog: &Program,
    dec: &Decomposition,
    opts: &SimOptions,
) -> DctResult<crate::codegen::SpmdProgram> {
    let cost = CostModel { addr_opt: opts.addr_opt, ..CostModel::default() };
    codegen(prog, dec, &spmd_options(opts, cost))
}

/// Compile and execute one configuration.
pub fn simulate(prog: &Program, dec: &Decomposition, opts: &SimOptions) -> DctResult<RunResult> {
    let cost = CostModel { addr_opt: opts.addr_opt, ..CostModel::default() };
    let sp = codegen(prog, dec, &spmd_options(opts, cost))?;
    let mut ex = build_executor(prog, opts, &sp, cost);
    Ok(ex.run())
}

/// Simulate and also return the final contents of every array (original
/// index order) for correctness checks.
pub fn simulate_with_values(
    prog: &Program,
    dec: &Decomposition,
    opts: &SimOptions,
) -> DctResult<(RunResult, Vec<Vec<f64>>)> {
    let cost = CostModel { addr_opt: opts.addr_opt, ..CostModel::default() };
    let sp = codegen(prog, dec, &spmd_options(opts, cost))?;
    let mut ex = build_executor(prog, opts, &sp, cost);
    let res = ex.run();
    let vals = (0..prog.arrays.len()).map(|x| ex.values(x)).collect();
    Ok((res, vals))
}
