//! The integrated compiler: parallelism exposure, decomposition, data
//! transformation and SPMD simulation, under the three configurations the
//! paper evaluates (BASE, COMP DECOMP, COMP DECOMP + DATA TRANSFORM).
//!
//! Compilation is **panic-free and self-healing**: every phase reports
//! out-of-model inputs as a [`DctError`], and [`Compiler::compile`] walks a
//! *degradation ladder* — a program that defeats `Full` decomposition is
//! retried under `CompDecomp`, then `Base`, then plain sequential
//! execution, with every downgrade recorded on the [`Compiled`] artifact
//! and surfaced in the optimization report.

use dct_decomp::{base_decomposition, decompose, CompDecomp, DataDecomp, Decomposition};
use dct_dep::{analyze_nest, DepConfig, NestDeps};
use dct_ir::{panic_message, DctError, DctResult, Phase, Program};
use dct_linalg::IntMat;
use dct_spmd::{simulate, CostModel, RunResult, SimOptions, SpmdOptions};
use dct_transform::{expose_parallelism, improve_inner_locality};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The three compiler configurations of Section 6.1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// Per-nest outermost-doall parallelization, original layouts, barriers
    /// after every nest (a traditional shared-memory parallelizer).
    Base,
    /// Global computation/data decomposition (Section 3); layouts left in
    /// FORTRAN order.
    CompDecomp,
    /// Computation decomposition plus the data transformations (Section 4).
    Full,
}

impl Strategy {
    pub const ALL: [Strategy; 3] = [Strategy::Base, Strategy::CompDecomp, Strategy::Full];

    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Base => "base",
            Strategy::CompDecomp => "comp decomp",
            Strategy::Full => "comp decomp + data transform",
        }
    }
}

/// One rung of the degradation ladder: the strategy actually realized,
/// which may be weaker than the one requested.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rung {
    Full,
    CompDecomp,
    Base,
    /// Everything on processor 0, original layouts: the unconditional
    /// floor of the ladder.
    Sequential,
}

impl Rung {
    /// The rung a strategy starts on.
    pub fn of(strategy: Strategy) -> Rung {
        match strategy {
            Strategy::Full => Rung::Full,
            Strategy::CompDecomp => Rung::CompDecomp,
            Strategy::Base => Rung::Base,
        }
    }

    /// The next-weaker rung, or `None` at the floor.
    pub fn next(self) -> Option<Rung> {
        match self {
            Rung::Full => Some(Rung::CompDecomp),
            Rung::CompDecomp => Some(Rung::Base),
            Rung::Base => Some(Rung::Sequential),
            Rung::Sequential => None,
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            Rung::Full => "comp decomp + data transform",
            Rung::CompDecomp => "comp decomp",
            Rung::Base => "base",
            Rung::Sequential => "sequential",
        }
    }
}

/// A recorded downgrade: why one rung was abandoned for the next.
#[derive(Clone, Debug)]
pub struct Degradation {
    pub from: Rung,
    pub to: Rung,
    pub reason: DctError,
}

/// Compilation failed on every rung, including the sequential floor.
#[derive(Clone, Debug)]
pub struct CompileError {
    /// The error at each attempted rung, strongest first.
    pub attempts: Vec<(Rung, DctError)>,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "compilation failed on every rung:")?;
        for (rung, e) in &self.attempts {
            write!(f, "\n  {}: {e}", rung.label())?;
        }
        Ok(())
    }
}

impl std::error::Error for CompileError {}

/// Result of compilation (before choosing a processor count).
pub struct Compiled {
    /// The program with each nest restructured for outermost parallelism.
    pub program: Program,
    /// Per-nest unimodular transformations applied by the exposure step.
    pub loop_transforms: Vec<IntMat>,
    /// Per-nest dependence summaries (of the transformed nests).
    pub deps: Vec<NestDeps>,
    /// The computation/data decomposition.
    pub decomposition: Decomposition,
    /// The strategy the user asked for.
    pub strategy: Strategy,
    /// The rung actually realized (== `Rung::of(strategy)` unless the
    /// ladder degraded).
    pub rung: Rung,
    /// Every downgrade taken on the way to `rung`, with its cause.
    pub degradations: Vec<Degradation>,
}

/// The compiler driver.
#[derive(Clone, Copy, Debug)]
pub struct Compiler {
    pub strategy: Strategy,
    /// Assumed lower bound on symbolic problem sizes during dependence
    /// analysis.
    pub param_min: i64,
}

impl Compiler {
    pub fn new(strategy: Strategy) -> Compiler {
        Compiler { strategy, param_min: 4 }
    }

    /// Run the analysis and decomposition phases, degrading rung by rung
    /// on failure. Each rung attempt runs behind a `catch_unwind` safety
    /// net, so even a residual internal panic becomes a downgrade instead
    /// of a crash.
    pub fn compile(&self, prog: &Program) -> Result<Compiled, CompileError> {
        let mut attempts = Vec::new();
        let mut degradations = Vec::new();
        let mut rung = Rung::of(self.strategy);
        loop {
            let attempt = catch_unwind(AssertUnwindSafe(|| self.try_rung(prog, rung)))
                .unwrap_or_else(|p| {
                    Err(DctError::internal(Phase::Transform, panic_message(p.as_ref())))
                });
            match attempt {
                Ok(mut c) => {
                    c.degradations = degradations;
                    return Ok(c);
                }
                Err(e) => {
                    attempts.push((rung, e.clone()));
                    match rung.next() {
                        Some(weaker) => {
                            degradations.push(Degradation { from: rung, to: weaker, reason: e });
                            rung = weaker;
                        }
                        None => return Err(CompileError { attempts }),
                    }
                }
            }
        }
    }

    /// Compile at exactly one rung; no fallback.
    fn try_rung(&self, prog: &Program, rung: Rung) -> DctResult<Compiled> {
        let cfg = DepConfig { nparams: prog.params.len(), param_min: self.param_min };
        // Step 1 (paper 3.2): restructure each nest to expose outermost
        // parallelism. The sequential floor skips restructuring entirely:
        // the original nests run as written, on one processor.
        let mut program = prog.clone();
        let mut loop_transforms = Vec::with_capacity(prog.nests.len());
        let mut deps = Vec::with_capacity(prog.nests.len());
        for (j, nest) in prog.nests.iter().enumerate() {
            if rung == Rung::Sequential {
                loop_transforms.push(IntMat::identity(nest.depth));
                // Dependence summaries are informational at this rung;
                // recover them when the analysis itself is healthy.
                let nd = catch_unwind(AssertUnwindSafe(|| analyze_nest(nest, cfg)))
                    .unwrap_or(NestDeps { vectors: vec![] });
                deps.push(nd);
                continue;
            }
            // Expose outermost parallelism, then order the remaining
            // sequential levels for per-processor cache locality (the
            // follow-up pass the paper assumes; also half of the base
            // compiler's loop optimizer).
            let exp = catch_unwind(AssertUnwindSafe(|| {
                let exp = expose_parallelism(nest, cfg);
                improve_inner_locality(&exp, cfg)
            }))
            .map_err(|p| {
                DctError::internal(Phase::Transform, panic_message(p.as_ref()))
                    .with_nest(j, &nest.name)
            })?;
            loop_transforms.push(exp.t.clone());
            deps.push(exp.deps.clone());
            program.nests[j] = exp.nest;
        }
        program.try_validate()?;

        // Step 2: decomposition.
        let decomposition = match rung {
            Rung::Full | Rung::CompDecomp => decompose(&program, &deps)?,
            Rung::Base => base_decomposition(&program, &deps),
            Rung::Sequential => sequential_decomposition(&program),
        };

        // Step 3: dry-run code generation. Codegen-time model violations
        // (unrealizable pipelines, out-of-range schedules, bad layouts) do
        // not depend on the processor count, so surfacing them here makes
        // `compile` the single failure point and keeps `simulate` clean.
        let check = SimOptions::new(2, program.default_params());
        let opts = SpmdOptions {
            procs: check.procs,
            params: check.params,
            transform_data: rung == Rung::Full,
            barrier_elision: !matches!(rung, Rung::Base | Rung::Sequential),
            cost: CostModel::default(),
        };
        dct_spmd::codegen(&program, &decomposition, &opts)?;

        Ok(Compiled {
            program,
            loop_transforms,
            deps,
            decomposition,
            strategy: self.strategy,
            rung,
            degradations: Vec::new(),
        })
    }

    /// Simulate the compiled program on `procs` processors.
    pub fn simulate(&self, c: &Compiled, procs: usize, params: &[i64]) -> DctResult<RunResult> {
        let opts = rung_sim_options(c.rung, procs, params.to_vec());
        checked_run(simulate(&c.program, &c.decomposition, &opts))
    }

    /// [`Compiler::simulate`] under a cooperative cancellation token. A
    /// supervisor holds a clone of the token; if it fires, the run aborts
    /// at the next sync-point boundary and this returns a [`DctError`] of
    /// kind `Cancelled` instead of a partial result.
    pub fn simulate_supervised(
        &self,
        c: &Compiled,
        procs: usize,
        params: &[i64],
        cancel: dct_ir::CancelToken,
    ) -> DctResult<RunResult> {
        let mut opts = rung_sim_options(c.rung, procs, params.to_vec());
        opts.cancel = Some(cancel);
        checked_run(simulate(&c.program, &c.decomposition, &opts))
    }

    /// The SPMD/simulation options that realize this strategy (before any
    /// degradation; [`Compiler::simulate`] follows the compiled rung).
    pub fn sim_options(&self, procs: usize, params: Vec<i64>) -> SimOptions {
        rung_sim_options(Rung::of(self.strategy), procs, params)
    }
}

/// A cancelled run carries only partial state; surface it as a structured
/// error so no caller can mistake it for a converged result.
fn checked_run(r: DctResult<RunResult>) -> DctResult<RunResult> {
    match r {
        Ok(r) if r.cancelled => Err(DctError::cancelled(
            Phase::Sim,
            "simulation cancelled at a sync-point boundary",
        )),
        other => other,
    }
}

/// The SPMD/simulation options that realize one rung.
pub fn rung_sim_options(rung: Rung, procs: usize, params: Vec<i64>) -> SimOptions {
    let mut o = SimOptions::new(procs, params);
    match rung {
        Rung::Base | Rung::Sequential => {
            o.transform_data = false;
            o.barrier_elision = false;
        }
        Rung::CompDecomp => {
            o.transform_data = false;
        }
        Rung::Full => {}
    }
    o
}

/// The sequential floor: a rank-0 decomposition (codegen promotes it to a
/// single-coordinate grid with every nest localized at processor 0) with
/// original layouts.
fn sequential_decomposition(prog: &Program) -> Decomposition {
    Decomposition {
        grid_rank: 0,
        foldings: vec![],
        comp: prog
            .nests
            .iter()
            .map(|n| CompDecomp {
                rows: vec![],
                parallel_levels: vec![false; n.depth],
                pipeline_level: None,
                misaligned_refs: 0,
            })
            .collect(),
        data: (0..prog.arrays.len()).map(|_| DataDecomp::default()).collect(),
        notes: vec!["sequential fallback: every nest runs on processor 0".into()],
    }
}

/// Sequential reference time: the base-compiled program on one processor.
pub fn sequential_cycles(prog: &Program, params: &[i64]) -> DctResult<u64> {
    let c = Compiler::new(Strategy::Base);
    let compiled = c.compile(prog).map_err(|e| {
        e.attempts
            .into_iter()
            .next_back()
            .map(|(_, e)| e)
            .unwrap_or_else(|| DctError::new(Phase::Decomp, "compilation failed"))
    })?;
    Ok(c.simulate(&compiled, 1, params)?.cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dct_ir::{Aff, Expr, ProgramBuilder};

    /// Figure 1(a) verbatim: the compiler must parallelize the *inner* loop
    /// of both nests, distribute rows, and report (BLOCK, *).
    fn figure1() -> Program {
        let mut pb = ProgramBuilder::new("fig1");
        let n = pb.param("N", 32);
        let a = pb.array("A", &[Aff::param(n), Aff::param(n)], 4);
        let b = pb.array("B", &[Aff::param(n), Aff::param(n)], 4);
        let c = pb.array("C", &[Aff::param(n), Aff::param(n)], 4);
        let _t = pb.time_loop(Aff::konst(2));

        let mut nb = pb.nest_builder("init");
        let j = nb.loop_var(Aff::konst(0), Aff::param(n) - 1);
        let i = nb.loop_var(Aff::konst(0), Aff::param(n) - 1);
        nb.assign(b, &[Aff::var(i), Aff::var(j)], Expr::Index(i));
        pb.init_nest(nb.build());
        let mut nb = pb.nest_builder("init2");
        let j = nb.loop_var(Aff::konst(0), Aff::param(n) - 1);
        let i = nb.loop_var(Aff::konst(0), Aff::param(n) - 1);
        nb.assign(c, &[Aff::var(i), Aff::var(j)], Expr::Index(j));
        pb.init_nest(nb.build());

        let mut nb = pb.nest_builder("add");
        let j = nb.loop_var(Aff::konst(0), Aff::param(n) - 1);
        let i = nb.loop_var(Aff::konst(0), Aff::param(n) - 1);
        let rhs = nb.read(b, &[Aff::var(i), Aff::var(j)]) + nb.read(c, &[Aff::var(i), Aff::var(j)]);
        nb.assign(a, &[Aff::var(i), Aff::var(j)], rhs);
        pb.nest(nb.build());

        let mut nb = pb.nest_builder("smooth");
        let j = nb.loop_var(Aff::konst(1), Aff::param(n) - 2);
        let i = nb.loop_var(Aff::konst(0), Aff::param(n) - 1);
        let rhs = (nb.read(a, &[Aff::var(i), Aff::var(j)])
            + nb.read(a, &[Aff::var(i), Aff::var(j) - 1])
            + nb.read(a, &[Aff::var(i), Aff::var(j) + 1]))
            * Expr::Const(0.333);
        nb.assign(a, &[Aff::var(i), Aff::var(j)], rhs);
        pb.nest(nb.build());
        pb.build()
    }

    #[test]
    fn figure1_full_pipeline() {
        let prog = figure1();
        let c = Compiler::new(Strategy::Full);
        let compiled = c.compile(&prog).unwrap();
        assert_eq!(compiled.rung, Rung::Full);
        assert!(compiled.degradations.is_empty());
        // Paper: DISTRIBUTE (BLOCK, *) for all three arrays.
        assert_eq!(compiled.decomposition.hpf_of(&compiled.program, 0), "A(BLOCK, *)");
        assert_eq!(compiled.decomposition.hpf_of(&compiled.program, 1), "B(BLOCK, *)");
        assert_eq!(compiled.decomposition.hpf_of(&compiled.program, 2), "C(BLOCK, *)");
        assert_eq!(compiled.decomposition.grid_rank, 1);
        // Simulation runs and produces a speedup at 8 processors.
        let params = prog.default_params();
        let seq = sequential_cycles(&prog, &params).unwrap();
        let r8 = c.simulate(&compiled, 8, &params).unwrap();
        assert!(r8.cycles < seq, "no speedup: {} vs {}", r8.cycles, seq);
    }

    #[test]
    fn strategies_differ_in_options() {
        let c = Compiler::new(Strategy::Base);
        let o = c.sim_options(4, vec![]);
        assert!(!o.transform_data && !o.barrier_elision);
        let c = Compiler::new(Strategy::CompDecomp);
        let o = c.sim_options(4, vec![]);
        assert!(!o.transform_data && o.barrier_elision);
        let c = Compiler::new(Strategy::Full);
        let o = c.sim_options(4, vec![]);
        assert!(o.transform_data && o.barrier_elision);
    }

    /// A decomposition that defeats `Full` (an unrealizable doacross
    /// pipeline on a depth-1 nest) must degrade down the ladder and still
    /// simulate correctly, with the downgrade recorded.
    #[test]
    fn degradation_ladder_rescues_unrealizable_pipeline() {
        // Nest 1 distributes A's dim 0 across the grid; nest 2 is a
        // depth-1 recurrence over that same dim, so the global solver
        // aligns (= distributes) its carried loop with no doall level left
        // to tile -> Full/CompDecomp codegen must reject it.
        let mut pb = ProgramBuilder::new("defeat-full");
        let n = pb.param("N", 16);
        let a = pb.array("A", &[Aff::param(n), Aff::param(n)], 4);
        let mut nb = pb.nest_builder("spread");
        let j = nb.loop_var(Aff::konst(0), Aff::param(n) - 1);
        let i = nb.loop_var(Aff::konst(0), Aff::param(n) - 1);
        let rhs = nb.read(a, &[Aff::var(i), Aff::var(j)]) + Expr::Const(1.0);
        nb.assign(a, &[Aff::var(i), Aff::var(j)], rhs);
        nb.freq(100);
        pb.nest(nb.build());
        let mut nb = pb.nest_builder("chain");
        let i = nb.loop_var(Aff::konst(1), Aff::param(n) - 1);
        let rhs = nb.read(a, &[Aff::var(i) - 1, Aff::konst(0)]) + Expr::Const(1.0);
        nb.assign(a, &[Aff::var(i), Aff::konst(0)], rhs);
        pb.nest(nb.build());
        let prog = pb.build();

        let c = Compiler::new(Strategy::Full);
        let compiled = c.compile(&prog).unwrap();
        assert!(
            !compiled.degradations.is_empty(),
            "expected the ladder to degrade, got rung {:?}",
            compiled.rung
        );
        assert_ne!(compiled.rung, Rung::Full);
        let first = &compiled.degradations[0];
        assert_eq!(first.from, Rung::Full);
        assert_eq!(first.reason.phase, dct_ir::Phase::Spmd);
        assert_eq!(first.reason.nest_name.as_deref(), Some("chain"));
        // The degraded program still simulates, and computes the same
        // values as the sequential floor.
        let params = prog.default_params();
        let r = c.simulate(&compiled, 8, &params).unwrap();
        assert!(r.cycles > 0 && !r.timed_out);
        let seq = Compiler::new(Strategy::Base);
        let seq_c = seq.compile(&prog).unwrap();
        let seq_r = seq.simulate(&seq_c, 1, &params).unwrap();
        assert_eq!(r.checksum.to_bits(), seq_r.checksum.to_bits(), "degraded run must stay bit-exact");
        // ... and the downgrade is visible in the report.
        let rep = crate::report::render_report(&compiled);
        assert!(rep.contains("degraded"), "report must show the downgrade:\n{rep}");
        assert!(rep.contains("chain"), "report must name the offending nest:\n{rep}");
    }

    /// The sequential floor accepts what Base accepts, and the ladder
    /// never changes numeric results at any rung.
    #[test]
    fn rungs_share_bit_exact_results() {
        // Compare element values in original index order: the run checksum
        // sums storage in *layout* order, so data transformation changes
        // its rounding even when every element is bit-identical.
        let prog = figure1();
        let params = prog.default_params();
        let mut all = Vec::new();
        for s in Strategy::ALL {
            let c = Compiler::new(s);
            let compiled = c.compile(&prog).unwrap();
            let opts = c.sim_options(4, params.clone());
            let (_, v) = crate::spmd::simulate_with_values(
                &compiled.program,
                &compiled.decomposition,
                &opts,
            )
            .unwrap();
            all.push(v);
        }
        for (s, v) in all.iter().enumerate().skip(1) {
            for (x, (a, b)) in all[0].iter().zip(v).enumerate() {
                for (k, (p, q)) in a.iter().zip(b).enumerate() {
                    assert!(
                        p.to_bits() == q.to_bits(),
                        "strategy {s} diverges at array {x} elem {k}: {p} vs {q}"
                    );
                }
            }
        }
    }
}
