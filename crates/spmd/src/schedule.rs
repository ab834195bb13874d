//! The lowered schedule of a compiled [`SpmdProgram`]: what runs, in what
//! order, on which processors.
//!
//! The paper's compiler emits one SPMD program per decomposition and every
//! back end runs *that* program. This module is the one place the program
//! is unrolled into executable structure — the step sequence with its
//! syncs, gate evaluation, the doacross plan of a pipelined nest, and
//! array read-out — so the simulator ([`crate::exec`]), the native
//! threaded backend (`dct-native`) and the C emitter ([`crate::emit_c`])
//! cannot drift apart: a new [`SyncKind`] or gate form is added here once.
//! What the back ends keep to themselves is how an iteration executes
//! (cycle accounting and segment kernels versus atomic stores) and how a
//! sync is realized (clock joins versus real barriers and channels).

use crate::codegen::{Gate, LevelSched, SpmdNest, SpmdProgram, SyncKind};
use dct_ir::{Aff, ArrayRef};

/// One nest execution in program order.
#[derive(Clone, Copy)]
pub struct Step<'a> {
    pub nest: &'a SpmdNest,
    /// Index into `sp.init` (when `init`) or `sp.nests`.
    pub idx: usize,
    pub init: bool,
    /// Sync executed after the nest.
    pub sync: SyncKind,
}

fn init_step(sp: &SpmdProgram, idx: usize) -> Step<'_> {
    Step { nest: &sp.init[idx], idx, init: true, sync: SyncKind::Barrier }
}

fn body_step(sp: &SpmdProgram, idx: usize) -> Step<'_> {
    let nest = &sp.nests[idx];
    Step { nest, idx, init: false, sync: nest.sync_after }
}

/// Initialization steps of the program text: every init nest is followed
/// by a barrier.
pub fn init_steps(sp: &SpmdProgram) -> impl Iterator<Item = Step<'_>> {
    (0..sp.init.len()).map(move |k| init_step(sp, k))
}

/// Compute steps of one time step of the program text, each with the sync
/// codegen placed after it.
pub fn body_steps(sp: &SpmdProgram) -> impl Iterator<Item = Step<'_>> {
    (0..sp.nests.len()).map(move |j| body_step(sp, j))
}

/// The executed step sequence: [`init_steps`], then [`body_steps`] once
/// per time step with the time parameter bound to the step number. A
/// cursor rather than an `Iterator` because each step lends out the
/// parameter binding it runs under.
pub struct Steps<'a> {
    sp: &'a SpmdProgram,
    params: Vec<i64>,
    /// Steps handed out so far.
    k: usize,
}

impl<'a> Steps<'a> {
    pub fn new(sp: &'a SpmdProgram) -> Steps<'a> {
        let mut params = sp.params.clone();
        if let Some(tp) = sp.time_param {
            params[tp] = 0;
        }
        Steps { sp, params, k: 0 }
    }

    /// The next step and the parameter binding it runs under. The very
    /// last nest execution carries no sync: program end (the simulator's
    /// final clock max, the native thread join) plays that role.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(Step<'a>, &[i64])> {
        let sp = self.sp;
        let (ninit, n) = (sp.init.len(), sp.nests.len());
        let step = if self.k < ninit {
            init_step(sp, self.k)
        } else {
            let b = self.k - ninit;
            let total = n * sp.time_steps.max(0) as usize;
            if b >= total {
                return None;
            }
            if let Some(tp) = sp.time_param {
                self.params[tp] = (b / n) as i64;
            }
            let mut step = body_step(sp, b % n);
            if b + 1 == total {
                step.sync = SyncKind::None;
            }
            step
        };
        self.k += 1;
        Some((step, &self.params))
    }
}

/// The doacross plan of one pipelined nest execution: chain members run
/// the tiles in order, each tile behind the predecessor's same tile.
pub struct PipelinePlan {
    /// The loop level the tiles block.
    pub tile_level: usize,
    /// Inclusive `(lo, hi)` ranges along `tile_level`, in pipeline order.
    /// Rounding the tile size up can leave trailing ranges empty
    /// (`lo > hi`); they still take part in the handoff protocol.
    pub tiles: Vec<(i64, i64)>,
    /// Participants grouped into chains (equal coordinates on every grid
    /// dimension but the pipeline's), each ordered by pipeline coordinate.
    pub chains: Vec<Vec<usize>>,
}

/// Processor-side view of the schedule: grid coordinates resolved once,
/// gates and pipelines evaluated against them.
pub struct Schedule<'a> {
    sp: &'a SpmdProgram,
    coords: Vec<Vec<usize>>,
}

impl<'a> Schedule<'a> {
    pub fn new(sp: &'a SpmdProgram) -> Schedule<'a> {
        Schedule { sp, coords: (0..sp.nprocs).map(|p| sp.coords_of(p)).collect() }
    }

    /// Per-processor grid coordinates (the loop walks resolve a
    /// distributed level's owner coordinate themselves).
    pub fn coords(&self) -> &[Vec<usize>] {
        &self.coords
    }

    /// Grid coordinate of `proc` on `proc_dim` (0 off the grid).
    fn coord(&self, proc: usize, proc_dim: usize) -> i64 {
        self.coords[proc].get(proc_dim).map_or(0, |&c| c as i64)
    }

    /// The grid coordinate a gate admits under `params`.
    fn gate_owner(&self, g: &Gate, params: &[i64]) -> i64 {
        let v = g.aff.eval(&[], params);
        let procs = self.sp.grid.get(g.proc_dim).map_or(1, |&p| p as i64).max(1);
        if g.extent >= i64::MAX / 2 {
            // No array is distributed on this dim: the gate value is the
            // coordinate itself.
            v.rem_euclid(procs)
        } else {
            g.folding.owner(v, g.extent, procs)
        }
    }

    /// Does `proc` execute `nest` under `params`? A replicated-write nest
    /// runs on every processor (each fills its own copy); otherwise every
    /// gate must admit the processor's coordinate.
    pub fn participates(&self, proc: usize, nest: &SpmdNest, params: &[i64]) -> bool {
        nest.replicated_write
            || nest.gates.iter().all(|g| self.coord(proc, g.proc_dim) == self.gate_owner(g, params))
    }

    /// The processors executing `nest` under `params`, ascending.
    pub fn participants(&self, nest: &SpmdNest, params: &[i64]) -> Vec<usize> {
        (0..self.sp.nprocs).filter(|&p| self.participates(p, nest, params)).collect()
    }

    /// Is every time step the same work at the same addresses? True when no
    /// loop bound, array subscript, distribution offset or gate of any
    /// compute nest has a non-zero coefficient on the time parameter, so
    /// the step number can reach neither an iteration set nor an address
    /// (statement bodies hold no parameters at all). Vacuously true
    /// without a time loop.
    pub fn time_invariant(&self) -> bool {
        let Some(tp) = self.sp.time_param else { return true };
        let free = |a: &Aff| a.param_coeffs.get(tp).is_none_or(|&c| c == 0);
        let free_ref = |r: &ArrayRef| {
            let m = &r.access.param_mat;
            tp >= m.cols() || (0..m.rows()).all(|d| m[(d, tp)] == 0)
        };
        self.sp.nests.iter().all(|n| {
            let bounds = n.source.bounds.iter().flat_map(|b| b.los.iter().chain(&b.his));
            let offsets = n.sched.iter().filter_map(|l| match l {
                LevelSched::Dist { offset, .. } => Some(offset),
                LevelSched::Seq => None,
            });
            bounds.map(|f| &f.aff).chain(offsets).chain(n.gates.iter().map(|g| &g.aff)).all(free)
                && n.source.body.iter().all(|s| {
                    let (writes, reads) = s.refs();
                    writes.into_iter().chain(reads).all(free_ref)
                })
        })
    }

    /// The doacross plan of `nest` under `params`; `None` when the nest is
    /// not pipelined (it runs as a doall over its participants).
    pub fn pipeline_plan(&self, nest: &SpmdNest, params: &[i64]) -> Option<PipelinePlan> {
        let spec = nest.pipeline?;
        let pipe_dim = match nest.sched[spec.seq_level] {
            LevelSched::Dist { proc_dim, .. } => proc_dim,
            LevelSched::Seq => 0,
        };
        // Tile bounds must be outer-invariant (codegen tiles a doall level).
        let zeros = vec![0i64; nest.source.depth];
        let bounds = &nest.source.bounds[spec.tile_level];
        let tiles =
            tile_ranges(bounds.eval_lo(&zeros, params), bounds.eval_hi(&zeros, params), spec.tiles);
        let chains = self.chains(&self.participants(nest, params), pipe_dim);
        Some(PipelinePlan { tile_level: spec.tile_level, tiles, chains })
    }

    /// Group `parts` into chains along `pipe_dim`: same coordinates on
    /// every other grid dimension, ordered by pipeline coordinate.
    fn chains(&self, parts: &[usize], pipe_dim: usize) -> Vec<Vec<usize>> {
        let mut chains: std::collections::BTreeMap<Vec<usize>, Vec<usize>> = Default::default();
        for &p in parts {
            let mut key = self.coords[p].clone();
            if pipe_dim < key.len() {
                key[pipe_dim] = 0;
            }
            chains.entry(key).or_default().push(p);
        }
        chains
            .into_values()
            .map(|mut chain| {
                chain.sort_by_key(|&p| self.coord(p, pipe_dim));
                chain
            })
            .collect()
    }
}

/// Block `[tlo, thi]` into at most `want` equal tiles (none when the range
/// is empty).
fn tile_ranges(tlo: i64, thi: i64, want: i64) -> Vec<(i64, i64)> {
    let span = (thi - tlo + 1).max(0);
    if span == 0 {
        return Vec::new();
    }
    let ntiles = want.min(span).max(1);
    let tile = (span + ntiles - 1) / ntiles;
    (0..ntiles)
        .map(|r| {
            let rlo = tlo + r * tile;
            (rlo, (rlo + tile - 1).min(thi))
        })
        .collect()
}

/// The values of array `x` in original index order (first dimension
/// fastest), read out of its layout-transformed `arena`.
pub fn read_out(sp: &SpmdProgram, x: usize, arena: &[f64]) -> Vec<f64> {
    let layout = &sp.layouts[x].layout;
    let dims = layout.orig_dims();
    let mut out = Vec::with_capacity(dims.iter().product::<i64>().max(0) as usize);
    let mut idx = vec![0i64; dims.len()];
    loop {
        out.push(arena[layout.address_of(&idx) as usize]);
        // Odometer increment.
        let mut d = 0;
        loop {
            if d == dims.len() {
                return out;
            }
            idx[d] += 1;
            if idx[d] < dims[d] {
                break;
            }
            idx[d] = 0;
            d += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::{codegen, PipelineSpec, SpmdOptions};
    use crate::cost::CostModel;
    use dct_decomp::{grid_shape, Folding};
    use dct_dep::{analyze_nest, DepConfig};
    use dct_ir::{Aff, Expr, ProgramBuilder};

    const N: i64 = 16;
    const STEPS: i64 = 3;

    /// `A(N,N)`: one init nest, then `STEPS` time steps of a column sweep
    /// (`j` carried, `i` doall) and a scaling nest.
    fn time_stepped(procs: usize) -> SpmdProgram {
        let mut pb = ProgramBuilder::new("p");
        let n = pb.param("N", N);
        let a = pb.array("A", &[Aff::param(n), Aff::param(n)], 8);
        pb.time_loop(Aff::konst(STEPS));
        let mut nb = pb.nest_builder("init");
        let j = nb.loop_var(Aff::konst(0), Aff::param(n) - 1);
        let i = nb.loop_var(Aff::konst(0), Aff::param(n) - 1);
        nb.assign(a, &[Aff::var(i), Aff::var(j)], Expr::Index(i));
        pb.init_nest(nb.build());
        let mut nb = pb.nest_builder("sweep");
        let j = nb.loop_var(Aff::konst(1), Aff::param(n) - 1);
        let i = nb.loop_var(Aff::konst(0), Aff::param(n) - 1);
        let rhs = nb.read(a, &[Aff::var(i), Aff::var(j) - 1]) * Expr::Const(0.5);
        nb.assign(a, &[Aff::var(i), Aff::var(j)], rhs);
        pb.nest(nb.build());
        let mut nb = pb.nest_builder("scale");
        let j = nb.loop_var(Aff::konst(0), Aff::param(n) - 1);
        let i = nb.loop_var(Aff::konst(0), Aff::param(n) - 1);
        let rhs = nb.read(a, &[Aff::var(i), Aff::var(j)]) * Expr::Const(2.0);
        nb.assign(a, &[Aff::var(i), Aff::var(j)], rhs);
        pb.nest(nb.build());
        let prog = pb.build();
        let cfg = DepConfig { nparams: prog.params.len(), param_min: 4 };
        let deps: Vec<_> = prog.nests.iter().map(|x| analyze_nest(x, cfg)).collect();
        let dec = dct_decomp::decompose(&prog, &deps).expect("decompose");
        let opts = SpmdOptions {
            procs,
            params: prog.default_params(),
            transform_data: true,
            barrier_elision: true,
            cost: CostModel::default(),
        };
        codegen(&prog, &dec, &opts).expect("codegen")
    }

    #[test]
    fn step_sequence_of_a_time_stepped_program() {
        let mut sp = time_stepped(4);
        sp.nests[0].sync_after = SyncKind::ProducerWait;
        sp.nests[1].sync_after = SyncKind::Barrier;
        let tp = sp.time_param.expect("time-stepped");
        let mut got = Vec::new();
        let mut steps = Steps::new(&sp);
        while let Some((s, params)) = steps.next() {
            got.push((s.init, s.idx, s.sync, params[tp]));
        }
        let mut want = vec![(true, 0, SyncKind::Barrier, 0)];
        for t in 0..STEPS {
            want.push((false, 0, SyncKind::ProducerWait, t));
            want.push((false, 1, SyncKind::Barrier, t));
        }
        // The last nest of the last step is unsynchronized.
        want.last_mut().expect("steps").2 = SyncKind::None;
        assert_eq!(got, want);

        // The program text keeps every sync (the C time loop cannot drop
        // the last one).
        let text: Vec<_> = init_steps(&sp).chain(body_steps(&sp)).map(|s| s.sync).collect();
        assert_eq!(text, [SyncKind::Barrier, SyncKind::ProducerWait, SyncKind::Barrier]);

        sp.time_steps = 0;
        let mut steps = Steps::new(&sp);
        assert!(steps.next().is_some_and(|(s, _)| s.init));
        assert!(steps.next().is_none());
    }

    /// A pipelined nest's chains partition its participants and its tiles
    /// partition the tiled range, across grid shapes, tile counts and a
    /// gated / ungated second grid dimension.
    #[test]
    fn pipeline_plan_partitions_participants_and_tiles() {
        for procs in [1usize, 3, 8, 32] {
            let mut sp = time_stepped(procs);
            sp.grid = grid_shape(procs, 2).expect("grid");
            // sweep: j (level 0) carried and distributed on grid dim 0,
            // i (level 1) tiled over 0..=N-1.
            let span = N;
            for tiles in [1, 4, span + 1] {
                for gated in [false, true] {
                    let nest = &mut sp.nests[0];
                    nest.sched = vec![
                        LevelSched::Dist {
                            proc_dim: 0,
                            folding: Folding::Block,
                            extent: N,
                            offset: Aff::konst(0),
                        },
                        LevelSched::Seq,
                    ];
                    nest.pipeline = Some(PipelineSpec { seq_level: 0, tile_level: 1, tiles });
                    nest.gates.clear();
                    if gated {
                        nest.gates.push(Gate {
                            proc_dim: 1,
                            folding: Folding::Block,
                            extent: i64::MAX / 2,
                            aff: Aff::konst(0),
                        });
                    }
                    let sched = Schedule::new(&sp);
                    let nest = &sp.nests[0];
                    let plan = sched.pipeline_plan(nest, &sp.params).expect("pipelined");
                    let what = format!("procs {procs} tiles {tiles} gated {gated}");

                    let parts = sched.participants(nest, &sp.params);
                    let want_parts = if gated { sp.grid[0] } else { procs };
                    assert_eq!(parts.len(), want_parts, "{what}");
                    let mut members = plan.chains.concat();
                    members.sort_unstable();
                    assert_eq!(members, parts, "{what}: chains partition the participants");
                    for chain in &plan.chains {
                        assert!(
                            chain.windows(2).all(|w| {
                                sched.coord(w[0], 0) < sched.coord(w[1], 0)
                                    && sched.coord(w[0], 1) == sched.coord(w[1], 1)
                            }),
                            "{what}: chain {chain:?} is not ordered along the pipeline"
                        );
                    }

                    assert_eq!(plan.tile_level, 1);
                    assert_eq!(plan.tiles.len() as i64, tiles.min(span), "{what}");
                    let covered: Vec<i64> =
                        plan.tiles.iter().flat_map(|&(lo, hi)| lo..=hi).collect();
                    assert_eq!(covered, (0..span).collect::<Vec<_>>(), "{what}: tiles partition");
                }
            }
        }
    }

    /// Each of the four places the time parameter can enter — a bound, a
    /// subscript, a distribution offset, a gate — rules time invariance
    /// out, in compute nests only.
    #[test]
    fn time_invariance_sees_bounds_subscripts_offsets_and_gates() {
        let base = || time_stepped(4);
        let tp = base().time_param.expect("time-stepped");
        assert!(Schedule::new(&base()).time_invariant());
        type Edit = fn(&mut SpmdProgram, usize);
        let edits: [(&str, Edit); 5] = [
            ("bound", |sp, tp| sp.nests[0].source.bounds[1].los[0].aff = Aff::param(tp)),
            ("write subscript", |sp, tp| {
                sp.nests[1].source.body[0].lhs.access.param_mat[(0, tp)] = 1
            }),
            ("read subscript", |sp, tp| {
                let Expr::Bin(_, read, _) = &mut sp.nests[0].source.body[0].rhs else { return };
                if let Expr::Ref(r) = &mut **read {
                    r.access.param_mat[(1, tp)] = -1;
                }
            }),
            ("offset", |sp, tp| {
                let (proc_dim, folding) = (0, Folding::Block);
                sp.nests[1].sched[0] =
                    LevelSched::Dist { proc_dim, folding, extent: N, offset: Aff::param(tp) }
            }),
            ("gate", |sp, tp| {
                let (proc_dim, folding) = (0, Folding::Block);
                sp.nests[0].gates.push(Gate { proc_dim, folding, extent: N, aff: Aff::param(tp) })
            }),
        ];
        for (what, edit) in edits {
            let mut sp = base();
            edit(&mut sp, tp);
            assert!(!Schedule::new(&sp).time_invariant(), "{what}");
        }
        // Init nests run once, before the time loop.
        let mut sp = base();
        sp.init[0].source.bounds[0].his[0].aff = Aff::param(tp);
        assert!(Schedule::new(&sp).time_invariant());
        sp.time_param = None;
        assert!(Schedule::new(&sp).time_invariant());
    }

    #[test]
    fn empty_tile_range_has_no_tiles() {
        assert!(tile_ranges(5, 4, 8).is_empty());
        // Rounding the tile size up leaves the trailing tile empty.
        assert_eq!(tile_ranges(0, 4, 4), [(0, 1), (2, 3), (4, 4), (6, 4)]);
    }

    #[test]
    fn doall_nests_have_no_plan_and_replicated_writes_run_everywhere() {
        let mut sp = time_stepped(4);
        let sched = Schedule::new(&sp);
        assert!(sched.pipeline_plan(&sp.nests[1], &sp.params).is_none());
        drop(sched);
        let nest = &mut sp.init[0];
        nest.replicated_write = true;
        nest.gates.push(Gate {
            proc_dim: 0,
            folding: Folding::Block,
            extent: i64::MAX / 2,
            aff: Aff::konst(0),
        });
        let sched = Schedule::new(&sp);
        assert_eq!(sched.participants(&sp.init[0], &sp.params), [0, 1, 2, 3]);
    }
}
