//! SPMD code generation: turn a program + decomposition into per-processor
//! schedules, synchronization placement, layouts and address-cost
//! annotations, all concretized for a given processor count and parameter
//! binding.

use crate::cost::CostModel;
use dct_decomp::{grid_shape, CompDecomp, CompRow, Decomposition, Folding};
use dct_ir::{Aff, DctError, DctResult, LoopNest, Phase, Program};
use dct_layout::{synthesize_layouts, ArrayLayout};

/// How one loop level is executed.
#[derive(Clone, Debug)]
pub enum LevelSched {
    /// Every participating processor runs the full range.
    Seq,
    /// The level is spread across virtual processor dimension `proc_dim`:
    /// a processor with grid coordinate `q` runs the iterations `v` with
    /// `folding.owner(v + offset, extent, P) == q`.
    Dist { proc_dim: usize, folding: Folding, extent: i64, offset: Aff },
}

/// A participation gate: only processors whose grid coordinate on
/// `proc_dim` equals `folding.owner(aff, extent, P)` execute the nest (the
/// owner may vary with the time step, e.g. LU's pivot-column owner).
#[derive(Clone, Debug)]
pub struct Gate {
    pub proc_dim: usize,
    pub folding: Folding,
    pub extent: i64,
    pub aff: Aff,
}

/// Doacross pipelining of a nest whose distributed level carries a
/// dependence: the parallel `tile_level` is blocked into `tiles` chunks and
/// processors proceed tile by tile behind their predecessor.
#[derive(Clone, Copy, Debug)]
pub struct PipelineSpec {
    /// The distributed, dependence-carrying level.
    pub seq_level: usize,
    /// The level that is tiled to form the pipeline stages.
    pub tile_level: usize,
    /// Number of tiles (pipeline stages).
    pub tiles: i64,
}

/// Synchronization required after a nest completes (each time step).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SyncKind {
    /// Full barrier across all processors.
    Barrier,
    /// Consumers wait for the (localized) producer: max-clock join plus a
    /// lock handoff, without the full barrier cost.
    ProducerWait,
    /// No synchronization needed (accesses stay owner-aligned).
    None,
}

/// Precomputed per-statement cycle costs.
#[derive(Clone, Debug)]
pub struct StmtCost {
    pub flop_cycles: u64,
    /// Extra address-arithmetic cycles for the write access.
    pub write_extra: u64,
    /// Extra cycles per read access, in `Expr::collect_refs` order.
    pub read_extras: Vec<u64>,
}

/// One compiled nest.
#[derive(Clone, Debug)]
pub struct SpmdNest {
    pub source: LoopNest,
    pub sched: Vec<LevelSched>,
    pub gates: Vec<Gate>,
    pub pipeline: Option<PipelineSpec>,
    pub stmt_costs: Vec<StmtCost>,
    pub sync_after: SyncKind,
    /// The nest writes a replicated array: every processor executes all
    /// iterations against its own copy.
    pub replicated_write: bool,
}

/// The fully concretized SPMD program.
pub struct SpmdProgram {
    pub nprocs: usize,
    /// Physical processors per virtual grid dimension (product == nprocs,
    /// except when nprocs does not factor; see `grid_shape`).
    pub grid: Vec<usize>,
    pub layouts: Vec<ArrayLayout>,
    /// Array names, for diagnostics (race reports, profiles).
    pub array_names: Vec<String>,
    /// Concrete array extents under the parameter binding.
    pub extents: Vec<Vec<i64>>,
    /// Byte base address of each array.
    pub bases: Vec<u64>,
    /// Per-processor copy stride in bytes (0 = shared, one copy).
    pub repl_stride: Vec<u64>,
    pub elem_bytes: Vec<u64>,
    pub init: Vec<SpmdNest>,
    pub nests: Vec<SpmdNest>,
    /// Parameter binding (the time slot, if any, is rewritten per step).
    pub params: Vec<i64>,
    pub time_param: Option<usize>,
    pub time_steps: i64,
}

impl SpmdProgram {
    /// Grid coordinates of a linear processor id.
    pub fn coords_of(&self, proc: usize) -> Vec<usize> {
        let mut q = proc;
        let mut out = Vec::with_capacity(self.grid.len());
        for &g in &self.grid {
            out.push(q % g);
            q /= g;
        }
        out
    }
}

/// Options for code generation.
#[derive(Clone, Debug)]
pub struct SpmdOptions {
    pub procs: usize,
    pub params: Vec<i64>,
    pub transform_data: bool,
    pub barrier_elision: bool,
    pub cost: CostModel,
}

/// Compile `prog` under decomposition `dec`.
pub fn codegen(prog: &Program, dec: &Decomposition, opts: &SpmdOptions) -> DctResult<SpmdProgram> {
    if opts.params.len() < prog.params.len() {
        return Err(DctError::new(
            Phase::Spmd,
            format!(
                "parameter binding has {} values, program needs {}",
                opts.params.len(),
                prog.params.len()
            ),
        ));
    }
    if dec.comp.len() != prog.nests.len() {
        return Err(DctError::new(
            Phase::Spmd,
            format!(
                "decomposition covers {} nests, program has {}",
                dec.comp.len(),
                prog.nests.len()
            ),
        ));
    }
    // A rank-0 decomposition (no parallelism found anywhere) still needs a
    // grid so that exactly one processor executes each nest: promote it to
    // rank 1 with every nest localized to coordinate 0.
    let dec_storage;
    let dec = if dec.grid_rank == 0 {
        let mut d = dec.clone();
        d.grid_rank = 1;
        d.foldings = vec![Folding::Block];
        for c in &mut d.comp {
            c.rows = vec![CompRow::Localized(Aff::konst(0))];
        }
        dec_storage = d;
        &dec_storage
    } else {
        dec
    };
    if dec.foldings.len() != dec.grid_rank {
        return Err(DctError::new(
            Phase::Spmd,
            format!(
                "decomposition has {} foldings for grid rank {}",
                dec.foldings.len(),
                dec.grid_rank
            ),
        ));
    }
    let rank = dec.grid_rank;
    let grid = grid_shape(opts.procs, rank)?;
    let params = {
        let mut p = opts.params.clone();
        if let Some(tl) = &prog.time {
            p[tl.param] = 0;
        }
        p
    };

    let layouts = synthesize_layouts(prog, dec, &grid, &params, opts.transform_data)?;
    let extents: Vec<Vec<i64>> = prog.arrays.iter().map(|a| a.extents(&params)).collect();

    // Address space: page-aligned, replicated arrays get one copy per proc.
    let page = 4096u64;
    let mut bases = Vec::with_capacity(prog.arrays.len());
    let mut repl_stride = Vec::with_capacity(prog.arrays.len());
    let mut elem_bytes = Vec::with_capacity(prog.arrays.len());
    let mut cursor = page; // leave page 0 unused
    for (x, decl) in prog.arrays.iter().enumerate() {
        let eb = decl.elem_bytes as u64;
        let one = (layouts[x].layout.size() as u64 * eb).div_ceil(page) * page;
        bases.push(cursor);
        if dec.data[x].replicated {
            repl_stride.push(one);
            cursor += one * opts.procs as u64;
        } else {
            repl_stride.push(0);
            cursor += one;
        }
        elem_bytes.push(eb);
    }

    let nests: Vec<SpmdNest> = prog
        .nests
        .iter()
        .enumerate()
        .map(|(j, nest)| {
            compile_nest(
                prog,
                dec,
                &dec.comp[j].rows,
                nest,
                &extents,
                &layouts,
                &grid,
                opts,
                Some((j, &dec.comp[j])),
            )
        })
        .collect::<DctResult<_>>()?;

    // Synchronization placement. A sync after nest j orders *everything*
    // before it against everything after, so eliding one is sound only if
    // the next nest conflicts with no nest anywhere in the resulting
    // sync-free window — adjacency is not enough (a conflict between nest
    // j and nest j+2 with a benign nest j+1 in between still needs a
    // fence, and for time-stepped programs the window wraps across the
    // step boundary). Greedy forward scan: carry the set of nests since
    // the last sync; fence as soon as the next nest conflicts with any of
    // them.
    let n = nests.len();
    let mut nests = nests;
    let cyclic = prog.time.is_some();
    let kind_of = |nests: &[SpmdNest], j: usize| {
        if nests[j].gates.len() == dec.grid_rank && !nests[j].gates.is_empty() {
            // Fully localized producer: lock handoff suffices.
            SyncKind::ProducerWait
        } else {
            SyncKind::Barrier
        }
    };
    if !opts.barrier_elision {
        for nest in nests.iter_mut() {
            nest.sync_after = SyncKind::Barrier;
        }
    } else if n > 0 {
        // First lap: linear scan assuming a fence before nest 0 (true at
        // step 0, where initialization ends with a barrier).
        let mut sync = vec![SyncKind::None; n];
        let mut window: Vec<usize> = vec![0];
        let mut last_fence = None;
        for j in 0..n - 1 {
            if window.iter().any(|&a| needs_barrier(prog, dec, &nests, &grid, a, j + 1)) {
                sync[j] = kind_of(&nests, j);
                window.clear();
                last_fence = Some(j);
            }
            window.push(j + 1);
        }
        if !cyclic {
            sync[n - 1] = SyncKind::Barrier; // program end
        } else {
            match last_fence {
                None => {
                    // No conflicts within a step. A fence is still needed
                    // if any nest conflicts with a cyclically earlier (or
                    // the same) nest of the next step; one sync at the
                    // step boundary orders every such pair.
                    let wraps = (0..n)
                        .any(|a| (0..=a).any(|b| needs_barrier(prog, dec, &nests, &grid, a, b)));
                    if wraps {
                        sync[n - 1] = kind_of(&nests, n - 1);
                    }
                }
                Some(fence) => {
                    // Continue the scan across the step boundary,
                    // re-deciding the wrap edge and the pre-fence edges
                    // with the window carried over from the previous
                    // step's tail. (Step 0's true window is smaller, so
                    // this only ever adds syncs — conservative, never
                    // unsound.)
                    let mut j = n - 1;
                    loop {
                        let next = (j + 1) % n;
                        if window.iter().any(|&a| needs_barrier(prog, dec, &nests, &grid, a, next)) {
                            sync[j] = kind_of(&nests, j);
                            window.clear();
                        } else {
                            sync[j] = SyncKind::None;
                        }
                        window.push(next);
                        if next == fence {
                            break;
                        }
                        j = next;
                    }
                }
            }
        }
        for (nest, s) in nests.iter_mut().zip(sync) {
            nest.sync_after = s;
        }
    }

    // Initialization nests: owner-computes placement on the written array.
    let init: Vec<SpmdNest> = prog
        .init_nests
        .iter()
        .enumerate()
        .map(|(j, nest)| compile_init_nest(prog, dec, j, nest, &extents, &layouts, &grid, opts))
        .collect::<DctResult<_>>()?;

    let time_steps = prog.time_step_count(&opts.params);
    Ok(SpmdProgram {
        nprocs: opts.procs,
        grid,
        layouts,
        array_names: prog.arrays.iter().map(|a| a.name.clone()).collect(),
        extents,
        bases,
        repl_stride,
        elem_bytes,
        init,
        nests,
        params,
        time_param: prog.time.as_ref().map(|t| t.param),
        time_steps,
    })
}

/// Build the schedule of one compute nest from its decomposition rows.
/// `comp` is the nest's index and computation decomposition (None for
/// synthetic init-nest rows, which are always doall).
#[allow(clippy::too_many_arguments)]
fn compile_nest(
    prog: &Program,
    dec: &Decomposition,
    rows: &[CompRow],
    nest: &LoopNest,
    extents: &[Vec<i64>],
    layouts: &[ArrayLayout],
    grid: &[usize],
    opts: &SpmdOptions,
    comp: Option<(usize, &CompDecomp)>,
) -> DctResult<SpmdNest> {
    let nest_err = |msg: String| {
        let idx = comp.map(|(j, _)| j).unwrap_or(0);
        DctError::new(Phase::Spmd, msg).with_nest(idx, &nest.name)
    };
    let mut sched = vec![]; // per level
    for _ in 0..nest.depth {
        sched.push(LevelSched::Seq);
    }
    let mut gates = Vec::new();

    for (p, row) in rows.iter().enumerate() {
        if grid.get(p).copied().unwrap_or(1) <= 1 && !matches!(row, CompRow::Level(_)) {
            // Single processor along this dim: a gate would be trivially
            // satisfied; skip it.
        }
        if p >= dec.foldings.len() {
            return Err(nest_err(format!(
                "unexpected schedule: row targets proc dim {p} of a rank-{} grid",
                dec.grid_rank
            )));
        }
        match row {
            CompRow::Level(l) => {
                if *l >= nest.depth {
                    return Err(nest_err(format!(
                        "unexpected schedule: distributed level {l} of a depth-{} nest",
                        nest.depth
                    )));
                }
                if matches!(sched[*l], LevelSched::Dist { .. }) {
                    // Two distributed array dimensions driven by the same
                    // loop variable (a diagonal access like A[l+1, l]).
                    // Distributing the level twice would overwrite the
                    // first constraint and run every iteration redundantly
                    // on all coordinates of this proc dim — each element
                    // then written by several processors at once. True
                    // owner-computes here needs per-iteration gating the
                    // executor does not have, so keep the first
                    // distribution and confine this proc dim to its
                    // 0-coordinate slice: every iteration still executes
                    // exactly once (its writes are merely non-local along
                    // this dim).
                    let extent = proc_dim_extent(prog, dec, p, extents);
                    gates.push(Gate {
                        proc_dim: p,
                        folding: dec.foldings[p],
                        extent,
                        aff: Aff::konst(0),
                    });
                    continue;
                }
                let (extent, offset) = level_alignment(prog, dec, nest, *l, p, extents)
                    .unwrap_or_else(|| fallback_extent(nest, *l, &opts.params));
                sched[*l] = LevelSched::Dist {
                    proc_dim: p,
                    folding: dec.foldings[p],
                    extent,
                    offset,
                };
            }
            CompRow::Localized(aff) => {
                let extent = proc_dim_extent(prog, dec, p, extents);
                gates.push(Gate { proc_dim: p, folding: dec.foldings[p], extent, aff: aff.clone() });
            }
            CompRow::Unconstrained => {
                // Avoid redundant execution: only the 0-coordinate slice
                // participates.
                let extent = proc_dim_extent(prog, dec, p, extents);
                gates.push(Gate {
                    proc_dim: p,
                    folding: dec.foldings[p],
                    extent,
                    aff: Aff::konst(0),
                });
            }
        }
    }

    // Pipeline: a distributed level that is not doall.
    let pipeline = pipeline_spec(comp, nest, &sched, grid, opts)?;

    for (s, stmt) in nest.body.iter().enumerate() {
        if crate::kernel::expr_stack_depth(&stmt.rhs) > crate::kernel::MAX_EVAL_STACK {
            return Err(nest_err(format!("statement {s} body too deep to evaluate")));
        }
    }
    let stmt_costs = stmt_costs(nest, layouts, &sched, &opts.cost);

    Ok(SpmdNest {
        source: nest.clone(),
        sched,
        gates,
        pipeline,
        stmt_costs,
        sync_after: SyncKind::Barrier,
        replicated_write: false,
    })
}

/// Pipeline specification for a nest whose distributed level carries a
/// dependence (detected by the decomposition). A carried *distributed*
/// level that cannot be pipelined (no doall level left to tile) is a model
/// violation: running it as a doall would compute wrong values, so it is
/// reported as an error — the driver's degradation ladder then retries the
/// nest under a simpler strategy.
fn pipeline_spec(
    comp: Option<(usize, &CompDecomp)>,
    nest: &LoopNest,
    sched: &[LevelSched],
    grid: &[usize],
    opts: &SpmdOptions,
) -> DctResult<Option<PipelineSpec>> {
    let Some((idx, cd)) = comp else { return Ok(None) };
    let Some(seq_level) = cd.pipeline_level else { return Ok(None) };
    if seq_level >= nest.depth || !matches!(sched.get(seq_level), Some(LevelSched::Dist { .. })) {
        return Err(DctError::new(
            Phase::Spmd,
            format!("unexpected schedule: pipeline level {seq_level} is not distributed"),
        )
        .with_nest(idx, &nest.name));
    }
    // Tile the outermost doall level that is not distributed.
    let tile_level = (0..nest.depth).find(|&l| {
        l != seq_level && cd.parallel_levels[l] && matches!(sched[l], LevelSched::Seq)
    });
    let Some(tile_level) = tile_level else {
        return Err(DctError::new(
            Phase::Spmd,
            format!(
                "cannot realize doacross pipeline: carried level {seq_level} is distributed \
                 but no doall level is left to tile"
            ),
        )
        .with_nest(idx, &nest.name));
    };
    // Aim for ~4 tiles per processor along the pipeline dimension.
    let procs_along = match sched[seq_level] {
        LevelSched::Dist { proc_dim, .. } => {
            opts.procs.min(grid.get(proc_dim).copied().unwrap_or(1))
        }
        _ => opts.procs,
    };
    let tiles = (4 * procs_along as i64).max(1);
    Ok(Some(PipelineSpec { seq_level, tile_level, tiles }))
}

/// Extent/offset of the array dimension that level `l` (on proc dim `p`)
/// aligns with: searched among the nest's references (write first).
fn level_alignment(
    prog: &Program,
    dec: &Decomposition,
    nest: &LoopNest,
    l: usize,
    p: usize,
    extents: &[Vec<i64>],
) -> Option<(i64, Aff)> {
    let mut fallback = None;
    for (is_write, r) in nest.all_refs() {
        let x = r.array.0;
        if dec.data[x].replicated {
            continue;
        }
        for ad in &dec.data[x].dists {
            if ad.proc_dim != p {
                continue;
            }
            let s = r.access.dim_aff(ad.dim);
            if s.var_coeff(l) == 1
                && s.var_coeffs.iter().enumerate().all(|(k, &c)| k == l || c == 0)
            {
                let mut offset = s.clone();
                for c in offset.var_coeffs.iter_mut() {
                    *c = 0;
                }
                let res = (extents[x][ad.dim], offset);
                if is_write {
                    return Some(res);
                }
                fallback.get_or_insert(res);
            }
        }
    }
    let _ = prog;
    fallback
}

/// Extent of the array dimension backing proc dim `p` (for gates).
fn proc_dim_extent(prog: &Program, dec: &Decomposition, p: usize, extents: &[Vec<i64>]) -> i64 {
    for x in 0..prog.arrays.len() {
        for ad in &dec.data[x].dists {
            if ad.proc_dim == p {
                return extents[x][ad.dim];
            }
        }
    }
    // No array distributed on this dim: treat coordinates directly.
    i64::MAX / 2
}

/// Fallback extent/offset from the loop bounds (bounds evaluated with outer
/// variables at zero — exact for rectangular nests, which is the only case
/// that reaches here).
fn fallback_extent(nest: &LoopNest, l: usize, params: &[i64]) -> (i64, Aff) {
    let zeros = vec![0i64; nest.depth];
    let lo = nest.bounds[l].eval_lo(&zeros, params);
    let hi = nest.bounds[l].eval_hi(&zeros, params);
    ((hi - lo + 1).max(1), Aff::konst(-lo))
}

/// Per-statement cycle cost annotations (flops + address arithmetic).
fn stmt_costs(
    nest: &LoopNest,
    layouts: &[ArrayLayout],
    sched: &[LevelSched],
    cost: &CostModel,
) -> Vec<StmtCost> {
    nest.body
        .iter()
        .map(|s| {
            let write_extra = ref_addr_cost(&s.lhs, layouts, sched, cost);
            let mut reads = Vec::new();
            s.rhs.collect_refs(&mut reads);
            let read_extras = reads.iter().map(|r| ref_addr_cost(r, layouts, sched, cost)).collect();
            StmtCost { flop_cycles: cost.expr_cycles(&s.rhs), write_extra, read_extras }
        })
        .collect()
}

fn ref_addr_cost(
    r: &dct_ir::ArrayRef,
    layouts: &[ArrayLayout],
    sched: &[LevelSched],
    cost: &CostModel,
) -> u64 {
    let lay = &layouts[r.array.0];
    let mut extra = 0;
    for (orig_dim, _strip) in lay.layout.strip_mines_by_orig_dim() {
        let s = r.access.dim_aff(orig_dim);
        // Which level is distributed on the proc dim of this array dim?
        let dist_level = lay
            .dist_info
            .iter()
            .find(|di| di.orig_dim == orig_dim)
            .and_then(|di| {
                sched.iter().enumerate().find_map(|(l, ls)| match ls {
                    LevelSched::Dist { proc_dim, .. } if *proc_dim == di.proc_dim => Some(l),
                    _ => None,
                })
            });
        extra += cost.strip_dim_cycles(&s, dist_level);
    }
    extra
}

/// Does the data flow between consecutive nests cross processors? True
/// unless every reference to every shared (written) array is owner-aligned
/// in both nests.
fn needs_barrier(
    prog: &Program,
    dec: &Decomposition,
    nests: &[SpmdNest],
    grid: &[usize],
    a: usize,
    b: usize,
) -> bool {
    let arrays_a: std::collections::HashSet<usize> =
        nests[a].source.all_refs().iter().map(|(_, r)| r.array.0).collect();
    for (wb, rb) in nests[b].source.all_refs() {
        let x = rb.array.0;
        if !arrays_a.contains(&x) {
            continue;
        }
        let written_in_a = nests[a].source.body.iter().any(|s| s.lhs.array.0 == x);
        if !written_in_a && !wb {
            continue; // read-read sharing is fine
        }
        if dec.data[x].replicated {
            continue; // replicated arrays are never written by compute nests
        }
        if dec.data[x].dists.is_empty() {
            return true; // shared undistributed data with a write: sync
        }
        // Both nests' references to x must be self-aligned.
        for j in [a, b] {
            for (_, r) in nests[j].source.all_refs() {
                if r.array.0 == x && !ref_aligned(&nests[j], r, dec, x) {
                    return true;
                }
            }
        }
        // Alignment pins an access only along the proc dims x is
        // distributed over. Along any other (free) grid dim, ownership
        // says nothing about where the access runs — e.g. a writer gated
        // to coordinate 0 feeding a reader distributed across that dim —
        // so data still crosses processors unless both nests confine the
        // dim to the same single coordinate.
        if !free_dims_match(&nests[a], &nests[b], dec, grid, x) {
            return true;
        }
    }
    let _ = prog;
    false
}

/// Do `a` and `b` confine every multi-processor grid dim that `x`'s
/// distribution leaves unconstrained to the same single coordinate (gates
/// with identical owner expressions)?
fn free_dims_match(
    a: &SpmdNest,
    b: &SpmdNest,
    dec: &Decomposition,
    grid: &[usize],
    x: usize,
) -> bool {
    let gate_aff = |n: &SpmdNest, p: usize| {
        n.gates.iter().find(|g| g.proc_dim == p).map(|g| {
            let mut aff = g.aff.clone();
            normalize(&mut aff);
            aff
        })
    };
    for (p, &extent) in grid.iter().enumerate() {
        if extent <= 1 || dec.data[x].dists.iter().any(|ad| ad.proc_dim == p) {
            continue;
        }
        match (gate_aff(a, p), gate_aff(b, p)) {
            (Some(ga), Some(gb)) if ga == gb => {}
            _ => return false,
        }
    }
    true
}

/// Is a reference owner-aligned with its nest's schedule on every
/// distributed dimension of the array?
fn ref_aligned(nest: &SpmdNest, r: &dct_ir::ArrayRef, dec: &Decomposition, x: usize) -> bool {
    for ad in &dec.data[x].dists {
        let s = r.access.dim_aff(ad.dim);
        let ok = nest
            .sched
            .iter()
            .enumerate()
            .any(|(l, ls)| match ls {
                LevelSched::Dist { proc_dim, offset, .. } if *proc_dim == ad.proc_dim => {
                    // s must be exactly var(l) + offset.
                    let mut expect = offset.clone() + Aff::var(l);
                    normalize(&mut expect);
                    let mut got = s.clone();
                    normalize(&mut got);
                    expect == got
                }
                _ => false,
            })
            || nest.gates.iter().any(|g| {
                g.proc_dim == ad.proc_dim && {
                    let mut ga = g.aff.clone();
                    normalize(&mut ga);
                    let mut sa = s.clone();
                    normalize(&mut sa);
                    ga == sa
                }
            });
        if !ok {
            return false;
        }
    }
    true
}

/// Trim trailing zero coefficients so structurally equal affs compare equal.
fn normalize(a: &mut Aff) {
    while a.var_coeffs.last() == Some(&0) {
        a.var_coeffs.pop();
    }
    while a.param_coeffs.last() == Some(&0) {
        a.param_coeffs.pop();
    }
}

/// Compile an initialization nest: owner-computes on the written array.
#[allow(clippy::too_many_arguments)]
fn compile_init_nest(
    prog: &Program,
    dec: &Decomposition,
    nest_idx: usize,
    nest: &LoopNest,
    extents: &[Vec<i64>],
    layouts: &[ArrayLayout],
    grid: &[usize],
    opts: &SpmdOptions,
) -> DctResult<SpmdNest> {
    let Some(first) = nest.body.first() else {
        return Err(DctError::new(Phase::Spmd, "init nest needs a statement")
            .with_nest(nest_idx, &nest.name));
    };
    let lhs = &first.lhs;
    let x = lhs.array.0;

    if dec.data[x].replicated {
        let stmt_costs = stmt_costs(nest, layouts, &vec![LevelSched::Seq; nest.depth], &opts.cost);
        return Ok(SpmdNest {
            source: nest.clone(),
            sched: vec![LevelSched::Seq; nest.depth],
            gates: Vec::new(),
            pipeline: None,
            stmt_costs,
            sync_after: SyncKind::Barrier,
            replicated_write: true,
        });
    }

    // Derive rows from the lhs subscripts of the distributed dims.
    let mut rows = vec![CompRow::Unconstrained; dec.grid_rank.max(1)];
    if dec.data[x].dists.is_empty() {
        // Undistributed array (base compiler): block-distribute the
        // outermost loop so pages land in first-touch blocks of the outer
        // dimension, like a straightforwardly parallelized init loop.
        rows[0] = CompRow::Level(0);
    } else {
        for ad in &dec.data[x].dists {
            let s = lhs.access.dim_aff(ad.dim);
            let nz: Vec<usize> = s
                .var_coeffs
                .iter()
                .enumerate()
                .filter(|(_, &c)| c != 0)
                .map(|(l, _)| l)
                .collect();
            rows[ad.proc_dim] = match nz.as_slice() {
                [l] if s.var_coeff(*l) == 1 => CompRow::Level(*l),
                _ => CompRow::Localized(s.clone()),
            };
        }
    }
    let mut out = compile_nest(prog, dec, &rows, nest, extents, layouts, grid, opts, None)?;
    out.pipeline = None;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dct_dep::{analyze_nest, DepConfig};
    use dct_ir::{Expr, NestBuilder, ProgramBuilder};

    fn simple() -> (Program, Decomposition) {
        let mut pb = ProgramBuilder::new("p");
        let n = pb.param("N", 16);
        let a = pb.array("A", &[Aff::param(n), Aff::param(n)], 8);
        let mut nb = NestBuilder::new("init", 1);
        let j = nb.loop_var(Aff::konst(0), Aff::param(n) - 1);
        let i = nb.loop_var(Aff::konst(0), Aff::param(n) - 1);
        nb.assign(a, &[Aff::var(i), Aff::var(j)], Expr::Index(i));
        pb.init_nest(nb.build());
        let mut nb = NestBuilder::new("sweep", 1);
        let j = nb.loop_var(Aff::konst(1), Aff::param(n) - 2);
        let i = nb.loop_var(Aff::konst(0), Aff::param(n) - 1);
        let rhs = nb.read(a, &[Aff::var(i), Aff::var(j) - 1]) + nb.read(a, &[Aff::var(i), Aff::var(j) + 1]);
        nb.assign(a, &[Aff::var(i), Aff::var(j)], rhs);
        pb.nest(nb.build());
        let prog = pb.build();
        let cfg = DepConfig { nparams: prog.params.len(), param_min: 4 };
        let deps: Vec<_> = prog.nests.iter().map(|x| analyze_nest(x, cfg)).collect();
        let dec = dct_decomp::decompose(&prog, &deps).unwrap();
        (prog, dec)
    }

    fn opts(p: usize) -> SpmdOptions {
        SpmdOptions {
            procs: p,
            params: vec![16, 0],
            transform_data: true,
            barrier_elision: true,
            cost: CostModel::default(),
        }
    }

    #[test]
    fn codegen_basics() {
        let (prog, dec) = simple();
        let o = SpmdOptions { params: vec![16], ..opts(4) };
        let sp = codegen(&prog, &dec, &o).unwrap();
        assert_eq!(sp.grid, vec![4]);
        assert_eq!(sp.nests.len(), 1);
        assert_eq!(sp.init.len(), 1);
        // The sweep distributes level 1 (i), aligned to A's dim 0.
        match &sp.nests[0].sched[1] {
            LevelSched::Dist { proc_dim: 0, extent: 16, .. } => {}
            other => panic!("unexpected sched {other:?}"),
        }
        // Bases are page-aligned and distinct.
        assert_eq!(sp.bases[0] % 4096, 0);
        assert_eq!(sp.repl_stride[0], 0);
    }

    #[test]
    fn coords_roundtrip() {
        let (prog, dec) = simple();
        let o = SpmdOptions { params: vec![16], ..opts(6) };
        let sp = codegen(&prog, &dec, &o).unwrap();
        let mut seen = std::collections::HashSet::new();
        for p in 0..6 {
            let c = sp.coords_of(p);
            assert_eq!(c.len(), sp.grid.len());
            seen.insert(c);
        }
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn init_owner_computes() {
        let (prog, dec) = simple();
        let o = SpmdOptions { params: vec![16], ..opts(4) };
        let sp = codegen(&prog, &dec, &o).unwrap();
        // Init writes A(i,j) with A distributed on dim 0 -> init level 1
        // (i) must be distributed.
        assert!(matches!(sp.init[0].sched[1], LevelSched::Dist { .. }));
        assert!(matches!(sp.init[0].sched[0], LevelSched::Seq));
    }

    #[test]
    fn stencil_neighbors_force_barrier() {
        let (prog, dec) = simple();
        let o = SpmdOptions { params: vec![16], ..opts(4) };
        let sp = codegen(&prog, &dec, &o).unwrap();
        // Single nest, no time loop: barrier at program end.
        assert_eq!(sp.nests[0].sync_after, SyncKind::Barrier);
    }

    /// An out-of-range distributed level ("unexpected sched") is a
    /// structured error carrying the offending nest id, not a panic
    /// (ISSUE 2 satellite).
    #[test]
    fn unexpected_schedule_is_an_error() {
        let (prog, mut dec) = simple();
        dec.comp[0].rows[0] = CompRow::Level(7); // depth is 2
        let o = SpmdOptions { params: vec![16], ..opts(4) };
        let err = match codegen(&prog, &dec, &o) {
            Err(e) => e,
            Ok(_) => panic!("expected a codegen error"),
        };
        assert_eq!(err.phase, Phase::Spmd);
        assert_eq!(err.nest, Some(0));
        assert_eq!(err.nest_name.as_deref(), Some("sweep"));
        assert!(err.message.contains("unexpected schedule"), "{err}");
    }

    /// A carried distributed level with no doall level left to tile cannot
    /// be pipelined; that must surface as an error, never as a silently
    /// wrong doall execution.
    #[test]
    fn unrealizable_pipeline_is_an_error() {
        let (prog, mut dec) = simple();
        // Pretend level 0 (the carried j loop) is distributed and carried,
        // and level 1 is not available for tiling.
        dec.comp[0].rows[0] = CompRow::Level(0);
        dec.comp[0].parallel_levels = vec![false, false];
        dec.comp[0].pipeline_level = Some(0);
        let o = SpmdOptions { params: vec![16], ..opts(4) };
        let err = match codegen(&prog, &dec, &o) {
            Err(e) => e,
            Ok(_) => panic!("expected a codegen error"),
        };
        assert_eq!(err.phase, Phase::Spmd);
        assert_eq!(err.nest, Some(0));
        assert!(err.message.contains("cannot realize doacross pipeline"), "{err}");
    }
}
