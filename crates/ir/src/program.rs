//! Programs: array declarations, loop nests, statements, and a builder.
//!
//! A [`Program`] models the sequential FORTRAN kernels of the paper: a set
//! of arrays, optional one-time initialization nests (which matter for
//! first-touch page placement on the simulated machine), and a sequence of
//! compute nests optionally surrounded by a sequential time-step loop.

use crate::access::{AffineAccess, ArrayId, ArrayRef};
use crate::expr::{Aff, Expr};
use dct_linalg::Polyhedron;

/// A symbolic size parameter (e.g. `N`), with a default concrete value.
#[derive(Clone, Debug)]
pub struct Param {
    pub name: String,
    pub default: i64,
}

/// An array declaration. Extents may involve parameters (`N`, `N+1`, ...).
#[derive(Clone, Debug)]
pub struct ArrayDecl {
    pub name: String,
    /// Extent of each dimension (0-based indexing; extent = number of elements).
    pub dims: Vec<Aff>,
    /// Element size in bytes (4 for REAL, 8 for DOUBLE PRECISION).
    pub elem_bytes: u32,
}

impl ArrayDecl {
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Concrete extents under a parameter binding.
    pub fn extents(&self, params: &[i64]) -> Vec<i64> {
        self.dims
            .iter()
            .map(|d| {
                assert!(d.is_loop_invariant(), "array extent must not use loop variables");
                let e = d.eval(&[], params);
                assert!(e > 0, "array {} has non-positive extent {e}", self.name);
                e
            })
            .collect()
    }

    /// Total element count under a parameter binding.
    pub fn size(&self, params: &[i64]) -> i64 {
        self.extents(params).iter().product()
    }
}

/// One affine bound form with an integer divisor: as a lower bound it means
/// `ceil(aff / div)`, as an upper bound `floor(aff / div)`. Divisors larger
/// than one arise from Fourier–Motzkin bound generation after loop
/// transformations (e.g. skewing).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundForm {
    pub aff: Aff,
    pub div: i64,
}

impl BoundForm {
    pub fn of(aff: Aff) -> BoundForm {
        BoundForm { aff, div: 1 }
    }

    // Both test for the usual divisor 1 first: a walk evaluates its bounds
    // at every loop entry, and a 64-bit divide costs more than the affine
    // form it would follow.
    pub fn eval_lower(&self, ivec: &[i64], params: &[i64]) -> i64 {
        let v = self.aff.eval(ivec, params);
        if self.div == 1 {
            return v;
        }
        -((-v).div_euclid(self.div))
    }

    pub fn eval_upper(&self, ivec: &[i64], params: &[i64]) -> i64 {
        let v = self.aff.eval(ivec, params);
        if self.div == 1 {
            return v;
        }
        v.div_euclid(self.div)
    }
}

/// Inclusive affine loop bounds `max(los) <= i_l <= min(his)`; every form
/// may reference outer loop variables and parameters only. Multiple forms
/// arise from Fourier–Motzkin bound generation after loop transformations.
#[derive(Clone, Debug)]
pub struct LoopBounds {
    pub los: Vec<BoundForm>,
    pub his: Vec<BoundForm>,
}

impl LoopBounds {
    pub fn simple(lo: Aff, hi: Aff) -> LoopBounds {
        LoopBounds { los: vec![BoundForm::of(lo)], his: vec![BoundForm::of(hi)] }
    }

    /// Concrete lower bound (max over forms).
    pub fn eval_lo(&self, ivec: &[i64], params: &[i64]) -> i64 {
        self.los.iter().map(|b| b.eval_lower(ivec, params)).max().expect("no lower bound")
    }

    /// Concrete upper bound (min over forms).
    pub fn eval_hi(&self, ivec: &[i64], params: &[i64]) -> i64 {
        self.his.iter().map(|b| b.eval_upper(ivec, params)).min().expect("no upper bound")
    }
}

/// An assignment statement `lhs = rhs`.
#[derive(Clone, Debug)]
pub struct Stmt {
    pub lhs: ArrayRef,
    pub rhs: Expr,
}

impl Stmt {
    /// All array references: writes first, then reads in evaluation order.
    pub fn refs(&self) -> (Vec<&ArrayRef>, Vec<&ArrayRef>) {
        let mut reads = Vec::new();
        self.rhs.collect_refs(&mut reads);
        (vec![&self.lhs], reads)
    }
}

/// Identifies a loop nest within a program's compute sequence.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NestId(pub usize);

/// A perfectly nested affine loop nest with a statement body at the
/// innermost level. (All of the paper's kernels fit this shape; imperfect
/// nests are expressed as consecutive nests.)
#[derive(Clone, Debug)]
pub struct LoopNest {
    pub name: String,
    pub depth: usize,
    pub bounds: Vec<LoopBounds>,
    pub body: Vec<Stmt>,
    /// Relative execution-frequency weight used by the decomposition
    /// algorithm to order constraints (most frequent first).
    pub freq: u64,
    /// Source line of the nest header in the frontend input, when the
    /// program came from source text (diagnostics only).
    pub line: Option<usize>,
}

impl LoopNest {
    /// The iteration-space polyhedron over variables
    /// `[i_0 .. i_{depth-1}, n_0 .. n_{nparams-1}]`.
    pub fn polyhedron(&self, nparams: usize) -> Polyhedron {
        let nv = self.depth + nparams;
        let mut p = Polyhedron::new(nv);
        for (l, b) in self.bounds.iter().enumerate() {
            for lo in &b.los {
                // div * i_l - aff >= 0
                let mut c = vec![0i64; nv];
                c[l] = lo.div;
                for ol in 0..self.depth {
                    c[ol] -= lo.aff.var_coeff(ol);
                }
                for pp in 0..nparams {
                    c[self.depth + pp] -= lo.aff.param_coeff(pp);
                }
                p.add(c, -lo.aff.konst);
            }
            for hi in &b.his {
                // aff - div * i_l >= 0
                let mut c = vec![0i64; nv];
                c[l] = -hi.div;
                for ol in 0..self.depth {
                    c[ol] += hi.aff.var_coeff(ol);
                }
                for pp in 0..nparams {
                    c[self.depth + pp] += hi.aff.param_coeff(pp);
                }
                p.add(c, hi.aff.konst);
            }
        }
        p
    }

    /// Enumerate all iterations under a concrete parameter binding, calling
    /// `f` with each index vector in lexicographic (program) order.
    pub fn for_each_iteration(&self, params: &[i64], mut f: impl FnMut(&[i64])) {
        let mut ivec = vec![0i64; self.depth];
        self.walk(0, params, &mut ivec, &mut f);
    }

    fn walk(&self, level: usize, params: &[i64], ivec: &mut Vec<i64>, f: &mut impl FnMut(&[i64])) {
        if level == self.depth {
            f(ivec);
            return;
        }
        let lo = self.bounds[level].eval_lo(ivec, params);
        let hi = self.bounds[level].eval_hi(ivec, params);
        for i in lo..=hi {
            ivec[level] = i;
            self.walk(level + 1, params, ivec, f);
        }
        ivec[level] = 0;
    }

    /// Total iteration count under a concrete parameter binding.
    pub fn iteration_count(&self, params: &[i64]) -> u64 {
        let mut n = 0u64;
        self.for_each_iteration(params, |_| n += 1);
        n
    }

    /// Every array reference in the nest body: `(is_write, reference)`.
    pub fn all_refs(&self) -> Vec<(bool, &ArrayRef)> {
        let mut out = Vec::new();
        for s in &self.body {
            out.push((true, &s.lhs));
            let mut reads = Vec::new();
            s.rhs.collect_refs(&mut reads);
            out.extend(reads.into_iter().map(|r| (false, r)));
        }
        out
    }
}

/// An outer sequential loop around all compute nests (time steps, or the
/// `k` loop of LU-style factorizations). Its index is exposed to the nests
/// as the pseudo-parameter `params[param]`, so bounds and subscripts can
/// reference the current step like any other symbolic parameter.
#[derive(Clone, Debug)]
pub struct TimeLoop {
    /// Index of the pseudo-parameter bound to the current step.
    pub param: usize,
    /// Number of steps (affine in the real parameters). Steps run
    /// `0 ..= count-1`.
    pub count: Aff,
}

/// A whole kernel program.
#[derive(Clone, Debug)]
pub struct Program {
    pub name: String,
    pub params: Vec<Param>,
    pub arrays: Vec<ArrayDecl>,
    /// Nests run once before the time loop (parallel initialization; these
    /// determine first-touch page placement).
    pub init_nests: Vec<LoopNest>,
    /// Compute nests, executed in order once per time step.
    pub nests: Vec<LoopNest>,
    /// Optional outer sequential loop around the compute nests.
    pub time: Option<TimeLoop>,
}

impl Program {
    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.0]
    }

    pub fn nest(&self, id: NestId) -> &LoopNest {
        &self.nests[id.0]
    }

    /// Default parameter binding.
    pub fn default_params(&self) -> Vec<i64> {
        self.params.iter().map(|p| p.default).collect()
    }

    /// Concrete number of time steps under a parameter binding.
    pub fn time_step_count(&self, params: &[i64]) -> i64 {
        match &self.time {
            None => 1,
            Some(tl) => tl.count.eval(&[], params).max(0),
        }
    }

    /// Structural validation; panics with a description on the first error.
    /// Called by the builder; also usable on hand-constructed programs.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// Non-panicking structural validation: the first defect is returned as
    /// a [`DctError`] so arbitrary (frontend or fuzzer) input cannot crash
    /// the pipeline.
    pub fn try_validate(&self) -> Result<(), crate::DctError> {
        use crate::{DctError, Phase};
        let err = |nest: &LoopNest, idx: usize, msg: String| {
            Err(DctError::new(Phase::Frontend, msg).with_nest(idx, &nest.name))
        };
        for (idx, nest) in self.init_nests.iter().chain(&self.nests).enumerate() {
            if nest.bounds.len() != nest.depth {
                return err(nest, idx, format!("nest {}: bounds/depth mismatch", nest.name));
            }
            for (l, b) in nest.bounds.iter().enumerate() {
                if b.los.is_empty() || b.his.is_empty() {
                    return err(nest, idx, format!("nest {}: level {l} missing bounds", nest.name));
                }
                for form in b.los.iter().chain(&b.his) {
                    if form.div < 1 {
                        return err(nest, idx, format!("nest {}: non-positive bound divisor", nest.name));
                    }
                    let side = &form.aff;
                    if let Some(ml) = side.max_var_level() {
                        if ml >= l {
                            return err(
                                nest,
                                idx,
                                format!("nest {}: bound of level {l} uses non-outer var {ml}", nest.name),
                            );
                        }
                    }
                }
            }
            for (_, r) in nest.all_refs() {
                if r.array.0 >= self.arrays.len() {
                    return err(nest, idx, format!("nest {}: unknown array", nest.name));
                }
                let decl = &self.arrays[r.array.0];
                if r.access.rank() != decl.rank() {
                    return err(
                        nest,
                        idx,
                        format!("nest {}: access rank mismatch for {}", nest.name, decl.name),
                    );
                }
                if r.access.depth() != nest.depth {
                    return err(
                        nest,
                        idx,
                        format!("nest {}: access depth mismatch for {}", nest.name, decl.name),
                    );
                }
            }
        }
        if let Some(tl) = &self.time {
            if tl.param >= self.params.len() {
                return Err(DctError::new(Phase::Frontend, "time param out of range"));
            }
            if !tl.count.is_loop_invariant() {
                return Err(DctError::new(Phase::Frontend, "time count must not use loop vars"));
            }
            if tl.count.param_coeff(tl.param) != 0 {
                return Err(DctError::new(
                    Phase::Frontend,
                    "time count cannot depend on the time variable itself",
                ));
            }
        }
        Ok(())
    }

    /// Total bytes of all arrays under a parameter binding.
    pub fn total_bytes(&self, params: &[i64]) -> u64 {
        self.arrays
            .iter()
            .map(|a| a.size(params) as u64 * a.elem_bytes as u64)
            .sum()
    }
}

/// Fluent builder for [`Program`].
pub struct ProgramBuilder {
    prog: Program,
}

impl ProgramBuilder {
    pub fn new(name: &str) -> ProgramBuilder {
        ProgramBuilder {
            prog: Program {
                name: name.to_string(),
                params: Vec::new(),
                arrays: Vec::new(),
                init_nests: Vec::new(),
                nests: Vec::new(),
                time: None,
            },
        }
    }

    /// Declare a symbolic parameter; returns its index for `Aff::param`.
    pub fn param(&mut self, name: &str, default: i64) -> usize {
        self.prog.params.push(Param { name: name.to_string(), default });
        self.prog.params.len() - 1
    }

    /// Declare an array; extents are affine in parameters.
    pub fn array(&mut self, name: &str, dims: &[Aff], elem_bytes: u32) -> ArrayId {
        self.prog.arrays.push(ArrayDecl {
            name: name.to_string(),
            dims: dims.to_vec(),
            elem_bytes,
        });
        ArrayId(self.prog.arrays.len() - 1)
    }

    /// Wrap the compute nests in an outer sequential loop of `count` steps.
    /// Returns the pseudo-parameter index bound to the current step, usable
    /// in nest bounds and subscripts via `Aff::param`.
    pub fn time_loop(&mut self, count: Aff) -> usize {
        assert!(self.prog.time.is_none(), "time loop already declared");
        let idx = self.param("t", 0);
        self.prog.time = Some(TimeLoop { param: idx, count });
        idx
    }

    /// A [`NestBuilder`] sized for this program's current parameter count.
    /// Declare all parameters (including the time loop) first.
    pub fn nest_builder(&self, name: &str) -> NestBuilder {
        NestBuilder::new(name, self.prog.params.len())
    }

    /// Add a compute nest.
    pub fn nest(&mut self, nest: LoopNest) -> NestId {
        self.prog.nests.push(nest);
        NestId(self.prog.nests.len() - 1)
    }

    /// Add an initialization nest (runs once, before the time loop).
    pub fn init_nest(&mut self, nest: LoopNest) {
        self.prog.init_nests.push(nest);
    }

    /// Finish, validating the program.
    pub fn build(self) -> Program {
        self.prog.validate();
        self.prog
    }

    /// Finish without panicking: validation defects come back as a
    /// [`crate::DctError`] (the frontend path, where the program text is
    /// untrusted input).
    pub fn try_build(self) -> Result<Program, crate::DctError> {
        self.prog.try_validate()?;
        Ok(self.prog)
    }
}

/// Builder for a single [`LoopNest`].
pub struct NestBuilder {
    name: String,
    bounds: Vec<LoopBounds>,
    body: Vec<Stmt>,
    freq: u64,
    nparams: usize,
    line: Option<usize>,
}

impl NestBuilder {
    pub fn new(name: &str, nparams: usize) -> NestBuilder {
        NestBuilder {
            name: name.to_string(),
            bounds: Vec::new(),
            body: Vec::new(),
            freq: 1,
            nparams,
            line: None,
        }
    }

    /// Record the source line of the nest header (frontend input only).
    pub fn line(&mut self, l: usize) -> &mut Self {
        self.line = Some(l);
        self
    }

    /// Add a loop level with inclusive bounds; returns its level index.
    pub fn loop_var(&mut self, lo: Aff, hi: Aff) -> usize {
        self.bounds.push(LoopBounds::simple(lo, hi));
        self.bounds.len() - 1
    }

    /// Add a loop level with `max(los) <= i <= min(his)` bounds.
    pub fn loop_var_multi(&mut self, los: Vec<Aff>, his: Vec<Aff>) -> usize {
        self.bounds.push(LoopBounds {
            los: los.into_iter().map(BoundForm::of).collect(),
            his: his.into_iter().map(BoundForm::of).collect(),
        });
        self.bounds.len() - 1
    }

    pub fn freq(&mut self, f: u64) -> &mut Self {
        self.freq = f;
        self
    }

    /// Add `array[dims...] = rhs`.
    pub fn assign(&mut self, array: ArrayId, dims: &[Aff], rhs: Expr) -> &mut Self {
        let depth = self.bounds.len();
        let access = AffineAccess::from_affs(dims, depth, self.nparams);
        self.body.push(Stmt { lhs: ArrayRef::new(array, access), rhs });
        self
    }

    /// Convenience: an array read expression for the statement body.
    pub fn read(&self, array: ArrayId, dims: &[Aff]) -> Expr {
        let depth = self.bounds.len();
        Expr::Ref(ArrayRef::new(array, AffineAccess::from_affs(dims, depth, self.nparams)))
    }

    pub fn build(self) -> LoopNest {
        LoopNest {
            name: self.name,
            depth: self.bounds.len(),
            bounds: self.bounds,
            body: self.body,
            freq: self.freq,
            line: self.line,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Aff;

    fn simple_program() -> Program {
        let mut pb = ProgramBuilder::new("test");
        let n = pb.param("N", 8);
        let a = pb.array("A", &[Aff::param(n), Aff::param(n)], 8);
        let mut nb = NestBuilder::new("nest0", 1);
        let j = nb.loop_var(Aff::konst(0), Aff::param(n) - 1);
        let i = nb.loop_var(Aff::konst(0), Aff::param(n) - 1);
        let rhs = nb.read(a, &[Aff::var(i), Aff::var(j)]) + Expr::Const(1.0);
        nb.assign(a, &[Aff::var(i), Aff::var(j)], rhs);
        pb.nest(nb.build());
        pb.build()
    }

    #[test]
    fn builder_roundtrip() {
        let p = simple_program();
        assert_eq!(p.nests.len(), 1);
        assert_eq!(p.nests[0].depth, 2);
        assert_eq!(p.array(ArrayId(0)).size(&[8]), 64);
        assert_eq!(p.total_bytes(&[8]), 512);
    }

    #[test]
    fn iteration_enumeration() {
        let p = simple_program();
        let mut count = 0;
        let mut last = vec![-1, -1];
        p.nests[0].for_each_iteration(&[3], |iv| {
            count += 1;
            assert!(iv.to_vec() > last, "iterations must be lexicographic");
            last = iv.to_vec();
        });
        assert_eq!(count, 9);
        assert_eq!(p.nests[0].iteration_count(&[3]), 9);
    }

    #[test]
    fn triangular_nest() {
        let mut nb = NestBuilder::new("tri", 0);
        let i = nb.loop_var(Aff::konst(0), Aff::konst(4));
        let _j = nb.loop_var(Aff::var(i) + 1, Aff::konst(4));
        let nest = nb.build();
        // Sum over i of (4 - i) for i in 0..=4 = 4+3+2+1+0 = 10.
        assert_eq!(nest.iteration_count(&[]), 10);
    }

    #[test]
    fn polyhedron_matches_enumeration() {
        let mut nb = NestBuilder::new("tri", 1);
        let i = nb.loop_var(Aff::konst(1), Aff::param(0));
        let _j = nb.loop_var(Aff::var(i), Aff::param(0));
        let nest = nb.build();
        let poly = nest.polyhedron(1);
        let n = 5i64;
        let mut from_enum = Vec::new();
        nest.for_each_iteration(&[n], |iv| from_enum.push(iv.to_vec()));
        let mut from_poly = Vec::new();
        for a in 0..=n + 1 {
            for b in 0..=n + 1 {
                if poly.contains(&[a, b, n]) {
                    from_poly.push(vec![a, b]);
                }
            }
        }
        assert_eq!(from_enum, from_poly);
    }

    #[test]
    #[should_panic]
    fn bad_bound_rejected() {
        let mut nb = NestBuilder::new("bad", 0);
        // Lower bound of level 0 uses level 1: invalid.
        let _ = nb.loop_var(Aff::var(1), Aff::konst(4));
        let _ = nb.loop_var(Aff::konst(0), Aff::konst(4));
        let nest = nb.build();
        let mut pb = ProgramBuilder::new("bad");
        pb.nest(nest);
        pb.build();
    }

    #[test]
    fn stmt_refs() {
        let p = simple_program();
        let (w, r) = p.nests[0].body[0].refs();
        assert_eq!(w.len(), 1);
        assert_eq!(r.len(), 1);
        let all = p.nests[0].all_refs();
        assert_eq!(all.len(), 2);
        assert!(all[0].0 && !all[1].0);
    }
}
