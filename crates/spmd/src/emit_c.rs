//! SPMD C code emission.
//!
//! The paper's compiler "outputs C code ... declares the array as a linear
//! array and uses linearized addresses" (Section 4.3). This backend renders
//! a compiled [`SpmdProgram`] as readable SPMD C: one `kernel(myid,
//! nprocs)` function executed by every processor, linear arrays for
//! transformed layouts, block/cyclic owned-range loops, barrier and lock
//! calls, and the Section 4.3 address optimizations — the in-partition
//! div/mod elimination (`idiv = myid; imod++` pattern of the paper's
//! example) where the analysis proves them safe.
//!
//! The emitted code targets a tiny runtime (`dct_rt.h`, also emitted) with
//! `dct_barrier()` and `dct_lock_handoff()`; it is meant to be compiled
//! with any C compiler against a SPMD runtime such as the paper's, and
//! doubles as human-readable documentation of what the compiler decided.

use crate::codegen::{LevelSched, SpmdNest, SpmdProgram, SyncKind};
use crate::schedule;
use dct_decomp::Folding;
use dct_ir::{Aff, BinOp, Expr, Program};
use std::fmt::Write;

/// Emit the runtime header the generated code includes.
pub fn emit_runtime_header() -> String {
    r#"/* dct_rt.h — minimal SPMD runtime interface (generated) */
#ifndef DCT_RT_H
#define DCT_RT_H
void dct_barrier(void);
void dct_lock_handoff(void);
void dct_pipeline_wait(int stage);
void dct_pipeline_signal(int stage);
static inline long dct_max(long a, long b) { return a > b ? a : b; }
static inline long dct_min(long a, long b) { return a < b ? a : b; }
/* Euclidean mod for non-negative results. */
static inline long dct_mod(long a, long m) { long r = a % m; return r < 0 ? r + m : r; }
static inline long dct_div(long a, long m) { return (a - dct_mod(a, m)) / m; }
#endif
"#
    .to_string()
}

/// Emit the whole SPMD program as C.
pub fn emit_c(prog: &Program, sp: &SpmdProgram) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "/* Generated SPMD code for program '{}'. */", prog.name);
    let _ = writeln!(out, "#include \"dct_rt.h\"\n");

    // Array declarations: linear arrays sized for the transformed layouts.
    for (x, decl) in prog.arrays.iter().enumerate() {
        let ty = if decl.elem_bytes == 8 { "double" } else { "float" };
        let size = sp.layouts[x].layout.size();
        if sp.repl_stride[x] > 0 {
            let _ = writeln!(
                out,
                "static {ty} {}[{}]; /* replicated: {} elems per processor */",
                decl.name.to_uppercase(),
                size * sp.nprocs as i64,
                size
            );
        } else {
            let dims: Vec<String> =
                sp.layouts[x].layout.final_dims().iter().map(|d| d.to_string()).collect();
            let _ = writeln!(
                out,
                "static {ty} {}[{}]; /* layout dims: ({}) */",
                decl.name.to_uppercase(),
                size,
                dims.join(", ")
            );
        }
    }

    let _ = writeln!(out, "\nvoid kernel(int myid, int nprocs) {{");
    let coords = grid_coord_decls(sp);
    out.push_str(&coords);

    for step in schedule::init_steps(sp) {
        let _ =
            writeln!(out, "\n  /* --- init nest {} ({}) --- */", step.idx, step.nest.source.name);
        emit_nest(&mut out, prog, sp, step.nest, 1);
        emit_sync(&mut out, step.sync, 1);
    }

    let time_loop = sp.time_steps > 1 || sp.time_param.is_some();
    if time_loop {
        let _ = writeln!(out, "\n  for (long t = 0; t < {}; t++) {{", sp.time_steps);
    }
    let indent = if time_loop { 2 } else { 1 };
    for step in schedule::body_steps(sp) {
        let _ = writeln!(
            out,
            "\n{}/* --- nest {} ({}) --- */",
            "  ".repeat(indent),
            step.idx,
            step.nest.source.name
        );
        emit_nest(&mut out, prog, sp, step.nest, indent);
        emit_sync(&mut out, step.sync, indent);
    }
    if time_loop {
        let _ = writeln!(out, "  }}");
    }
    let _ = writeln!(out, "}}");
    out
}

/// The runtime call (or elision comment) a step's sync renders as.
fn emit_sync(out: &mut String, sync: SyncKind, indent: usize) {
    let pad = "  ".repeat(indent);
    let _ = match sync {
        SyncKind::Barrier => writeln!(out, "{pad}dct_barrier();"),
        SyncKind::ProducerWait => writeln!(out, "{pad}dct_lock_handoff();"),
        SyncKind::None => writeln!(out, "{pad}/* barrier eliminated: accesses owner-aligned */"),
    };
}

/// Declarations of the processor's grid coordinates.
fn grid_coord_decls(sp: &SpmdProgram) -> String {
    let mut out = String::new();
    let mut div = 1usize;
    for (p, &g) in sp.grid.iter().enumerate() {
        let _ = writeln!(out, "  const long q{p} = (myid / {div}) % {g}; /* grid dim {p} of {g} */");
        div *= g;
    }
    out
}

fn emit_nest(out: &mut String, prog: &Program, sp: &SpmdProgram, nest: &SpmdNest, indent: usize) {
    let pad = "  ".repeat(indent);
    let label = c_ident(&nest.source.name);
    // Participation gates.
    for g in &nest.gates {
        let owner = owner_expr(&g.folding, &render_aff(&g.aff, &[], prog, sp), g.extent, sp.grid[g.proc_dim]);
        let _ = writeln!(out, "{pad}if (q{} != {owner}) goto skip_{label};", g.proc_dim);
    }
    if nest.replicated_write {
        let _ = writeln!(out, "{pad}/* replicated array: every processor fills its own copy */");
    }
    if let Some(p) = nest.pipeline {
        let _ = writeln!(
            out,
            "{pad}/* doacross pipeline along loop {} (tiled on loop {} into {} stages) */",
            p.seq_level + 1,
            p.tile_level + 1,
            p.tiles
        );
    }
    emit_loops(out, prog, sp, nest, 0, indent);
    if !nest.gates.is_empty() {
        let _ = writeln!(out, "{pad}skip_{label}: ;");
    }
}

/// Make an arbitrary nest name safe as part of a C identifier.
fn c_ident(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

fn emit_loops(
    out: &mut String,
    prog: &Program,
    sp: &SpmdProgram,
    nest: &SpmdNest,
    level: usize,
    indent: usize,
) {
    let pad = "  ".repeat(indent);
    if level == nest.source.depth {
        emit_body(out, prog, sp, nest, indent);
        return;
    }
    let b = &nest.source.bounds[level];
    let var_names: Vec<String> = (0..nest.source.depth).map(|l| format!("i{}", l + 1)).collect();
    let lo = render_bound(&b.los, "dct_max", &var_names, prog, sp, true);
    let hi = render_bound(&b.his, "dct_min", &var_names, prog, sp, false);
    let v = &var_names[level];

    match &nest.sched[level] {
        LevelSched::Seq => {
            let _ = writeln!(out, "{pad}for (long {v} = {lo}; {v} <= {hi}; {v}++) {{");
        }
        LevelSched::Dist { proc_dim, folding, extent, offset } => {
            let q = format!("q{proc_dim}");
            let procs = sp.grid[*proc_dim] as i64;
            let off = render_aff(offset, &var_names, prog, sp);
            match folding {
                Folding::Block => {
                    // Owned contiguous range intersected with the loop
                    // bounds — the paper's `b*myid+1 .. min(b*myid+b, N)`.
                    let bsz = (*extent + procs - 1) / procs;
                    let _ = writeln!(
                        out,
                        "{pad}/* BLOCK-owned range of loop {v}: block size {bsz} */"
                    );
                    let _ = writeln!(
                        out,
                        "{pad}for (long {v} = dct_max({lo}, {bsz}*{q} - ({off})); \
                         {v} <= dct_min({hi}, {bsz}*{q} + {bsz} - 1 - ({off})); {v}++) {{"
                    );
                }
                Folding::Cyclic => {
                    let _ = writeln!(
                        out,
                        "{pad}/* CYCLIC-owned iterations of loop {v}: stride {procs} */"
                    );
                    let _ = writeln!(
                        out,
                        "{pad}for (long {v} = {lo} + dct_mod({q} - ({lo}) - ({off}), {procs}); \
                         {v} <= {hi}; {v} += {procs}) {{"
                    );
                }
                Folding::BlockCyclic { block } => {
                    let _ = writeln!(
                        out,
                        "{pad}for (long {v} = {lo}; {v} <= {hi}; {v}++) {{ \
                         /* BLOCK-CYCLIC({block}) ownership test */"
                    );
                    let _ = writeln!(
                        out,
                        "{}if (dct_mod(({v} + ({off})) / {block}, {procs}) != {q}) continue;",
                        "  ".repeat(indent + 1)
                    );
                }
            }
        }
    }
    emit_loops(out, prog, sp, nest, level + 1, indent + 1);
    let _ = writeln!(out, "{pad}}}");
}

fn emit_body(out: &mut String, prog: &Program, sp: &SpmdProgram, nest: &SpmdNest, indent: usize) {
    let pad = "  ".repeat(indent);
    let var_names: Vec<String> = (0..nest.source.depth).map(|l| format!("i{}", l + 1)).collect();
    for s in &nest.source.body {
        let lhs = render_ref(prog, sp, s.lhs.array.0, &s.lhs.access, &var_names, nest);
        let rhs = render_expr(prog, sp, &s.rhs, &var_names, nest);
        let _ = writeln!(out, "{pad}{lhs} = {rhs};");
    }
}

/// Render one array reference as a linear-array access through the
/// transformed layout, applying the in-partition optimization where the
/// subscript of a strip-mined dimension is the distributed loop variable.
fn render_ref(
    prog: &Program,
    sp: &SpmdProgram,
    x: usize,
    access: &dct_ir::AffineAccess,
    vars: &[String],
    nest: &SpmdNest,
) -> String {
    let lay = &sp.layouts[x];
    let name = prog.arrays[x].name.to_uppercase();
    let repl = if sp.repl_stride[x] > 0 {
        format!("{} * (long)myid + ", lay.layout.size())
    } else {
        String::new()
    };

    if lay.layout.is_identity() {
        // Plain column-major linearization.
        let dims = lay.layout.final_dims();
        let mut addr = String::new();
        for d in (0..access.rank()).rev() {
            let sub = render_aff(&access.dim_aff(d), vars, prog, sp);
            if addr.is_empty() {
                addr = format!("({sub})");
            } else {
                addr = format!("(({addr}) * {} + ({sub}))", dims[d]);
            }
        }
        return format!("{name}[{repl}{addr}]");
    }

    // Transformed layout: strip-mined dims contribute mod/div terms; emit
    // the optimized forms of Section 4.3 where legal.
    let final_dims = lay.layout.final_dims();
    // Build the transformed index expressions dimension by dimension by
    // replaying the transform pipeline symbolically. `affs` tracks which
    // current dims still hold an untouched original subscript (the
    // in-partition analysis needs the affine form, not the string).
    let mut exprs: Vec<String> = (0..access.rank())
        .map(|d| render_aff(&access.dim_aff(d), vars, prog, sp))
        .collect();
    let mut affs: Vec<Option<Aff>> = (0..access.rank()).map(|d| Some(access.dim_aff(d))).collect();
    for t in lay.layout.transforms() {
        match t {
            dct_layout::DataTransform::StripMine { dim, strip } => {
                let e = exprs[*dim].clone();
                // In-partition optimization (Section 4.3): if this dim's
                // subscript is the BLOCK-distributed loop variable (plus
                // the distribution's own constant offset), the whole owned
                // range stays inside one strip: the div is the grid
                // coordinate and the mod a simple linear form.
                let opt = affs[*dim]
                    .as_ref()
                    .and_then(|a| in_partition_opt(a, &e, strip, nest, sp));
                let (modpart, divpart) = match opt {
                    Some((m, d)) => (m, d),
                    None => (format!("dct_mod({e}, {strip})"), format!("dct_div({e}, {strip})")),
                };
                exprs.splice(*dim..=*dim, [modpart, divpart]);
                affs.splice(*dim..=*dim, [None, None]);
            }
            dct_layout::DataTransform::Permute { perm } => {
                exprs = perm.iter().map(|&p| exprs[p].clone()).collect();
                affs = perm.iter().map(|&p| affs[p].clone()).collect();
            }
            dct_layout::DataTransform::Skew { target, source, factor, offset } => {
                exprs[*target] = format!(
                    "({} + {} * ({}) + {})",
                    exprs[*target], factor, exprs[*source], offset
                );
                affs[*target] = None;
            }
        }
    }
    let mut addr = String::new();
    for d in (0..exprs.len()).rev() {
        if addr.is_empty() {
            addr = format!("({})", exprs[d]);
        } else {
            addr = format!("(({addr}) * {} + ({}))", final_dims[d], exprs[d]);
        }
    }
    format!("{name}[{repl}{addr}]")
}

/// The Section 4.3 in-partition rewrite: a subscript of the form
/// `i_l + c` where loop `l` is BLOCK-distributed with scheduling offset
/// `c` stays inside one strip for the whole owned range, so
/// `div == q` and `mod == (subscript) - q*strip` — the paper's idiv/imod.
fn in_partition_opt(
    sub: &Aff,
    expr: &str,
    strip: &i64,
    nest: &SpmdNest,
    sp: &SpmdProgram,
) -> Option<(String, String)> {
    for (l, ls) in nest.sched.iter().enumerate() {
        if let LevelSched::Dist { proc_dim, folding: Folding::Block, extent, offset } = ls {
            let bsz = (*extent + sp.grid[*proc_dim] as i64 - 1) / sp.grid[*proc_dim] as i64;
            if bsz != *strip {
                continue;
            }
            // Subscript must be exactly i_l + offset (the distribution's
            // own alignment offset): then owned iterations satisfy
            // q*strip <= sub < (q+1)*strip.
            let var_ok = sub.var_coeff(l) == 1
                && sub.var_coeffs.iter().enumerate().all(|(k, &c)| k == l || c == 0);
            let mut residual = sub.clone();
            for c in residual.var_coeffs.iter_mut() {
                *c = 0;
            }
            let mut off = offset.clone();
            normalize_aff(&mut residual);
            normalize_aff(&mut off);
            if var_ok && residual == off {
                return Some((
                    format!("(({expr}) - q{proc_dim} * {strip})"),
                    format!("q{proc_dim}"),
                ));
            }
        }
    }
    None
}

fn normalize_aff(a: &mut Aff) {
    while a.var_coeffs.last() == Some(&0) {
        a.var_coeffs.pop();
    }
    while a.param_coeffs.last() == Some(&0) {
        a.param_coeffs.pop();
    }
}

fn owner_expr(folding: &Folding, value: &str, extent: i64, procs: usize) -> String {
    match folding {
        Folding::Block => {
            let b = (extent + procs as i64 - 1) / procs as i64;
            format!("(({value}) / {b})")
        }
        Folding::Cyclic => format!("dct_mod({value}, {procs})"),
        Folding::BlockCyclic { block } => format!("dct_mod(({value}) / {block}, {procs})"),
    }
}

fn render_aff(a: &Aff, vars: &[String], prog: &Program, sp: &SpmdProgram) -> String {
    // Parameters are concrete at codegen time; only the time index stays
    // symbolic (it is the generated `t` loop variable).
    let names: Vec<String> = (0..prog.params.len())
        .map(|i| {
            if sp.time_param == Some(i) {
                "t".to_string()
            } else {
                sp.params[i].to_string()
            }
        })
        .collect();
    a.render(vars, &names)
}

fn render_bound(
    forms: &[dct_ir::BoundForm],
    comb: &str,
    vars: &[String],
    prog: &Program,
    sp: &SpmdProgram,
    lower: bool,
) -> String {
    let one = |f: &dct_ir::BoundForm| {
        let e = render_aff(&f.aff, vars, prog, sp);
        if f.div == 1 {
            format!("({e})")
        } else if lower {
            // Ceiling division for lower bounds.
            format!("(-dct_div(-({e}), {}))", f.div)
        } else {
            format!("dct_div({e}, {})", f.div)
        }
    };
    match forms {
        [f] => one(f),
        _ => {
            let mut s = one(&forms[0]);
            for f in &forms[1..] {
                s = format!("{comb}({s}, {})", one(f));
            }
            s
        }
    }
}

fn render_expr(prog: &Program, sp: &SpmdProgram, e: &Expr, vars: &[String], nest: &SpmdNest) -> String {
    match e {
        Expr::Const(c) => {
            if c.fract() == 0.0 {
                format!("{c:.1}")
            } else {
                format!("{c}")
            }
        }
        Expr::Index(l) => format!("(double)i{}", l + 1),
        Expr::Ref(r) => render_ref(prog, sp, r.array.0, &r.access, vars, nest),
        Expr::Bin(op, a, b) => {
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
            };
            format!(
                "({} {sym} {})",
                render_expr(prog, sp, a, vars, nest),
                render_expr(prog, sp, b, vars, nest)
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::{codegen, SpmdOptions};
    use crate::cost::CostModel;
    use dct_decomp::decompose;
    use dct_dep::{analyze_nest, DepConfig};
    use dct_ir::{Aff, Expr, ProgramBuilder};

    fn simple_program() -> Program {
        let mut pb = ProgramBuilder::new("demo");
        let n = pb.param("N", 16);
        let a = pb.array("A", &[Aff::param(n), Aff::param(n)], 4);
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
        pb.build()
    }

    fn emit(prog: &Program, procs: usize) -> String {
        let cfg = DepConfig { nparams: prog.params.len(), param_min: 4 };
        let deps: Vec<_> = prog.nests.iter().map(|x| analyze_nest(x, cfg)).collect();
        let dec = decompose(prog, &deps).unwrap();
        let sp = codegen(prog, &dec, &SpmdOptions {
            procs,
            params: prog.default_params(),
            transform_data: true,
            barrier_elision: true,
            cost: CostModel::default(),
        }).unwrap();
        emit_c(prog, &sp)
    }

    #[test]
    fn emits_compilable_looking_c() {
        let prog = simple_program();
        let c = emit(&prog, 4);
        assert!(c.contains("void kernel(int myid, int nprocs)"));
        assert!(c.contains("static float A["));
        assert!(c.contains("const long q0 ="));
        // Block-owned range of the distributed row loop.
        assert!(c.contains("BLOCK-owned range"), "missing owned range:\n{c}");
        assert!(c.contains("dct_barrier();"));
        // Balanced braces.
        assert_eq!(c.matches('{').count(), c.matches('}').count(), "unbalanced braces:\n{c}");
    }

    #[test]
    fn in_partition_optimization_fires() {
        // A distributed on dim 0 (rows, not the highest dim) forces a
        // strip-mined layout; the distributed loop variable's subscript
        // must use the optimized q/idx form, not dct_div/dct_mod.
        let prog = simple_program();
        let c = emit(&prog, 4);
        assert!(
            c.contains("q0 * 4") || c.contains("q0*4"),
            "expected in-partition rewrite (i - q*strip) in:\n{c}"
        );
    }

    #[test]
    fn runtime_header_is_selfcontained() {
        let h = emit_runtime_header();
        assert!(h.contains("dct_barrier"));
        assert!(h.contains("dct_mod"));
        assert!(h.contains("#ifndef DCT_RT_H"));
    }

    #[test]
    fn replicated_arrays_get_per_proc_storage() {
        let mut pb = ProgramBuilder::new("rep");
        let n = pb.param("N", 8);
        let u = pb.array("U", &[Aff::param(n), Aff::param(n)], 4);
        let a = pb.array("A", &[Aff::param(n), Aff::param(n)], 4);
        // U read transposed in one nest, straight in another (conflict ->
        // replication), both nests carried so 1-D.
        for (name, tr) in [("n1", false), ("n2", true)] {
            let mut nb = pb.nest_builder(name);
            let j = nb.loop_var(Aff::konst(1), Aff::param(n) - 1);
            let i = nb.loop_var(Aff::konst(0), Aff::param(n) - 1);
            let read = if tr {
                nb.read(u, &[Aff::var(j), Aff::var(i)])
            } else {
                nb.read(u, &[Aff::var(i), Aff::var(j)])
            };
            let rhs = read + nb.read(a, &[Aff::var(i), Aff::var(j) - 1]);
            nb.assign(a, &[Aff::var(i), Aff::var(j)], rhs);
            pb.nest(nb.build());
        }
        let prog = pb.build();
        let c = emit(&prog, 4);
        assert!(c.contains("replicated"), "missing replication comment:\n{c}");
    }
}
