//! The four simulation workloads (`sim_hits`, `sim_misses`,
//! `sim_observed`, `sim_sharded_2t`) and the executor, machine-count,
//! observer and host-parallelism probes of their traced runs.

use crate::golden::{
    check_cycle_anchors, compile_strict, sim_options, CellKey, Golden, GoldenCell, SUITE,
};
use crate::harness::{Cfg, PassCtx, Report, Workload};
use crate::measure::{median, shuffle};
use crate::micro;
use crate::trace::Tracer;
use dct_bench::fuzz::Lcg;
use dct_core::{Compiled, Strategy};
use dct_ir::Program;
use dct_spmd::{RunResult, SimOptions};
use std::time::Instant;

use Strategy::{Base, CompDecomp, Full};

/// The six Table 1 cells whose L1 hit ratio at paper scale and P = 32
/// is at least 0.85 (README has the table). `sim_misses` is the other 15.
const HITS: [(&str, Strategy); 6] = [
    ("lu", Full),
    ("swm256", Base),
    ("swm256", CompDecomp),
    ("tomcatv", Base),
    ("tomcatv", CompDecomp),
    ("tomcatv", Full),
];

const OBSERVED: [(&str, Strategy); 6] = [
    ("lu", Full),
    ("tomcatv", Full),
    ("stencil", CompDecomp),
    ("erlebacher", Full),
    ("adi", Base),
    ("swm256", Full),
];

const SHARDED: [(&str, Strategy); 2] = [("fig6b", Full), ("fig10b", Full)];

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Hits,
    Misses,
    Observed,
    Sharded,
}

fn cell_list(kind: Kind) -> Vec<(&'static str, Strategy)> {
    match kind {
        Kind::Hits => HITS.to_vec(),
        Kind::Observed => OBSERVED.to_vec(),
        Kind::Sharded => SHARDED.to_vec(),
        Kind::Misses => SUITE
            .iter()
            .flat_map(|&b| Strategy::ALL.map(|s| (b, s)))
            .filter(|c| !HITS.contains(c))
            .collect(),
    }
}

struct SimCell {
    label: String,
    prog: Program,
    compiled: Compiled,
    opts: SimOptions,
    want: GoldenCell,
    walls: Vec<f64>,
    /// Walls of the traced run's extra `lower` calls.
    lower_s: Vec<f64>,
}

impl SimCell {
    fn build(key: &CellKey, golden: &Golden) -> Result<SimCell, String> {
        let prog = key.program();
        let compiled = compile_strict(&prog, key.strategy, &key.id())?;
        let opts = sim_options(&compiled, &prog, key.procs);
        let want = golden.cell(key, &prog)?;
        Ok(SimCell {
            label: key.label(),
            prog,
            compiled,
            opts,
            want,
            walls: Vec::new(),
            lower_s: Vec::new(),
        })
    }

    /// One call into the executor, as a span; the result is checked
    /// against golden outside the timed section.
    fn run(
        &self,
        opts: &SimOptions,
        tracer: &Tracer,
        pass: u32,
        report: &mut Report,
    ) -> Option<(RunResult, f64)> {
        let (r, wall) = tracer.span("spmd.simulate", pass, |counts| {
            let r = dct_spmd::simulate(&self.compiled.program, &self.compiled.decomposition, opts);
            if let Ok(r) = &r {
                counts.add("accesses", r.stats.total().accesses);
                counts.add("kernel_iters", r.fast.kernel_iters);
            }
            r
        });
        match r {
            Ok(r) => {
                report.check(match self.want.mismatch(&r) {
                    Some(why) => Err(format!("{}: {why}", self.label)),
                    None => Ok(()),
                });
                Some((r, wall))
            }
            Err(e) => {
                report.check(Err(format!("{}: {e}", self.label)));
                None
            }
        }
    }
}

fn build_cells(kind: Kind, scale_milli: i64, golden: &Golden) -> Result<Vec<SimCell>, String> {
    cell_list(kind)
        .into_iter()
        .map(|(source, strategy)| {
            SimCell::build(&CellKey { source, strategy, scale_milli, procs: 32 }, golden)
        })
        .collect()
}

/// Exact counts of one pass, summed over its cells.
#[derive(Default)]
struct Counts {
    cycles: u64,
    /// One row per cell (its total over processors), in canonical cell
    /// order, so that `Stats::total` sums the pass.
    stats: dct_machine::Stats,
    fast: dct_spmd::exec::FastPathStats,
    par_regions: u64,
    seq_regions: u64,
    race_reports: u64,
    profile_rows: u64,
}

impl Counts {
    fn add(&mut self, r: &RunResult) {
        self.cycles += r.cycles;
        self.stats.per_proc.push(r.stats.total());
        let f = &mut self.fast;
        f.fast_iters += r.fast.fast_iters;
        f.slow_iters += r.fast.slow_iters;
        f.segments += r.fast.segments;
        f.kernel_iters += r.fast.kernel_iters;
        for (a, b) in f.kernel_shapes.iter_mut().zip(&r.fast.kernel_shapes) {
            *a += b;
        }
        self.par_regions += r.par_regions;
        self.seq_regions += r.seq_regions;
        self.race_reports += r.race.as_ref().map_or(0, |x| x.race_count);
        self.profile_rows += r.mem_profile.as_ref().map_or(0, |m| m.rows.len() as u64);
    }
}

pub struct Sim {
    kind: Kind,
    cells: Vec<SimCell>,
    /// The same cells at scale 0.25, for the warm-up pass.
    warm_cells: Vec<SimCell>,
    /// The same cells at the ablation scale: every `_x` ratio of the
    /// traced run compares two legs at this scale, so that the slow leg
    /// (the reference walk is 2-5x) fits the run.
    ablation_cells: Vec<SimCell>,
    rng: Lcg,
    seed: u64,
    /// Counts of the first pass; every later pass must repeat them.
    counts: Option<Counts>,
}

fn configure(kind: Kind, cells: &mut [SimCell]) {
    for c in cells {
        c.opts.race_detect = kind == Kind::Observed;
        c.opts.profile = kind == Kind::Observed;
        c.opts.threads = if kind == Kind::Sharded { 2 } else { 1 };
    }
}

pub fn setup(cfg: &Cfg) -> Result<Box<dyn Workload>, String> {
    let kind = match cfg.workload.as_str() {
        "sim_hits" => Kind::Hits,
        "sim_misses" => Kind::Misses,
        "sim_observed" => Kind::Observed,
        _ => Kind::Sharded,
    };
    let golden = Golden::load()?;
    check_cycle_anchors()?;
    // Paper scale, except the two sharded figure programs (1024^2 at
    // scale 1), which ROADMAP item 2 judges at scale 0.5.
    let (main, ablation) = match (cfg.quick, kind) {
        (true, _) => (250, 250),
        (false, Kind::Sharded) => (500, 250),
        (false, _) => (1000, 500),
    };
    let mut sim = Sim {
        kind,
        cells: build_cells(kind, main, &golden)?,
        warm_cells: build_cells(kind, 250, &golden)?,
        ablation_cells: build_cells(kind, ablation, &golden)?,
        rng: Lcg::new(cfg.seed),
        seed: cfg.seed,
        counts: None,
    };
    configure(kind, &mut sim.cells);
    configure(kind, &mut sim.warm_cells);
    Ok(Box::new(sim))
}

/// Sum of the walls of one leg over `cells`, each run once with `tweak`
/// applied to its options.
fn leg(
    cells: &[SimCell],
    tracer: &Tracer,
    report: &mut Report,
    tweak: impl Fn(&mut SimOptions),
) -> f64 {
    cells
        .iter()
        .map(|c| {
            let mut o = c.opts.clone();
            tweak(&mut o);
            c.run(&o, tracer, 0, report).map_or(0.0, |(_, wall)| wall)
        })
        .sum()
}

impl Workload for Sim {
    fn pass(&mut self, ctx: &mut PassCtx) -> (f64, f64) {
        // The seed only orders the cells: the simulated work, and with
        // it every machine count, is the same for every seed.
        let mut order: Vec<usize> = (0..self.cells.len()).collect();
        shuffle(&mut self.rng, &mut order);
        let mut counts = Counts::default();
        let mut walls = Vec::new();
        let start = Instant::now();
        for i in order {
            let cell = &self.cells[i];
            let ((lower_s, ran), _) = ctx.tracer.span("cell", ctx.pass, |_| {
                // `simulate` lowers and then executes; the traced run
                // times one more `lower` call to tell the two apart.
                let lower_s = ctx.traced.then(|| {
                    let (sp, s) = ctx.tracer.span("spmd.lower", ctx.pass, |_| {
                        dct_spmd::lower(
                            &cell.compiled.program,
                            &cell.compiled.decomposition,
                            &cell.opts,
                        )
                    });
                    std::hint::black_box(sp.is_ok());
                    s
                });
                (lower_s, cell.run(&cell.opts, ctx.tracer, ctx.pass, ctx.report))
            });
            let cell = &mut self.cells[i];
            cell.lower_s.extend(lower_s);
            if let Some((r, wall)) = ran {
                counts.add(&r);
                cell.walls.push(wall);
                walls.push(wall * 1e3);
            }
        }
        let wall = start.elapsed().as_secs_f64();
        // The cells differ in size, so their pooled walls have no steady
        // median: a pass contributes the median of its own cells.
        if ctx.end_to_end() {
            ctx.report.op_ms.push(median(&walls));
        }
        let accesses = counts.stats.total().accesses;
        match &self.counts {
            None => self.counts = Some(counts),
            Some(first) => ctx.report.check(
                if first.stats.total() == counts.stats.total() && first.cycles == counts.cycles {
                    Ok(())
                } else {
                    Err("machine counts changed between passes".into())
                },
            ),
        }
        (wall, accesses as f64 / 1e6)
    }

    fn warmup(&mut self, ctx: &mut PassCtx) {
        let mut scratch = Report::default();
        leg(&self.warm_cells, ctx.tracer, &mut scratch, |_| {});
    }

    fn probes(&mut self, tracer: &Tracer, report: &mut Report) {
        let counts = self.counts.as_ref().expect("at least one pass ran");
        let (s, f) = (counts.stats.total(), &counts.fast);
        let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };

        // Machine counts: exact, and identical for every seed and run.
        report.layer("machine.l1_hit_ratio", per(s.l1_hits, s.accesses));
        report.layer("machine.l1_fast_hit_ratio", per(s.l1_fast_hits, s.accesses));
        report.layer("machine.l2_hit_ratio", per(s.l2_hits, s.accesses));
        report.layer("machine.local_frac", per(s.local_mem, s.accesses));
        report.layer("machine.remote_frac", per(s.remote_mem, s.accesses));
        report.layer("machine.remote_dirty_frac", per(s.remote_dirty, s.accesses));
        report.layer("machine.upgrade_frac", per(s.upgrades, s.accesses));
        report.layer("machine.inval_per_kaccess", 1e3 * per(s.invalidations_received, s.accesses));
        report.layer("machine.sim_cycles", counts.cycles as f64);

        // Executor.
        let lowers: Vec<f64> =
            self.cells.iter().flat_map(|c| c.lower_s.iter().map(|s| s * 1e3)).collect();
        report.layer("spmd.lower_ms", median(&lowers));
        let exec_s: f64 = self.cells.iter().map(|c| median(&c.walls) - median(&c.lower_s)).sum();
        report.layer("spmd.exec_ns_per_access", 1e9 * exec_s / s.accesses as f64);
        report.layer("spmd.kernelized_ratio", per(f.kernel_iters, f.fast_iters + f.slow_iters));
        report.layer("spmd.fast_iter_ratio", per(f.fast_iters, f.fast_iters + f.slow_iters));
        report.layer("spmd.avg_segment_len", per(f.fast_iters, f.segments));
        for (name, &n) in dct_spmd::kernel::SHAPE_NAMES.iter().zip(&f.kernel_shapes) {
            report.layer(format!("spmd.kernel_shape.{name}"), per(n, f.kernel_iters));
        }
        report.layer("par.par_regions", counts.par_regions as f64);
        report.layer("par.seq_regions", counts.seq_regions as f64);
        report.layer(
            "par.region_frac",
            per(counts.par_regions, counts.par_regions + counts.seq_regions),
        );

        let cells = &self.ablation_cells;
        match self.kind {
            Kind::Hits | Kind::Misses => {
                // Between them the two workloads time each of the 21
                // Table 1 cells once, plain.
                for c in &self.cells {
                    report.layer(format!("cell.{}.wall_s", c.label), median(&c.walls));
                }
                let plain = leg(cells, tracer, report, |_| {});
                let kernel_off = leg(cells, tracer, report, |o| o.seg_kernels = false);
                let reference = leg(cells, tracer, report, |o| {
                    o.seg_kernels = false;
                    o.fast_path = false;
                });
                report.layer("spmd.kernel_off_x", kernel_off / plain);
                report.layer("spmd.reference_walk_x", reference / plain);
                for s in micro::streams(self.seed) {
                    report.layer(format!("machine.ns.{}", s.name), s.ns_per_access);
                    report.check(if s.on_level >= 0.9 {
                        Ok(())
                    } else {
                        Err(format!(
                            "micro-stream {} resolved only {:.2} at its level",
                            s.name, s.on_level
                        ))
                    });
                }
            }
            Kind::Observed => {
                let plain = leg(cells, tracer, report, |_| {});
                let race = leg(cells, tracer, report, |o| o.race_detect = true);
                let profile = leg(cells, tracer, report, |o| o.profile = true);
                report.layer("race.overhead_x", race / plain);
                report.layer("profile.overhead_x", profile / plain);
                report.layer("race.reports", counts.race_reports as f64);
                report.layer("profile.rows", counts.profile_rows as f64);
            }
            Kind::Sharded => {
                let one = leg(&self.cells, tracer, report, |o| o.threads = 1);
                report.layer("par.wall_1t_s", one);
                report.layer("par.speedup_vs_1t", one / median(&report.pass_s));
                self.native_probe(tracer, report);
                let budget = dct_bench::ThreadBudget {
                    host: dct_spmd::default_threads(),
                    workers: 2,
                    intra: 1,
                };
                let (rows, wall) = tracer.span("harness.table1", 0, |_| {
                    dct_bench::harness::table1_parallel(32, 0.5, budget)
                });
                report.check(if rows.iter().all(|r| r.notes.is_empty()) {
                    Ok(())
                } else {
                    Err("harness table1 has failed cells".into())
                });
                report.layer("harness.table1_2w_s", wall);
            }
        }
    }

    fn single_threaded(&self) -> bool {
        self.kind != Kind::Sharded
    }
}

impl Sim {
    /// `run_native` on two real threads against `simulate` at P = 2, on
    /// the ablation-scale cells; the two must agree on checksum bits.
    fn native_probe(&self, tracer: &Tracer, report: &mut Report) {
        let (mut sim_s, mut native_s) = (0.0, 0.0);
        for c in &self.ablation_cells {
            let opts = sim_options(&c.compiled, &c.prog, 2);
            let (sim, s) = tracer.span("spmd.simulate", 0, |_| {
                dct_spmd::simulate(&c.compiled.program, &c.compiled.decomposition, &opts)
            });
            let (native, n) = tracer.span("native.run", 0, |_| {
                dct_native::run_native(
                    &c.compiled.program,
                    &c.compiled.decomposition,
                    &opts,
                    &dct_native::NativeOptions::default(),
                )
            });
            sim_s += s;
            native_s += n;
            report.check(match (sim, native) {
                (Ok(a), Ok(b)) if a.checksum.to_bits() == b.checksum.to_bits() => Ok(()),
                (Ok(_), Ok(_)) => {
                    Err(format!("{}: native checksum differs from simulated", c.label))
                }
                (Err(e), _) | (_, Err(e)) => Err(format!("{}: {e}", c.label)),
            });
        }
        report.layer("native.wall_p2_s", native_s);
        report.layer("native.vs_sim_p2_x", native_s / sim_s);
    }
}
