//! Regenerating the paper's figures and tables: speedup curves per
//! compiler strategy across processor counts, and the Table 1 summary.
//!
//! Sweeps are failure-tolerant: a cell whose compilation or simulation
//! fails (or whose worker panics) becomes a reported failed cell instead
//! of poisoning the whole sweep.

use crate::programs;
use dct_core::{sequential_cycles, speedup_curve, Compiler, SpeedupPoint, Strategy};
use dct_ir::{panic_message, DctError, DctResult, Phase, Program};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Atomically and durably write a result artifact: temp file in the same
/// directory, write, fsync the file, rename over the target, fsync the
/// directory. A crash at any instant leaves either the previous contents
/// or the complete new contents — never a torn file — and after the
/// rename the data has actually reached the disk, not just the page
/// cache. Every JSON artifact the harness emits goes through here.
pub fn atomic_write_sync(path: &Path, data: &[u8]) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    std::fs::create_dir_all(&dir)?;
    let name = path.file_name().map(|n| n.to_string_lossy().to_string()).unwrap_or_default();
    let tmp = dir.join(format!(".{name}.tmp"));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(data)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Durability of the rename itself needs the directory synced; on
    // platforms where opening a directory fails this stays best-effort
    // (the rename is still atomic).
    if let Ok(d) = std::fs::File::open(&dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Processor counts used in the paper's figures (1..32; 31 added because
/// LU's conflict pathology makes 31 vs 32 a headline data point).
pub const PAPER_PROCS: &[usize] = &[1, 2, 4, 8, 12, 16, 20, 24, 28, 31, 32];

/// How many simulation cells a sweep's worker pool runs at once on the
/// host's threads. The three public fields stay because the benchmark
/// builds the struct literally.
#[derive(Clone, Copy, Debug)]
pub struct ThreadBudget {
    /// Host threads available (`std::thread::available_parallelism`).
    pub host: usize,
    /// Simulation cells in flight at once.
    pub workers: usize,
    /// Inert (always 1); goes with the follow-up benchmark PR.
    pub intra: usize,
}

impl ThreadBudget {
    /// Clamp a requested worker count to the host.
    pub fn clamp(workers: usize) -> ThreadBudget {
        let host = dct_spmd::default_threads().max(1);
        ThreadBudget { host, workers: workers.clamp(1, host), intra: 1 }
    }
}

impl std::fmt::Display for ThreadBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "thread budget: {} cell(s) in flight on {} host thread(s)",
            self.workers, self.host
        )
    }
}

/// A figure specification: which benchmark, at which size.
#[derive(Clone, Debug)]
pub struct FigureSpec {
    pub id: &'static str,
    pub benchmark: &'static str,
    /// Size label as reported by the paper (e.g. "512x512").
    pub size_label: String,
    pub program: Program,
}

/// One strategy's speedup curve.
#[derive(Clone, Debug)]
pub struct StrategyCurve {
    pub strategy: Strategy,
    pub points: Vec<SpeedupPoint>,
}

/// A regenerated figure: the three curves the paper plots.
#[derive(Clone, Debug)]
pub struct FigureResult {
    pub spec_id: String,
    pub benchmark: String,
    pub size_label: String,
    pub seq_cycles: u64,
    pub curves: Vec<StrategyCurve>,
}

impl FigureResult {
    /// Speedup of `strategy` at the largest processor count.
    pub fn final_speedup(&self, strategy: Strategy) -> f64 {
        self.curves
            .iter()
            .find(|c| c.strategy == strategy)
            .and_then(|c| c.points.last())
            .map(|p| p.speedup)
            .unwrap_or(0.0)
    }

    /// Speedup of `strategy` at processor count `p`.
    pub fn speedup_at(&self, strategy: Strategy, p: usize) -> Option<f64> {
        self.curves
            .iter()
            .find(|c| c.strategy == strategy)?
            .points
            .iter()
            .find(|x| x.procs == p)
            .map(|x| x.speedup)
    }

    /// Render as the rows the paper plots: one line per processor count
    /// with the three speedups.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# {} — {} ({})\n",
            self.spec_id, self.benchmark, self.size_label
        ));
        out.push_str("procs   base  comp-decomp  +data-transform\n");
        let n = self.curves[0].points.len();
        for k in 0..n {
            let p = self.curves[0].points[k].procs;
            let row: Vec<String> = self
                .curves
                .iter()
                .map(|c| format!("{:8.2}", c.points[k].speedup))
                .collect();
            out.push_str(&format!("{p:5} {}\n", row.join(" ")));
        }
        out
    }
}

/// Build a figure spec by id ("fig4", "fig6", "fig6b", "fig8", "fig10",
/// "fig10b", "fig11", "fig12", "fig13"), at `scale` of the paper size.
pub fn figure(id: &str, scale: f64) -> Option<FigureSpec> {
    let s = |n: i64| ((n as f64 * scale).round() as i64).max(16);
    let (benchmark, size_label, program): (&'static str, String, Program) = match id {
        "fig4" => ("vpenta", format!("{0}x{0}", s(128)), programs::vpenta(s(128), 3)),
        "fig6" => ("lu", format!("{0}x{0}", s(256)), programs::lu(s(256))),
        "fig6b" => ("lu", format!("{0}x{0}", s(1024)), programs::lu(s(1024))),
        "fig8" => ("stencil", format!("{0}x{0}", s(512)), programs::stencil(s(512), 5)),
        "fig10" => ("adi", format!("{0}x{0}", s(256)), programs::adi(s(256), 5)),
        "fig10b" => ("adi", format!("{0}x{0}", s(1024)), programs::adi(s(1024), 5)),
        "fig11" => ("erlebacher", format!("{0}^3", s(64)), programs::erlebacher(s(64))),
        "fig12" => ("swm256", format!("{0}x{0}", s(257)), programs::swm256(s(257), 5)),
        "fig13" => ("tomcatv", format!("{0}x{0}", s(257)), programs::tomcatv(s(257), 5)),
        _ => return None,
    };
    Some(FigureSpec { id: Box::leak(id.to_string().into_boxed_str()), benchmark, size_label, program })
}

/// Every figure id, in paper order.
pub const ALL_FIGURES: &[&str] =
    &["fig4", "fig6", "fig6b", "fig8", "fig10", "fig10b", "fig11", "fig12", "fig13"];

/// Run a figure: the three strategies across `procs_list`.
pub fn run_figure(spec: &FigureSpec, procs_list: &[usize]) -> DctResult<FigureResult> {
    let params = spec.program.default_params();
    let seq = sequential_cycles(&spec.program, &params)?;
    let curves = Strategy::ALL
        .iter()
        .map(|&strategy| {
            Ok(StrategyCurve {
                strategy,
                points: speedup_curve(&spec.program, strategy, procs_list, &params, seq)?,
            })
        })
        .collect::<DctResult<Vec<_>>>()?;
    Ok(FigureResult {
        spec_id: spec.id.to_string(),
        benchmark: spec.benchmark.to_string(),
        size_label: spec.size_label.clone(),
        seq_cycles: seq,
        curves,
    })
}

/// Parallel variant of [`run_figure`]: simulation points are independent,
/// so they are swept with a scoped worker pool whose size respects the
/// thread budget. A panicking worker is caught and surfaced as an error
/// for its point, not a process abort.
pub fn run_figure_parallel(
    spec: &FigureSpec,
    procs_list: &[usize],
    budget: ThreadBudget,
) -> DctResult<FigureResult> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    eprintln!("[{budget}]");
    let workers = budget.workers;
    let params = spec.program.default_params();
    let seq = sequential_cycles(&spec.program, &params)?;

    // Task list: (strategy index, procs index).
    let tasks: Vec<(usize, usize)> = (0..Strategy::ALL.len())
        .flat_map(|s| (0..procs_list.len()).map(move |k| (s, k)))
        .collect();
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Vec<Option<Result<SpeedupPoint, String>>>>> =
        Mutex::new(vec![vec![None; procs_list.len()]; Strategy::ALL.len()]);

    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| {
                // Each worker compiles lazily per strategy (compilation is
                // cheap relative to simulation).
                let mut compiled: Vec<Option<Result<(Compiler, dct_core::Compiled), String>>> =
                    (0..Strategy::ALL.len()).map(|_| None).collect();
                loop {
                    let t = next.fetch_add(1, Ordering::Relaxed);
                    if t >= tasks.len() {
                        break;
                    }
                    let (si, ki) = tasks[t];
                    let strategy = Strategy::ALL[si];
                    if compiled[si].is_none() {
                        let c = Compiler::new(strategy);
                        let cc = catch_unwind(AssertUnwindSafe(|| c.compile(&spec.program)));
                        compiled[si] = Some(match cc {
                            Ok(Ok(cc)) => Ok((c, cc)),
                            Ok(Err(e)) => Err(e.to_string()),
                            Err(p) => Err(panic_message(p.as_ref())),
                        });
                    }
                    let procs = procs_list[ki];
                    let point = match compiled[si].as_ref().unwrap() {
                        Err(e) => Err(e.clone()),
                        Ok((c, cc)) => {
                            match catch_unwind(AssertUnwindSafe(|| c.simulate(cc, procs, &params))) {
                                Ok(Ok(r)) => Ok(SpeedupPoint {
                                    procs,
                                    cycles: r.cycles,
                                    speedup: seq as f64 / r.cycles as f64,
                                }),
                                Ok(Err(e)) => Err(e.to_string()),
                                Err(p) => Err(panic_message(p.as_ref())),
                            }
                        }
                    };
                    results.lock().unwrap()[si][ki] = Some(point);
                }
            });
        }
    });

    let results = results.into_inner().unwrap();
    let mut curves = Vec::with_capacity(Strategy::ALL.len());
    for (si, &strategy) in Strategy::ALL.iter().enumerate() {
        let mut points = Vec::with_capacity(procs_list.len());
        for (ki, slot) in results[si].iter().enumerate() {
            match slot {
                Some(Ok(p)) => points.push(*p),
                Some(Err(e)) => {
                    return Err(DctError::new(
                        Phase::Sim,
                        format!(
                            "{} under {} at {} procs: {e}",
                            spec.id,
                            strategy.label(),
                            procs_list[ki]
                        ),
                    ))
                }
                None => {
                    return Err(DctError::internal(
                        Phase::Sim,
                        format!("{}: sweep point never ran", spec.id),
                    ))
                }
            }
        }
        curves.push(StrategyCurve { strategy, points });
    }
    Ok(FigureResult {
        spec_id: spec.id.to_string(),
        benchmark: spec.benchmark.to_string(),
        size_label: spec.size_label.clone(),
        seq_cycles: seq,
        curves,
    })
}

/// One row of Table 1. Speedups are `None` when that cell's compilation
/// or simulation failed; `notes` carries the reasons.
#[derive(Clone, Debug)]
pub struct Table1Row {
    pub program: String,
    pub base_speedup: Option<f64>,
    pub full_speedup: Option<f64>,
    pub comp_decomp_critical: bool,
    pub data_transform_critical: bool,
    pub decompositions: Vec<String>,
    pub notes: Vec<String>,
}

/// Outcome of one simulation cell: cycles, or why it failed.
type CellResult = Result<u64, String>;

/// Table 1 cell labels, in task order: sequential reference then the
/// three strategies.
const CELL_LABELS: [&str; 4] = ["sequential", "base", "comp-decomp", "full"];

/// Run one Table 1 cell, catching panics so a bad benchmark cannot
/// poison the sweep.
fn run_cell(prog: &Program, params: &[i64], procs: usize, k: usize) -> CellResult {
    let body = || -> Result<u64, String> {
        match k {
            0 => sequential_cycles(prog, params).map_err(|e| e.to_string()),
            _ => {
                let c = Compiler::new(Strategy::ALL[k - 1]);
                let compiled = c.compile(prog).map_err(|e| e.to_string())?;
                c.simulate(&compiled, procs, params).map(|r| r.cycles).map_err(|e| e.to_string())
            }
        }
    };
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(r) => r,
        Err(p) => Err(format!("worker panicked: {}", panic_message(p.as_ref()))),
    }
}

/// Assemble one Table 1 row from its four cells.
fn assemble_row(name: &str, prog: &Program, cy: &[CellResult; 4]) -> Table1Row {
    let mut notes: Vec<String> = Vec::new();
    for (k, c) in cy.iter().enumerate() {
        if let Err(e) = c {
            notes.push(format!("{}: {e}", CELL_LABELS[k]));
        }
    }
    let speed = |k: usize| -> Option<f64> {
        match (&cy[0], &cy[k]) {
            (Ok(seq), Ok(c)) => Some(*seq as f64 / *c as f64),
            _ => None,
        }
    };
    let (base, comp, full) = (speed(1), speed(2), speed(3));
    // A technique is "critical" when removing it costs >= 15%. Criticality
    // is only decidable when all three strategies produced numbers.
    let (comp_critical, data_critical) = match (base, comp, full) {
        (Some(b), Some(c), Some(f)) => {
            (c > b * 1.15 || f > b * 1.15 && c * 1.15 < f, f > c * 1.15)
        }
        _ => (false, false),
    };
    let decos: Vec<String> = match Compiler::new(Strategy::Full).compile(prog) {
        Ok(compiled) => {
            if !compiled.degradations.is_empty() {
                notes.push(format!("full: degraded to {}", compiled.rung.label()));
            }
            compiled
                .decomposition
                .hpf_all(&compiled.program)
                .into_iter()
                .filter(|d| !d.contains("(*") || d.contains("BLOCK") || d.contains("CYCLIC"))
                .collect()
        }
        Err(e) => {
            notes.push(format!("decompositions unavailable: {e}"));
            Vec::new()
        }
    };
    Table1Row {
        program: name.to_string(),
        base_speedup: base,
        full_speedup: full,
        comp_decomp_critical: comp_critical,
        data_transform_critical: data_critical,
        decompositions: decos,
        notes,
    }
}

/// Regenerate Table 1 at `procs` processors and `scale` of the paper
/// sizes, one cell at a time.
pub fn table1(procs: usize, scale: f64) -> Vec<Table1Row> {
    let suite = programs::suite(scale);
    suite
        .iter()
        .map(|b| {
            let params = b.program.default_params();
            let cy: [CellResult; 4] =
                std::array::from_fn(|k| run_cell(&b.program, &params, procs, k));
            assemble_row(b.name, &b.program, &cy)
        })
        .collect()
}

/// Parallel variant of [`table1`]: the 4 simulations per benchmark
/// (sequential reference + three strategies) are independent, so all
/// `suite.len() * 4` of them are swept with a scoped worker pool sized
/// by the thread budget. Rows are assembled in suite order afterwards
/// — the output is identical to the sequential version. A failing or
/// panicking cell becomes a failed cell in its row, never a poisoned
/// sweep.
pub fn table1_parallel(procs: usize, scale: f64, budget: ThreadBudget) -> Vec<Table1Row> {
    table1_parallel_with_hook(procs, scale, budget, None)
}

/// Testing back door for [`table1_parallel`]: `hook(bench, k)` runs inside
/// the worker before cell `(bench, k)` and may panic to simulate a crashed
/// cell.
#[doc(hidden)]
pub fn table1_parallel_with_hook(
    procs: usize,
    scale: f64,
    budget: ThreadBudget,
    hook: Option<&(dyn Fn(&str, usize) + Sync)>,
) -> Vec<Table1Row> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    eprintln!("[{budget}]");
    let workers = budget.workers;
    if workers <= 1 && hook.is_none() {
        // No across-cell parallelism: the pool is pure overhead.
        return table1(procs, scale);
    }
    let suite = programs::suite(scale);
    // Task (b, k): benchmark b, run k = 0 sequential reference, else
    // Strategy::ALL[k - 1] at `procs`.
    let tasks: Vec<(usize, usize)> =
        (0..suite.len()).flat_map(|b| (0..4).map(move |k| (b, k))).collect();
    let next = AtomicUsize::new(0);
    let cells: Mutex<Vec<[CellResult; 4]>> =
        Mutex::new(vec![std::array::from_fn(|_| Err("never ran".to_string())); suite.len()]);

    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| loop {
                let t = next.fetch_add(1, Ordering::Relaxed);
                if t >= tasks.len() {
                    break;
                }
                let (b, k) = tasks[t];
                let bench = &suite[b];
                let params = bench.program.default_params();
                let c = match catch_unwind(AssertUnwindSafe(|| {
                    if let Some(h) = hook {
                        h(bench.name, k);
                    }
                    run_cell(&bench.program, &params, procs, k)
                })) {
                    Ok(r) => r,
                    Err(p) => Err(format!("worker panicked: {}", panic_message(p.as_ref()))),
                };
                cells.lock().unwrap()[b][k] = c;
            });
        }
    });

    let cells = cells.into_inner().unwrap();
    suite.iter().zip(&cells).map(|(b, cy)| assemble_row(b.name, &b.program, cy)).collect()
}

/// One benchmark × strategy cell of the race-check sweep: the detector's
/// report, or why the cell could not run.
#[derive(Clone, Debug)]
pub struct RaceCheckCell {
    pub program: String,
    pub strategy: Strategy,
    pub outcome: Result<dct_ir::RaceReport, String>,
}

impl RaceCheckCell {
    /// True when the cell ran and the detector certified it race-free.
    pub fn is_clean(&self) -> bool {
        matches!(&self.outcome, Ok(rep) if rep.is_race_free())
    }
}

/// Run one race-check cell: compile under `strategy`, simulate at `procs`
/// with the happens-before detector enabled, and return its report.
fn run_race_cell(
    prog: &Program,
    params: &[i64],
    procs: usize,
    strategy: Strategy,
) -> Result<dct_ir::RaceReport, String> {
    let body = || -> Result<dct_ir::RaceReport, String> {
        let c = Compiler::new(strategy);
        let compiled = c.compile(prog).map_err(|e| e.to_string())?;
        let mut opts = dct_core::rung_sim_options(compiled.rung, procs, params.to_vec());
        opts.race_detect = true;
        let r = dct_spmd::simulate(&compiled.program, &compiled.decomposition, &opts)
            .map_err(|e| e.to_string())?;
        r.race.ok_or_else(|| "detector produced no report".to_string())
    };
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(r) => r,
        Err(p) => Err(format!("worker panicked: {}", panic_message(p.as_ref()))),
    }
}

/// Certify every Table 1 benchmark under every strategy at `procs`
/// processors with the happens-before race detector on. Cells are
/// independent and swept with a scoped worker pool, like [`table1_parallel`].
/// This is the schedule-soundness check behind `repro --race-check`: the
/// detector is the only oracle that can see missing synchronization, since
/// the deterministic simulator never produces "racy but lucky" values.
pub fn race_check(procs: usize, scale: f64, budget: ThreadBudget) -> Vec<RaceCheckCell> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    eprintln!("[{budget}]");
    let workers = budget.workers;
    let suite = programs::suite(scale);
    let tasks: Vec<(usize, usize)> =
        (0..suite.len()).flat_map(|b| (0..Strategy::ALL.len()).map(move |s| (b, s))).collect();
    let next = AtomicUsize::new(0);
    let cells: Mutex<Vec<Option<RaceCheckCell>>> = Mutex::new(vec![None; tasks.len()]);

    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| loop {
                let t = next.fetch_add(1, Ordering::Relaxed);
                if t >= tasks.len() {
                    break;
                }
                let (b, s) = tasks[t];
                let bench = &suite[b];
                let strategy = Strategy::ALL[s];
                let params = bench.program.default_params();
                let outcome = run_race_cell(&bench.program, &params, procs, strategy);
                cells.lock().unwrap()[t] =
                    Some(RaceCheckCell { program: bench.name.to_string(), strategy, outcome });
            });
        }
    });

    cells
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|c| c.expect("race-check cell never ran"))
        .collect()
}

/// Render the race-check sweep; one line per benchmark × strategy.
pub fn render_race_check(cells: &[RaceCheckCell], procs: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Race check: every benchmark x strategy at {procs} processors (happens-before detector)\n"
    ));
    for c in cells {
        match &c.outcome {
            Ok(rep) if rep.is_race_free() => out.push_str(&format!(
                "  {:<12} {:<28} clean ({} accesses checked, {} sync edges)\n",
                c.program,
                c.strategy.label(),
                rep.checked,
                rep.sync_edges
            )),
            Ok(rep) => out.push_str(&format!(
                "  {:<12} {:<28} RACY: {rep}",
                c.program,
                c.strategy.label()
            )),
            Err(e) => out.push_str(&format!(
                "  {:<12} {:<28} failed: {e}\n",
                c.program,
                c.strategy.label()
            )),
        }
    }
    let bad = cells.iter().filter(|c| !c.is_clean()).count();
    if bad == 0 {
        out.push_str("  all schedules certified race-free\n");
    } else {
        out.push_str(&format!("  {bad} cell(s) NOT certified\n"));
    }
    out
}

/// Render Table 1. Failed cells print `fail` and the row's notes follow
/// indented beneath it.
pub fn render_table1(rows: &[Table1Row], procs: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Table 1: summary at {procs} processors (speedups vs best sequential)\n"
    ));
    out.push_str("program      base   fully-opt  comp-critical  data-critical  decompositions\n");
    let num = |v: Option<f64>, w: usize| match v {
        Some(x) => format!("{x:>w$.1}"),
        None => format!("{:>w$}", "fail"),
    };
    for r in rows {
        out.push_str(&format!(
            "{:<12} {}  {}   {:^13} {:^14}  {}\n",
            r.program,
            num(r.base_speedup, 5),
            num(r.full_speedup, 8),
            if r.comp_decomp_critical { "yes" } else { "-" },
            if r.data_transform_critical { "yes" } else { "-" },
            r.decompositions.join("  ")
        ));
        for n in &r.notes {
            out.push_str(&format!("             ! {n}\n"));
        }
    }
    out
}
