//! Regenerating the paper's figures and tables: speedup curves per
//! compiler strategy across processor counts, and the Table 1 summary.
//!
//! Sweeps are failure-tolerant: a cell whose compilation or simulation
//! fails (or whose worker panics) becomes a reported failed cell instead
//! of poisoning the whole sweep.

use crate::programs;
use dct_core::{sequential_cycles, Compiler, SpeedupPoint, Strategy};
use dct_ir::{panic_message, DctError, DctResult, Phase, Program};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// The harness's one worker pool: `f(i)` for every `i < n` on
/// `budget.workers` scoped threads pulling indices off a shared counter,
/// results in index order. A panicking index becomes `Err(message)` while
/// the other indices keep their results — a bad cell never poisons a sweep.
fn par_map<T: Send>(
    budget: ThreadBudget,
    n: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<Result<T, String>> {
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            let r = catch_unwind(AssertUnwindSafe(|| f(i)))
                .map_err(|p| format!("worker panicked: {}", panic_message(p.as_ref())));
            done.push((i, r));
        }
    };
    let mut out: Vec<Result<T, String>> =
        (0..n).map(|_| Err("worker died before running this cell".to_string())).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..budget.workers.max(1)).map(|_| scope.spawn(worker)).collect();
        // A join error means a worker died outside `catch_unwind`; its
        // cells keep the placeholder error.
        for (i, r) in handles.into_iter().flat_map(|h| h.join().unwrap_or_default()) {
            out[i] = r;
        }
    });
    out
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

/// Run a figure: the three strategies across `procs_list`, one point at
/// a time.
pub fn run_figure(spec: &FigureSpec, procs_list: &[usize]) -> DctResult<FigureResult> {
    figure_on(spec, procs_list, ThreadBudget::clamp(1))
}

/// [`run_figure`] with the independent simulation points swept by a worker
/// pool sized by the thread budget. A failing or panicking point is
/// surfaced as the figure's error, not a process abort.
pub fn run_figure_parallel(
    spec: &FigureSpec,
    procs_list: &[usize],
    budget: ThreadBudget,
) -> DctResult<FigureResult> {
    eprintln!("[{budget}]");
    figure_on(spec, procs_list, budget)
}

fn figure_on(
    spec: &FigureSpec,
    procs_list: &[usize],
    budget: ThreadBudget,
) -> DctResult<FigureResult> {
    let params = spec.program.default_params();
    let seq = sequential_cycles(&spec.program, &params)?;
    let np = procs_list.len();
    // Point t: strategy t / np at procs_list[t % np].
    let points = par_map(budget, Strategy::ALL.len() * np, |t| -> Result<SpeedupPoint, String> {
        let (c, procs) = (Compiler::new(Strategy::ALL[t / np]), procs_list[t % np]);
        let compiled = c.compile(&spec.program).map_err(|e| e.to_string())?;
        let r = c.simulate(&compiled, procs, &params).map_err(|e| e.to_string())?;
        Ok(SpeedupPoint { procs, cycles: r.cycles, speedup: seq as f64 / r.cycles as f64 })
    });
    let curve_of = |(si, &strategy): (usize, &Strategy)| {
        let point = |(ki, &procs): (usize, &usize)| {
            points[si * np + ki].clone().and_then(|p| p).map_err(|e| {
                DctError::new(
                    Phase::Sim,
                    format!("{} under {} at {procs} procs: {e}", spec.id, strategy.label()),
                )
            })
        };
        let points = procs_list.iter().enumerate().map(point).collect::<DctResult<_>>()?;
        Ok(StrategyCurve { strategy, points })
    };
    let curves = Strategy::ALL.iter().enumerate().map(curve_of).collect::<DctResult<_>>()?;
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

/// Run one Table 1 cell: `k` = 0 is the sequential reference, else
/// `Strategy::ALL[k - 1]` at `procs`.
fn run_cell(prog: &Program, params: &[i64], procs: usize, k: usize) -> CellResult {
    match k {
        0 => sequential_cycles(prog, params).map_err(|e| e.to_string()),
        _ => {
            let c = Compiler::new(Strategy::ALL[k - 1]);
            let compiled = c.compile(prog).map_err(|e| e.to_string())?;
            c.simulate(&compiled, procs, params).map(|r| r.cycles).map_err(|e| e.to_string())
        }
    }
}

/// Assemble one Table 1 row from its four cells.
fn assemble_row(name: &str, prog: &Program, cy: &[CellResult]) -> Table1Row {
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
    table1_on(procs, scale, ThreadBudget::clamp(1))
}

/// [`table1`] with the `suite.len() * 4` independent cells (sequential
/// reference + three strategies per benchmark) swept by a worker pool
/// sized by the thread budget. Rows are assembled in suite order, so the
/// output is identical. A failing or panicking cell becomes a failed cell
/// in its row.
pub fn table1_parallel(procs: usize, scale: f64, budget: ThreadBudget) -> Vec<Table1Row> {
    eprintln!("[{budget}]");
    table1_on(procs, scale, budget)
}

fn table1_on(procs: usize, scale: f64, budget: ThreadBudget) -> Vec<Table1Row> {
    let suite = programs::suite(scale);
    // Cell t: benchmark t / 4, run t % 4.
    let cells: Vec<CellResult> = par_map(budget, suite.len() * 4, |t| {
        let prog = &suite[t / 4].program;
        run_cell(prog, &prog.default_params(), procs, t % 4)
    })
    .into_iter()
    .map(|c| c.and_then(|c| c))
    .collect();
    suite.iter().zip(cells.chunks(4)).map(|(b, cy)| assemble_row(b.name, &b.program, cy)).collect()
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
    let c = Compiler::new(strategy);
    let compiled = c.compile(prog).map_err(|e| e.to_string())?;
    let mut opts = dct_core::rung_sim_options(compiled.rung, procs, params.to_vec());
    opts.race_detect = true;
    let r = dct_spmd::simulate(&compiled.program, &compiled.decomposition, &opts)
        .map_err(|e| e.to_string())?;
    r.race.ok_or_else(|| "detector produced no report".to_string())
}

/// Certify every Table 1 benchmark under every strategy at `procs`
/// processors with the happens-before race detector on. Cells are
/// independent and swept with a scoped worker pool, like [`table1_parallel`].
/// This is the schedule-soundness check behind `repro --race-check`: the
/// detector is the only oracle that can see missing synchronization, since
/// the deterministic simulator never produces "racy but lucky" values.
pub fn race_check(procs: usize, scale: f64, budget: ThreadBudget) -> Vec<RaceCheckCell> {
    eprintln!("[{budget}]");
    let suite = programs::suite(scale);
    let ns = Strategy::ALL.len();
    // Cell t: benchmark t / ns under strategy t % ns.
    let outcomes = par_map(budget, suite.len() * ns, |t| {
        let prog = &suite[t / ns].program;
        run_race_cell(prog, &prog.default_params(), procs, Strategy::ALL[t % ns])
    });
    outcomes
        .into_iter()
        .enumerate()
        .map(|(t, outcome)| RaceCheckCell {
            program: suite[t / ns].name.to_string(),
            strategy: Strategy::ALL[t % ns],
            outcome: outcome.and_then(|o| o),
        })
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A panicking index becomes `Err(message)`; every other index keeps
    /// its result, in index order, at any worker count.
    #[test]
    fn par_map_isolates_a_panicking_index() {
        for workers in [1, 2] {
            let budget = ThreadBudget { host: workers, workers, intra: 1 };
            let out = par_map(budget, 5, |i| {
                if i == 3 {
                    panic!("injected failure");
                }
                i * 10
            });
            assert_eq!(out.len(), 5);
            for (i, r) in out.iter().enumerate() {
                match r {
                    Ok(v) => assert_eq!((i != 3, *v), (true, i * 10)),
                    Err(e) => assert!(i == 3 && e.contains("injected failure"), "{i}: {e}"),
                }
            }
        }
        assert!(par_map(ThreadBudget::clamp(2), 0, |i| i).is_empty());
    }

    /// A failed cell is `None` in its row plus a note, which the renderer
    /// prints as `fail`; the row's other cells keep their numbers.
    #[test]
    fn failed_cell_renders_as_fail_with_its_note() {
        let prog = programs::stencil(16, 2);
        let cy = [Ok(100), Ok(50), Ok(40), Err("worker panicked: injected failure".to_string())];
        let row = assemble_row("stencil", &prog, &cy);
        assert_eq!(row.base_speedup, Some(2.0));
        assert_eq!(row.full_speedup, None);
        assert_eq!(row.notes, ["full: worker panicked: injected failure"]);
        let table = render_table1(&[row], 4);
        assert!(table.contains("fail"), "{table}");
        assert!(table.contains("! full: worker panicked: injected failure"), "{table}");
    }
}
