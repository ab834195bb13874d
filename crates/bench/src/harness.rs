//! Regenerating the paper's figures and tables: speedup curves per
//! compiler strategy across processor counts, and the Table 1 summary.
//!
//! Every cell runs on the one supervised executor
//! ([`crate::sweep::run_cells`]), whose scheduler is this module's worker
//! pool; this module lists a target's cells and assembles its rows and
//! curves from them. A cell whose compilation or simulation fails (or
//! whose worker panics) becomes a reported failed cell instead of
//! poisoning the whole sweep.

use crate::ablate::Variant;
use crate::cache::kind_strategy;
use crate::programs::{self, Benchmark};
use crate::sweep::{
    run_cells, sweep_suite, table1_tasks, Cell, CellOutcome, CellTask, SweepConfig, SweepReport, KINDS,
};
use dct_core::{Compiler, Strategy};
use dct_ir::{panic_message, DctError, DctResult, Phase, Program};
use std::collections::HashMap;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// The executor's worker pool: `f(i)` for every `i < n` on
/// `budget.workers` scoped threads pulling indices off a shared counter,
/// results in index order. A panicking index becomes `Err(message)` while
/// the other indices keep their results — a bad cell never poisons a sweep.
pub(crate) fn par_map<T: Send>(
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

/// One point of a speedup curve.
#[derive(Clone, Copy, Debug)]
pub struct SpeedupPoint {
    pub procs: usize,
    pub cycles: u64,
    pub speedup: f64,
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
    let id = *ALL_FIGURES.iter().find(|&&f| f == id)?;
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
        _ => ("tomcatv", format!("{0}x{0}", s(257)), programs::tomcatv(s(257), 5)),
    };
    Some(FigureSpec { id, benchmark, size_label, program })
}

/// Every figure id, in paper order.
pub const ALL_FIGURES: &[&str] =
    &["fig4", "fig6", "fig6b", "fig8", "fig10", "fig10b", "fig11", "fig12", "fig13"];

/// Run a figure's cells on the cell executor under `cfg` (its `procs` is
/// not read) and assemble the three curves. The cells are the sequential
/// reference, then each strategy at every count in `procs_list`, labelled
/// by the figure id so two figures of one benchmark never share a cell
/// label. A failed cell is the figure's error; the report says what
/// the cells cost either way.
pub fn run_figure(
    spec: &FigureSpec,
    procs_list: &[usize],
    cfg: &SweepConfig,
    budget: ThreadBudget,
) -> (DctResult<FigureResult>, SweepReport) {
    let task = |kind, procs| CellTask { prog: &spec.program, bench: spec.id, kind, procs, variant: Variant::Default };
    let curves = KINDS[1..].iter().flat_map(|&kind| procs_list.iter().map(move |&p| task(kind, p)));
    let tasks: Vec<CellTask> = std::iter::once(task("seq", 1)).chain(curves).collect();
    let rep = run_cells(cfg, &tasks, budget);
    (figure_result(spec, procs_list, &rep.cells), rep)
}

fn figure_result(spec: &FigureSpec, procs_list: &[usize], cells: &[Cell]) -> DctResult<FigureResult> {
    let cycles = |kind: &str, procs: usize| {
        let cell = cells.iter().find(|c| c.kind == kind && c.procs == procs);
        cell.ok_or_else(|| "cell did not run".to_string()).and_then(Cell::cycles)
    };
    let fail = |what: String, e| DctError::new(Phase::Sim, format!("{} {what}: {e}", spec.id));
    let seq = cycles("seq", 1).map_err(|e| fail("sequential reference".to_string(), e))?;
    let mut curves = Vec::new();
    for (&strategy, kind) in Strategy::ALL.iter().zip(&KINDS[1..]) {
        let mut points = Vec::new();
        for &procs in procs_list {
            let what = || format!("under {} at {procs} procs", strategy.label());
            let c = cycles(kind, procs).map_err(|e| fail(what(), e))?;
            points.push(SpeedupPoint { procs, cycles: c, speedup: seq as f64 / c as f64 });
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

/// What Table 1 prints of a program besides its speedups: the HPF
/// decompositions of its `full` compile, and a note when that compile
/// degraded or failed.
type Decompositions = (Vec<String>, Option<String>);

fn decompositions(prog: &Program) -> Decompositions {
    match Compiler::new(Strategy::Full).compile(prog) {
        Ok(compiled) => {
            let degraded = (!compiled.degradations.is_empty())
                .then(|| format!("full: degraded to {}", compiled.rung.label()));
            let decos = compiled
                .decomposition
                .hpf_all(&compiled.program)
                .into_iter()
                .filter(|d| !d.contains("(*") || d.contains("BLOCK") || d.contains("CYCLIC"))
                .collect();
            (decos, degraded)
        }
        Err(e) => (Vec::new(), Some(format!("decompositions unavailable: {e}"))),
    }
}

/// Assemble one Table 1 row from its benchmark's cells (any order; a
/// missing kind is a failed cell).
fn assemble_row(name: &str, cells: &[&Cell], (decos, deco_note): Decompositions) -> Table1Row {
    let cy: Vec<Result<u64, String>> = KINDS
        .iter()
        .map(|&kind| {
            let cell = cells.iter().find(|c| c.kind == kind);
            cell.ok_or_else(|| "cell did not run".to_string()).and_then(|c| c.cycles())
        })
        .collect();
    let mut notes: Vec<String> = Vec::new();
    for (kind, c) in KINDS.iter().zip(&cy) {
        if let Err(e) = c {
            notes.push(format!("{kind}: {e}"));
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
    notes.extend(deco_note);
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
/// sizes: the `suite.len() * 4` cells (sequential reference + three
/// strategies per benchmark) on the cell executor's worker pool, sized by
/// the thread budget, with no store. A failing or panicking cell becomes a
/// failed cell in its row.
pub fn table1_parallel(procs: usize, scale: f64, budget: ThreadBudget) -> Vec<Table1Row> {
    let suite = programs::suite(scale);
    let rep = run_cells(&SweepConfig::plain(procs, scale), &table1_tasks(&suite, procs), budget);
    table1_rows(&suite, &rep.cells)
}

/// Table 1's rows, in suite order, from its cells; a kind with no cell is
/// a failed cell whose note says it did not run.
pub fn table1_rows(suite: &[Benchmark], cells: &[Cell]) -> Vec<Table1Row> {
    Table1Memo::default().rows(suite, cells)
}

/// Programs a [`Table1Memo`] remembers before it is cleared.
const TABLE1_MEMO_MAX: usize = 4096;

/// [`table1_rows`] for a long-lived owner (the serve API): the
/// decompositions column is compiled once per program, remembered by
/// source-program fingerprint (which covers every field the compiler
/// reads), instead of once per rendered table.
#[derive(Debug, Default)]
pub struct Table1Memo {
    decompositions: Mutex<HashMap<u128, Decompositions>>,
}

impl Table1Memo {
    /// [`table1_rows`], bit for bit.
    pub fn rows(&self, suite: &[Benchmark], cells: &[Cell]) -> Vec<Table1Row> {
        let row = |b: &Benchmark| {
            let fp = dct_ir::program_fingerprint(&b.program);
            let stored = self.decompositions.lock().unwrap_or_else(|e| e.into_inner()).get(&fp).cloned();
            let decos = stored.unwrap_or_else(|| {
                let decos = decompositions(&b.program);
                let mut memo = self.decompositions.lock().unwrap_or_else(|e| e.into_inner());
                if memo.len() >= TABLE1_MEMO_MAX {
                    memo.clear();
                }
                memo.insert(fp, decos.clone());
                decos
            });
            let mine: Vec<&Cell> = cells.iter().filter(|c| c.bench == b.name).collect();
            assemble_row(b.name, &mine, decos)
        };
        suite.iter().map(row).collect()
    }
}

/// One benchmark × strategy cell of the race-check sweep: the detector's
/// `(accesses checked, sync edges)` for a race-free schedule, or why the
/// cell is not certified (a racy schedule is a failed cell whose reason
/// ends in the detector's report).
#[derive(Clone, Debug)]
pub struct RaceCheckCell {
    pub program: String,
    pub strategy: Strategy,
    pub outcome: Result<(u64, u64), String>,
}

impl RaceCheckCell {
    /// True when the cell ran and the detector certified it race-free.
    pub fn is_clean(&self) -> bool {
        self.outcome.is_ok()
    }
}

/// Certify every Table 1 benchmark under every strategy at `cfg.procs`
/// processors with the happens-before race detector on (whatever
/// `cfg.race_check` says), on the cell executor. This is the
/// schedule-soundness check behind `repro --race-check`: the detector is
/// the only oracle that can see missing synchronization, since the
/// deterministic simulator never produces "racy but lucky" values.
pub fn race_check(cfg: &SweepConfig, budget: ThreadBudget) -> Vec<RaceCheckCell> {
    let cfg = SweepConfig { race_check: true, ..cfg.clone() };
    let suite = sweep_suite(&cfg);
    let mut tasks = table1_tasks(&suite, cfg.procs);
    tasks.retain(|t| t.kind != "seq");
    race_cells(&run_cells(&cfg, &tasks, budget).cells)
}

/// The race certificate of cells run with the detector on: one entry per
/// strategy cell (`seq` cells are skipped).
pub fn race_cells(cells: &[Cell]) -> Vec<RaceCheckCell> {
    let entry = |c: &Cell| RaceCheckCell {
        program: c.bench.clone(),
        strategy: kind_strategy(&c.kind, c.procs).0,
        outcome: match (&c.outcome, c.race) {
            (CellOutcome::Failed(e) | CellOutcome::Quarantined(e), _) => Err(e.clone()),
            (_, Some(counts)) => Ok(counts),
            _ => Err("detector produced no report".to_string()),
        },
    };
    cells.iter().filter(|c| c.kind != "seq").map(entry).collect()
}

/// Render the race-check sweep; one line per benchmark × strategy.
pub fn render_race_check(cells: &[RaceCheckCell], procs: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Race check: every benchmark x strategy at {procs} processors (happens-before detector)\n"
    ));
    for c in cells {
        let verdict = match &c.outcome {
            Ok((checked, edges)) => format!("clean ({checked} accesses checked, {edges} sync edges)\n"),
            Err(e) => match e.split_once("schedule races: ") {
                Some((_, rep)) => format!("RACY: {rep}"),
                None => format!("failed: {e}\n"),
            },
        };
        out.push_str(&format!("  {:<12} {:<28} {verdict}", c.program, c.strategy.label()));
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
        let cell = |kind, outcome| Cell::new("stencil", kind, 4, 1.0, outcome);
        let cells = [
            cell("seq", CellOutcome::Cycles(100)),
            cell("base", CellOutcome::Cycles(50)),
            cell("comp", CellOutcome::Cycles(40)),
            cell("full", CellOutcome::Failed("worker panicked: injected failure".to_string())),
        ];
        let row = assemble_row("stencil", &cells.iter().collect::<Vec<_>>(), decompositions(&prog));
        assert_eq!(row.base_speedup, Some(2.0));
        assert_eq!(row.full_speedup, None);
        assert_eq!(row.notes, ["full: worker panicked: injected failure"]);
        let table = render_table1(&[row], 4);
        assert!(table.contains("fail"), "{table}");
        assert!(table.contains("! full: worker panicked: injected failure"), "{table}");
    }
}
