//! Crash-safety of a sweep whose only durable record is the result store:
//! a killed sweep, run again against the same store, serves its finished
//! cells and recomputes the rest; a budget change misses; a torn temp
//! file is replaced by the retry's own write; corrupt entries are
//! quarantined to `corrupt/` (never silently trusted) and recomputed
//! bit-identical; a read error leaves the entry where it is; and partial
//! results always render as Table 1 with holes.

use dct_bench::chaos::{Fault, FaultInjector, FaultPlan, FaultSite};
use dct_bench::harness::{render_table1, table1_rows};
use dct_bench::sweep::{run_sweep_supervised, sweep_suite, Cell, CellOutcome, SweepConfig};
use dct_bench::{cell_cache_key, programs, CacheKey, ResultStore};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

/// A fresh scratch directory per test (cleaned up on drop).
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let d = std::env::temp_dir().join(format!(
            "dct-sweep-test-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        Scratch(d)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Stencil's four cells at P = 4, scale 0.05, against a store in `dir`.
fn stencil_only(dir: &Scratch) -> SweepConfig {
    let mut cfg = SweepConfig::plain(4, 0.05);
    cfg.only = Some(vec!["stencil".to_string()]);
    cfg.retry.backoff_base_ms = 1;
    cfg.cache = Some(Arc::new(ResultStore::open(&dir.0, None).unwrap()));
    cfg
}

fn store(cfg: &SweepConfig) -> &ResultStore {
    cfg.cache.as_deref().unwrap()
}

/// The store key of one of stencil's cells under `cfg`.
fn key_of(cfg: &SweepConfig, kind: &str) -> CacheKey {
    let procs = if kind == "seq" { 1 } else { cfg.procs };
    cell_cache_key("stencil", &cfg.key_inputs(&sweep_suite(cfg)[0].program, kind, procs)).unwrap()
}

fn entry_path(dir: &Scratch, key: &CacheKey) -> PathBuf {
    dir.0.join(key.shard()).join(key.filename())
}

/// Every file under `dir` (recursively) whose name ends in `.tmp`.
fn temp_files(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    for e in std::fs::read_dir(dir).unwrap() {
        let p = e.unwrap().path();
        if p.is_dir() {
            found.extend(temp_files(&p));
        } else if p.to_string_lossy().ends_with(".tmp") {
            found.push(p);
        }
    }
    found
}

/// The sentinel stored cell: stands for a cell completed by a previous
/// sweep that was killed mid-run (with the barrier count every completed
/// cell carries).
const SENTINEL: u64 = 123_456_789;

fn sentinel_cell(scale: f64) -> Cell {
    Cell { barriers: Some(1), ..Cell::new("stencil", "base", 4, scale, CellOutcome::Cycles(SENTINEL)) }
}

/// A killed sweep, run again against its store, serves the cell that
/// finished and computes the rest; a third run computes nothing.
#[test]
fn resume_skips_completed_cells() {
    let dir = Scratch::new();
    let cfg = stencil_only(&dir);

    // A previous (killed) sweep completed exactly one cell.
    store(&cfg).insert_cell(&key_of(&cfg, "base"), &sentinel_cell(cfg.scale), None).unwrap();

    let rep = run_sweep_supervised(&cfg).unwrap();
    assert_eq!(rep.cells.len(), 4, "seq + three strategies");
    assert_eq!((rep.executed, rep.cache_hits), (3, 1), "{rep:?}");
    let base = rep.cells.iter().find(|c| c.kind == "base").unwrap();
    assert_eq!(base.outcome, CellOutcome::Cycles(SENTINEL), "the finished cell must be served, not recomputed");
    for c in rep.cells.iter().filter(|c| c.kind != "base") {
        assert!(matches!(c.outcome, CellOutcome::Cycles(n) if n != SENTINEL), "{c:?}");
    }
    assert!(temp_files(&dir.0).is_empty(), "an insert left a temp file behind");

    // Run again: every outcome is served, the sentinel included.
    let again = run_sweep_supervised(&cfg).unwrap();
    assert_eq!((again.executed, again.cache_hits), (0, 4));
    assert_eq!(again.cells, rep.cells);

    // Without the store the sentinel cell is computed for real.
    let fresh = run_sweep_supervised(&SweepConfig { cache: None, ..cfg.clone() }).unwrap();
    let base = fresh.cells.iter().find(|c| c.kind == "base").unwrap();
    assert_ne!(base.outcome, CellOutcome::Cycles(SENTINEL));
}

/// A budget is part of a cell's key: timed-out cells are stored as such,
/// and the same sweep without the budget misses every one of them and
/// yields no timeout (a resume keyed by identity used to serve them).
#[test]
fn budget_aborts_into_timeout_cells() {
    let dir = Scratch::new();
    let cfg = SweepConfig { max_cycles: Some(1000), ..stencil_only(&dir) };
    let cells = run_sweep_supervised(&cfg).unwrap().cells;
    assert_eq!(cells.len(), 4);
    for c in &cells {
        assert_eq!(c.outcome, CellOutcome::Timeout, "{c:?}");
    }
    // Timed-out cells are finished: the same budget serves them.
    let again = run_sweep_supervised(&cfg).unwrap();
    assert_eq!((again.executed, again.cache_hits), (0, 4));

    let free = run_sweep_supervised(&SweepConfig { max_cycles: None, ..cfg }).unwrap();
    assert_eq!((free.executed, free.cache_hits), (4, 0), "a budget change must miss");
    for c in &free.cells {
        assert!(matches!(c.outcome, CellOutcome::Cycles(_)), "{c:?}");
    }
    // The timed-out table renders its holes instead of failing.
    let table = render_table1(&table1_rows(&programs::suite(0.05)[2..3], &cells), 4);
    assert!(table.contains("! seq: over its budget (timeout)"), "{table}");
}

/// A writer killed between the temp-file write and the rename leaves a
/// torn `.tmp` behind and no entry. The retry's own write replaces the
/// temp file, so once it succeeds the store holds the entry and no temp.
#[test]
fn crash_between_temp_write_and_rename_is_cleaned_up() {
    let dir = Scratch::new();
    let mut cfg = stencil_only(&dir);
    let plan = FaultPlan { seed: 0, faults: vec![Fault { site: FaultSite::CacheTorn, occurrence: 1 }] };
    let inj = Arc::new(FaultInjector::new(&plan));
    cfg.injector = Some(inj.clone());
    let rep = run_sweep_supervised(&cfg).unwrap();
    assert!(inj.unfired().is_empty(), "the torn write must land: {:?}", inj.unfired());
    assert_eq!(rep.retries, 1, "the torn write costs one retry");
    assert!(rep.cells.iter().all(|c| matches!(c.outcome, CellOutcome::Cycles(_))), "{:?}", rep.cells);
    assert!(temp_files(&dir.0).is_empty(), "a torn temp survived the retry");
    assert!(entry_path(&dir, &key_of(&cfg, "base")).exists(), "the retried cell was not stored");
    let warm = run_sweep_supervised(&cfg).unwrap();
    assert_eq!((warm.executed, warm.cells), (0, rep.cells));
}

/// An entry corrupted on disk — one bit flipped, or cut in half — fails
/// verification, moves to `corrupt/` with a reason, and its cell is
/// recomputed bit-identical; the store is then warm again.
#[test]
fn bit_flipped_checkpoint_lands_in_corrupt_dir() {
    let dir = Scratch::new();
    let cfg = stencil_only(&dir);
    let cold = run_sweep_supervised(&cfg).unwrap();
    let (base, full) = (key_of(&cfg, "base"), key_of(&cfg, "full"));
    let mut bytes = std::fs::read(entry_path(&dir, &base)).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x08;
    std::fs::write(entry_path(&dir, &base), &bytes).unwrap();
    let bytes = std::fs::read(entry_path(&dir, &full)).unwrap();
    std::fs::write(entry_path(&dir, &full), &bytes[..bytes.len() / 2]).unwrap();

    let rerun = run_sweep_supervised(&cfg).unwrap();
    assert_eq!((rerun.executed, rerun.cache_hits), (2, 2), "only the damaged cells recompute");
    assert_eq!(store(&cfg).stats().corrupt.load(Ordering::Relaxed), 2);
    for key in [&base, &full] {
        assert!(dir.0.join("corrupt").join(key.filename()).exists(), "{key} not preserved under corrupt/");
        assert!(entry_path(&dir, key).exists(), "{key} not stored again");
    }
    assert_eq!(rerun.cells, cold.cells, "a recomputed cell diverges");
    assert_eq!(run_sweep_supervised(&cfg).unwrap().executed, 0, "the store is warm again");
}

/// An injected read error is a miss that leaves the entry in place: it is
/// not quarantined, and the recomputed cell rewrites the same bytes.
#[test]
fn read_error_leaves_the_entry_in_place() {
    let dir = Scratch::new();
    let mut cfg = stencil_only(&dir);
    let cold = run_sweep_supervised(&cfg).unwrap();
    let seq = entry_path(&dir, &key_of(&cfg, "seq"));
    let before = std::fs::read(&seq).unwrap();

    let plan = FaultPlan { seed: 0, faults: vec![Fault { site: FaultSite::CacheReadIo, occurrence: 0 }] };
    let inj = Arc::new(FaultInjector::new(&plan));
    cfg.injector = Some(inj.clone());
    let rerun = run_sweep_supervised(&cfg).unwrap();
    assert!(inj.unfired().is_empty(), "the read error must land: {:?}", inj.unfired());
    assert_eq!((rerun.executed, rerun.cache_hits), (1, 3), "{rerun:?}");
    assert_eq!(store(&cfg).stats().corrupt.load(Ordering::Relaxed), 0, "an unreadable entry is not corrupt");
    assert!(!dir.0.join("corrupt").exists(), "an unreadable entry was quarantined");
    assert_eq!(std::fs::read(&seq).unwrap(), before);
    assert_eq!(rerun.cells, cold.cells);
}

#[test]
fn partial_sweep_renders_with_holes() {
    let cells = vec![
        Cell::new("lu", "seq", 1, 1.0, CellOutcome::Cycles(1000)),
        Cell::new("lu", "base", 32, 1.0, CellOutcome::Cycles(100)),
        Cell::new("lu", "full", 32, 1.0, CellOutcome::Failed("boom".into())),
    ];
    let suite = [programs::suite(0.05).swap_remove(1)];
    let table = render_table1(&table1_rows(&suite, &cells), 32);
    let row = table.lines().find(|l| l.starts_with("lu ")).unwrap_or_else(|| panic!("{table}"));
    assert!(row.contains("10.0"), "base speedup 1000/100: {table}");
    assert!(row.contains("fail"), "{table}");
    assert!(table.contains("! comp: cell did not run"), "a missing cell is a hole with a note: {table}");
    assert!(table.contains("! full: boom"), "{table}");
}

/// A quarantined cell renders as `fail` with its reason, and it is never
/// stored: the next run against the same store computes it.
#[test]
fn quarantined_cells_render_and_are_retried_on_resume() {
    let cells = vec![
        Cell::new("adi", "seq", 1, 1.0, CellOutcome::Cycles(500)),
        Cell::new("adi", "full", 32, 1.0, CellOutcome::Quarantined("attempt 4 (rung reference-walk): boom".into())),
    ];
    let suite = [programs::suite(0.05).swap_remove(3)];
    let table = render_table1(&table1_rows(&suite, &cells), 32);
    assert!(table.contains("fail"), "{table}");
    assert!(table.contains("! full: attempt 4 (rung reference-walk): boom"), "{table}");

    // Panic the first cell's every attempt: it is quarantined, not stored.
    let dir = Scratch::new();
    let mut cfg = stencil_only(&dir);
    cfg.retry.max_attempts = 2;
    let plan = FaultPlan {
        seed: 0,
        faults: (0..2).map(|i| Fault { site: FaultSite::WorkerPanic, occurrence: i }).collect(),
    };
    cfg.injector = Some(Arc::new(FaultInjector::new(&plan)));
    let rep = run_sweep_supervised(&cfg).unwrap();
    assert_eq!(rep.quarantined, 1);
    assert!(!entry_path(&dir, &key_of(&cfg, "seq")).exists(), "a quarantined cell was stored");

    let rerun = run_sweep_supervised(&cfg).unwrap();
    assert_eq!((rerun.executed, rerun.cache_hits), (1, 3), "the quarantined cell must be retried");
    let seq = rerun.cells.iter().find(|c| c.kind == "seq").unwrap();
    assert!(matches!(seq.outcome, CellOutcome::Cycles(_)), "{seq:?}");
}
