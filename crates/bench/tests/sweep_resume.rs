//! Crash-safety of the checkpointed sweep: a killed sweep resumes without
//! recomputing finished cells, budgets turn runaway cells into structured
//! timeouts, corrupt checkpoints are quarantined to `corrupt/` (never
//! silently trusted), stale temp files from crashed writers are cleaned,
//! and partial results always render.

use dct_bench::sweep::{
    checkpoint_to_json, load_cells, load_report, render_sweep, run_sweep_supervised, save_cell,
    Cell, CellOutcome, SweepConfig,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

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

fn stencil_only(dir: &Scratch) -> SweepConfig {
    let mut cfg = SweepConfig::new(4, 0.05, dir.0.clone());
    cfg.only = Some(vec!["stencil".to_string()]);
    cfg
}

/// The sentinel pre-seeded checkpoint: simulates a cell completed by a
/// previous sweep that was killed mid-run (with the barrier count every
/// completed cell carries).
const SENTINEL: u64 = 123_456_789;

fn sentinel_cell(scale: f64) -> Cell {
    Cell { barriers: Some(1), ..Cell::new("stencil", "base", 4, scale, CellOutcome::Cycles(SENTINEL)) }
}

#[test]
fn resume_skips_completed_cells() {
    let dir = Scratch::new();
    let mut cfg = stencil_only(&dir);

    // A previous (killed) sweep completed exactly one cell.
    save_cell(&dir.0, &sentinel_cell(cfg.scale)).unwrap();

    // Resume: the checkpointed cell is reused verbatim, the rest run.
    cfg.resume = true;
    let cells = run_sweep_supervised(&cfg).unwrap().cells;
    assert_eq!(cells.len(), 4, "seq + three strategies");
    let base = cells.iter().find(|c| c.kind == "base").unwrap();
    assert_eq!(
        base.outcome,
        CellOutcome::Cycles(SENTINEL),
        "resume must skip the completed cell, not recompute it"
    );
    for c in cells.iter().filter(|c| c.kind != "base") {
        assert!(matches!(c.outcome, CellOutcome::Cycles(_)), "{c:?}");
    }

    // All four cells are now checkpointed on disk, atomically (no temp
    // files left behind).
    assert_eq!(load_cells(&dir.0).len(), 4);
    for e in std::fs::read_dir(&dir.0).unwrap() {
        let e = e.unwrap();
        if e.path().is_dir() {
            continue; // corrupt/ quarantine dir
        }
        let name = e.file_name().into_string().unwrap();
        assert!(name.ends_with(".json"), "leftover temp file {name}");
    }

    // A second resume recomputes nothing: every outcome is identical,
    // including the sentinel.
    let again = run_sweep_supervised(&cfg).unwrap().cells;
    for (a, b) in cells.iter().zip(&again) {
        assert_eq!(a.outcome, b.outcome, "{}/{}", a.bench, a.kind);
    }

    // Without --resume the sentinel cell is recomputed for real.
    cfg.resume = false;
    let fresh = run_sweep_supervised(&cfg).unwrap().cells;
    let base = fresh.iter().find(|c| c.kind == "base").unwrap();
    assert_ne!(base.outcome, CellOutcome::Cycles(SENTINEL));
}

#[test]
fn budget_aborts_into_timeout_cells() {
    let dir = Scratch::new();
    let mut cfg = stencil_only(&dir);
    cfg.max_cycles = Some(1); // everything is over budget immediately
    let cells = run_sweep_supervised(&cfg).unwrap().cells;
    assert_eq!(cells.len(), 4);
    for c in &cells {
        assert_eq!(c.outcome, CellOutcome::Timeout, "{c:?}");
    }
    // Timeout cells count as completed: resume does not retry them.
    cfg.resume = true;
    cfg.max_cycles = None;
    let again = run_sweep_supervised(&cfg).unwrap().cells;
    for c in &again {
        assert_eq!(c.outcome, CellOutcome::Timeout, "{c:?}");
    }
    // The partial table renders the holes instead of failing.
    let table = render_sweep(&cells, 4, cfg.scale);
    assert!(table.contains("timeout"), "{table}");
}

/// A writer killed between the temp-file write and the rename leaves a
/// stray `.tmp` behind and no final checkpoint. The loader must delete
/// the stray (not load it, not trip over it) and the cell must recompute.
#[test]
fn crash_between_temp_write_and_rename_is_cleaned_up() {
    let dir = Scratch::new();
    let cfg = stencil_only(&dir);
    std::fs::create_dir_all(&dir.0).unwrap();

    // Simulate the torn write: half a checkpoint under the temp name.
    let cell = sentinel_cell(cfg.scale);
    let json = checkpoint_to_json(&cell);
    let tmp = dir.0.join(format!(".{}.tmp", cell.filename()));
    std::fs::write(&tmp, &json.as_bytes()[..json.len() / 2]).unwrap();

    let rep = load_report(&dir.0, None);
    assert_eq!(rep.tmp_cleaned, 1, "stray temp must be cleaned");
    assert!(rep.cells.is_empty(), "a torn temp must never load as a cell");
    assert!(!tmp.exists(), "stray temp still on disk");

    // The cell recomputes for real on resume (no sentinel anywhere).
    let mut cfg = cfg;
    cfg.resume = true;
    let cells = run_sweep_supervised(&cfg).unwrap().cells;
    let base = cells.iter().find(|c| c.kind == "base").unwrap();
    assert!(matches!(base.outcome, CellOutcome::Cycles(n) if n != SENTINEL), "{base:?}");
}

/// A checkpoint corrupted on disk (bit flip) must fail checksum
/// verification, move to `corrupt/` with a reason, and recompute —
/// never be silently trusted or silently deleted.
#[test]
fn bit_flipped_checkpoint_lands_in_corrupt_dir() {
    let dir = Scratch::new();
    let mut cfg = stencil_only(&dir);
    let cell = sentinel_cell(cfg.scale);
    save_cell(&dir.0, &cell).unwrap();

    // Storage bit-rot: flip one bit in the middle of the file.
    let path = dir.0.join(cell.filename());
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x08;
    std::fs::write(&path, &bytes).unwrap();

    let rep = load_report(&dir.0, None);
    assert!(rep.cells.is_empty(), "corrupt checkpoint must not load");
    assert_eq!(rep.corrupt.len(), 1, "corrupt file must be reported");
    let (name, reason) = &rep.corrupt[0];
    assert_eq!(name, &cell.filename());
    assert!(!reason.is_empty(), "reason must be preserved");
    assert!(!path.exists(), "corrupt file must leave the checkpoint dir");
    assert!(
        dir.0.join("corrupt").join(cell.filename()).exists(),
        "corrupt file must be preserved under corrupt/ for diagnosis"
    );

    // Resume recomputes the cell instead of trusting the corpse.
    cfg.resume = true;
    let cells = run_sweep_supervised(&cfg).unwrap().cells;
    let base = cells.iter().find(|c| c.kind == "base").unwrap();
    assert!(matches!(base.outcome, CellOutcome::Cycles(n) if n != SENTINEL), "{base:?}");
}

#[test]
fn partial_sweep_renders_with_holes() {
    let cells = vec![
        Cell::new("lu", "seq", 1, 1.0, CellOutcome::Cycles(1000)),
        Cell::new("lu", "base", 32, 1.0, CellOutcome::Cycles(100)),
        Cell::new("lu", "full", 32, 1.0, CellOutcome::Failed("boom".into())),
    ];
    let table = render_sweep(&cells, 32, 1.0);
    assert!(table.contains("lu"), "{table}");
    assert!(table.contains("10.0"), "base speedup 1000/100: {table}");
    assert!(table.contains("fail"), "{table}");
    assert!(table.contains('-'), "missing comp cell renders as a hole: {table}");
    assert!(table.contains("! full: boom"), "{table}");
}

#[test]
fn quarantined_cells_render_and_are_retried_on_resume() {
    let cells = vec![
        Cell::new("adi", "seq", 1, 1.0, CellOutcome::Cycles(500)),
        Cell::new(
            "adi",
            "full",
            32,
            1.0,
            CellOutcome::Quarantined("attempt 4 (rung reference-walk): boom".into()),
        ),
    ];
    let table = render_sweep(&cells, 32, 1.0);
    assert!(table.contains("quar"), "{table}");
    assert!(table.contains("! full quarantined:"), "{table}");

    // On disk, a quarantined cell does not satisfy resume — it recomputes.
    let dir = Scratch::new();
    let mut cfg = stencil_only(&dir);
    save_cell(
        &dir.0,
        &Cell::new("stencil", "base", 4, cfg.scale, CellOutcome::Quarantined("old".into())),
    )
    .unwrap();
    cfg.resume = true;
    let cells = run_sweep_supervised(&cfg).unwrap().cells;
    let base = cells.iter().find(|c| c.kind == "base").unwrap();
    assert!(
        matches!(base.outcome, CellOutcome::Cycles(_)),
        "quarantined checkpoint must be retried on resume: {base:?}"
    );
}
