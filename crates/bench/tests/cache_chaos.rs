//! The content-addressed cache under fire: warm runs must execute zero
//! cells yet stay bit-identical, injected `cache-write-io` faults must
//! heal through the retry ladder without changing a single bit, and a
//! bit-flipped store entry must be detected (crc64), quarantined, and
//! recomputed — never trusted.

use dct_bench::chaos::{run_chaos, ChaosConfig, Fault, FaultInjector, FaultPlan, FaultSite};
use dct_bench::sweep::{
    load_report, render_sweep, run_sweep_supervised, CellOutcome, SweepConfig, SweepReport,
};
use dct_bench::ResultStore;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let d = std::env::temp_dir().join(format!(
            "dct-cache-chaos-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        Scratch(d)
    }

    fn path(&self, sub: &str) -> PathBuf {
        self.0.join(sub)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn small_sweep(out_dir: PathBuf, store: Option<Arc<ResultStore>>) -> SweepConfig {
    let mut cfg = SweepConfig::new(4, 0.05, out_dir);
    cfg.only = Some(vec!["stencil".to_string()]);
    cfg.retry.backoff_base_ms = 1;
    cfg.cache = store;
    cfg
}

/// The acceptance criterion in miniature: a second sweep against a warm
/// store executes zero cells (hit counter == cell count) and renders a
/// byte-identical table. Distinct checkpoint dirs prove the cache — not
/// resume — is serving.
#[test]
fn warm_cache_executes_zero_cells_bit_identical() {
    let dir = Scratch::new();
    let store = Arc::new(ResultStore::open(dir.path("cache"), None).unwrap());

    let cold = run_sweep_supervised(&small_sweep(dir.path("run1"), Some(store.clone()))).unwrap();
    assert_eq!(cold.cells.len(), 4, "stencil: seq + three strategies");
    assert_eq!(cold.cache_hits, 0, "first run, store is empty");
    assert_eq!(cold.executed, 4, "every cell computes cold");

    let warm = run_sweep_supervised(&small_sweep(dir.path("run2"), Some(store.clone()))).unwrap();
    assert_eq!(warm.executed, 0, "warm run must not execute anything");
    assert_eq!(warm.cache_hits, 4, "every cell served from the store");
    assert_eq!(
        render_sweep(&warm.cells, 4, 0.05),
        render_sweep(&cold.cells, 4, 0.05),
        "warm table must be byte-identical to the cold one"
    );
    // Bit-level, not just text-level, identity.
    for (c, w) in cold.cells.iter().zip(&warm.cells) {
        assert_eq!(c, w, "cached cell diverges");
    }
}

/// `(file name, inode, mtime ns, bytes)` of every checkpoint in `dir`: a
/// rewrite goes through a rename, so it shows as a new inode.
fn checkpoint_files(dir: &Path) -> Vec<(String, u64, i64, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_file())
        .map(|p| {
            let md = std::fs::metadata(&p).unwrap();
            let mtime = md.mtime() * 1_000_000_000 + md.mtime_nsec();
            let name = p.file_name().unwrap().to_string_lossy().to_string();
            (name, md.ino(), mtime, std::fs::read(&p).unwrap())
        })
        .collect();
    files.sort();
    files
}

fn assert_all_served(rep: &SweepReport, current: u64) {
    assert_eq!(rep.executed, 0, "a warm sweep executes nothing");
    assert_eq!(rep.cache_hits, 4, "every cell served from the store");
    assert_eq!(rep.checkpoints_current, current, "hits that found their checkpoint on disk");
}

/// A hit whose checkpoint is already on disk costs no write: a second
/// warm sweep into the *same* checkpoint directory serves every cell,
/// leaves every file's inode and mtime alone and renders the same table.
#[test]
fn warm_sweep_into_current_checkpoints_writes_nothing() {
    let dir = Scratch::new();
    let store = Arc::new(ResultStore::open(dir.path("cache"), None).unwrap());
    run_sweep_supervised(&small_sweep(dir.path("cold"), Some(store.clone()))).unwrap();

    // First warm sweep into a fresh directory: every hit writes.
    let first = run_sweep_supervised(&small_sweep(dir.path("warm"), Some(store.clone()))).unwrap();
    assert_all_served(&first, 0);
    let before = checkpoint_files(&dir.path("warm"));
    assert_eq!(before.len(), 4);

    let second = run_sweep_supervised(&small_sweep(dir.path("warm"), Some(store.clone()))).unwrap();
    assert_all_served(&second, 4);
    assert_eq!(checkpoint_files(&dir.path("warm")), before, "a current checkpoint was touched");
    assert_eq!(render_sweep(&second.cells, 4, 0.05), render_sweep(&first.cells, 4, 0.05));
    assert_eq!(second.cells, first.cells);
}

/// Only byte-equal counts as current: a checkpoint with one bit flipped,
/// one truncated to half and one deleted are each written again on the
/// next hit, and the directory then verifies clean.
#[test]
fn damaged_checkpoints_are_rewritten_on_the_next_hit() {
    let dir = Scratch::new();
    let store = Arc::new(ResultStore::open(dir.path("cache"), None).unwrap());
    let out = dir.path("out");
    run_sweep_supervised(&small_sweep(out.clone(), Some(store.clone()))).unwrap();
    let good = checkpoint_files(&out);
    assert_eq!(good.len(), 4);

    let mut flipped = good[0].3.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x08;
    std::fs::write(out.join(&good[0].0), &flipped).unwrap();
    std::fs::write(out.join(&good[1].0), &good[1].3[..good[1].3.len() / 2]).unwrap();
    std::fs::remove_file(out.join(&good[2].0)).unwrap();

    let warm = run_sweep_supervised(&small_sweep(out.clone(), Some(store.clone()))).unwrap();
    assert_all_served(&warm, 1);
    let after = checkpoint_files(&out);
    for (g, a) in good.iter().zip(&after) {
        assert_eq!((&g.0, &g.3), (&a.0, &a.3), "checkpoint bytes not restored");
    }
    assert_eq!(after[3], good[3], "the intact checkpoint was touched");
    let rep = load_report(&out, None);
    assert_eq!(rep.cells.len(), 4);
    assert!(rep.corrupt.is_empty() && rep.unreadable.is_empty(), "{rep:?}");
}

/// The same under fault injection: `ckpt-bit-flip` strikes the checkpoint
/// a hit has just written, and the next hit — finding bytes that differ —
/// repairs it through the full write path.
#[test]
fn injected_bit_flip_on_a_hit_is_repaired_by_the_next_hit() {
    let dir = Scratch::new();
    let store = Arc::new(ResultStore::open(dir.path("cache"), None).unwrap());
    run_sweep_supervised(&small_sweep(dir.path("cold"), Some(store.clone()))).unwrap();

    let out = dir.path("warm");
    let plan =
        FaultPlan { seed: 0, faults: vec![Fault { site: FaultSite::CkptBitFlip, occurrence: 1 }] };
    let inj = Arc::new(FaultInjector::new(&plan));
    let mut cfg = small_sweep(out.clone(), Some(store.clone()));
    cfg.injector = Some(inj.clone());
    assert_all_served(&run_sweep_supervised(&cfg).unwrap(), 0);
    assert!(inj.unfired().is_empty(), "the flip must land: {:?}", inj.unfired());
    let cold = checkpoint_files(&dir.path("cold"));
    let struck: Vec<_> = checkpoint_files(&out)
        .into_iter()
        .zip(&cold)
        .filter(|(w, c)| w.3 != c.3)
        .map(|(w, _)| w.0)
        .collect();
    assert_eq!(struck.len(), 1, "exactly one checkpoint carries the flipped bit");

    // Injector still attached, its plan spent: three current, one repaired.
    assert_all_served(&run_sweep_supervised(&cfg).unwrap(), 3);
    for (w, c) in checkpoint_files(&out).iter().zip(&cold) {
        assert_eq!((&w.0, &w.3), (&c.0, &c.3), "checkpoint not repaired");
    }
    let rep = load_report(&out, None);
    assert_eq!(rep.cells.len(), 4);
    assert!(rep.corrupt.is_empty(), "{:?}", rep.corrupt);
}

/// Changing an option that is *in* the key (race_check) must miss; what
/// is outside it (the checkpoint directory) must still hit.
#[test]
fn cache_keys_respect_observers_but_not_out_dir() {
    let dir = Scratch::new();
    let store = Arc::new(ResultStore::open(dir.path("cache"), None).unwrap());
    let base = run_sweep_supervised(&small_sweep(dir.path("a"), Some(store.clone()))).unwrap();
    assert_eq!(base.executed, 4);

    // Different checkpoint directory: not a result input, so it hits.
    let cfg = small_sweep(dir.path("b"), Some(store.clone()));
    let moved = run_sweep_supervised(&cfg).unwrap();
    assert_eq!(moved.executed, 0, "out_dir is excluded from the key");
    assert_eq!(moved.cache_hits, 4);

    // Race detection joins the fingerprint, so it must be keyed.
    let mut cfg = small_sweep(dir.path("c"), Some(store.clone()));
    cfg.race_check = true;
    let raced = run_sweep_supervised(&cfg).unwrap();
    assert_eq!(raced.executed, 4, "race_check is part of the key");
}

/// `cache-write-io`: a failing store insert is treated exactly like a
/// checkpoint-write failure — the attempt retries down the ladder and
/// the converged sweep is bit-identical to a fault-free cached sweep.
#[test]
fn cache_write_io_heals_bit_identical() {
    let clean_dir = Scratch::new();
    let chaos_dir = Scratch::new();
    let clean_store = Arc::new(ResultStore::open(clean_dir.path("cache"), None).unwrap());
    let clean =
        run_sweep_supervised(&small_sweep(clean_dir.path("out"), Some(clean_store))).unwrap();

    let chaos_store = Arc::new(ResultStore::open(chaos_dir.path("cache"), None).unwrap());
    let mut cfg = small_sweep(chaos_dir.path("out"), Some(chaos_store.clone()));
    let plan = FaultPlan {
        seed: 0,
        faults: vec![
            Fault { site: FaultSite::CacheWriteIo, occurrence: 0 },
            Fault { site: FaultSite::CacheWriteIo, occurrence: 2 },
        ],
    };
    let inj = Arc::new(FaultInjector::new(&plan));
    cfg.injector = Some(inj.clone());
    let chaos = run_sweep_supervised(&cfg).unwrap();

    assert!(inj.unfired().is_empty(), "cache faults must arrive: {:?}", inj.unfired());
    assert!(chaos.retries >= 2, "each failed insert must cost a retry: {}", chaos.retries);
    for c in &chaos.cells {
        assert!(matches!(c.outcome, CellOutcome::Cycles(_)), "must recover: {c:?}");
    }
    let diffs = dct_bench::chaos::diff_sweeps(&clean.cells, &chaos.cells);
    assert!(diffs.is_empty(), "cache-fault recovery changed results:\n{diffs:#?}");

    // The healed store is fully warm: a rerun executes nothing.
    let warm =
        run_sweep_supervised(&small_sweep(chaos_dir.path("out2"), Some(chaos_store))).unwrap();
    assert_eq!(warm.executed, 0, "healed store must serve every cell");
}

/// A bit-flipped cache entry is detected by the crc64 envelope check,
/// moved to `corrupt/`, and the cell recomputes — bit-identical.
#[test]
fn corrupt_cache_entry_is_quarantined_and_recomputed() {
    let dir = Scratch::new();
    let store = Arc::new(ResultStore::open(dir.path("cache"), None).unwrap());
    let cold = run_sweep_supervised(&small_sweep(dir.path("a"), Some(store.clone()))).unwrap();

    // Flip one bit in one stored entry (not in `corrupt/`).
    let mut flipped = None;
    for shard in std::fs::read_dir(dir.path("cache")).unwrap() {
        let shard = shard.unwrap().path();
        if !shard.is_dir() || shard.file_name().is_some_and(|n| n == "corrupt") {
            continue;
        }
        if let Some(f) = std::fs::read_dir(&shard).unwrap().next() {
            let f = f.unwrap().path();
            let mut bytes = std::fs::read(&f).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            std::fs::write(&f, bytes).unwrap();
            flipped = Some(f);
            break;
        }
    }
    let flipped = flipped.expect("the cold run must have populated the store");

    let rerun = run_sweep_supervised(&small_sweep(dir.path("b"), Some(store.clone()))).unwrap();
    let (_, _, _, _, corrupt) = store.stats().snapshot();
    assert_eq!(corrupt, 1, "the flipped entry must be detected exactly once");
    assert_eq!(rerun.executed, 1, "only the corrupted cell recomputes");
    assert_eq!(rerun.cache_hits, 3, "intact entries still serve");
    let quarantined = dir.path("cache").join("corrupt").join(flipped.file_name().unwrap());
    assert!(quarantined.exists(), "flipped entry must be preserved in corrupt/");
    // The recompute re-inserts a fresh (valid) entry at the same path.
    assert!(flipped.exists(), "recomputed entry must repopulate the store");
    let warm = run_sweep_supervised(&small_sweep(dir.path("c"), Some(store.clone()))).unwrap();
    assert_eq!(warm.executed, 0, "the repopulated store is fully warm again");
    for (c, r) in cold.cells.iter().zip(&rerun.cells) {
        assert_eq!(c, r, "recomputed cell diverges from the original");
    }
}

/// `repro chaos --cache` end to end: both sweeps get (separate) stores,
/// the planned compute faults still fire, and the converged result is
/// bit-identical.
#[test]
fn chaos_with_cache_converges() {
    let dir = Scratch::new();
    let mut cfg = ChaosConfig::new(42, 4, dir.path("chaos"));
    cfg.procs = 4;
    cfg.scale = 0.05;
    cfg.only = Some(vec!["stencil".to_string()]);
    cfg.stuck_wall_secs = 0.3;
    cfg.cache = true;
    let rep = run_chaos(&cfg).unwrap();
    assert!(rep.identical(), "cached chaos diverged:\n{:#?}", rep.diffs);
    assert!(!rep.fired.is_empty(), "plan must exercise the executor: {:?}", rep.plan);
    assert!(dir.path("chaos").join("cache-clean").exists());
    assert!(dir.path("chaos").join("cache-chaos").exists());
}
