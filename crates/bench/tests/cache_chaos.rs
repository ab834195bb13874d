//! The content-addressed cache under fire: warm runs must execute zero
//! cells yet stay bit-identical, injected `cache-write-io` faults must
//! heal through the retry ladder without changing a single bit, and a
//! bit-flipped store entry must be detected (crc64), quarantined, and
//! recomputed — never trusted.

use dct_bench::chaos::{run_chaos, ChaosConfig, Fault, FaultInjector, FaultPlan, FaultSite};
use dct_bench::harness::{render_table1, table1_rows};
use dct_bench::sweep::{run_sweep_supervised, sweep_suite, Cell, CellOutcome, SweepConfig, SweepReport};
use dct_bench::{cell_cache_key, explain, render_explain, ResultStore, ThreadBudget, NATIVE_DIVERGES};
use dct_core::Strategy;
use std::path::PathBuf;
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

fn table(cfg: &SweepConfig, rep: &SweepReport) -> String {
    render_table1(&table1_rows(&sweep_suite(cfg), &rep.cells), 4)
}

/// The acceptance criterion in miniature: a second sweep against a warm
/// store executes zero cells (hit counter == cell count) and renders a
/// byte-identical table.
#[test]
fn warm_cache_executes_zero_cells_bit_identical() {
    let dir = Scratch::new();
    let store = Arc::new(ResultStore::open(dir.path("cache"), None).unwrap());

    let cold = run_sweep_supervised(&small_sweep(dir.path("run1"), Some(store.clone()))).unwrap();
    assert_eq!(cold.cells.len(), 4, "stencil: seq + three strategies");
    assert_eq!(cold.cache_hits, 0, "first run, store is empty");
    assert_eq!(cold.executed, 4, "every cell computes cold");

    let cfg = small_sweep(dir.path("run2"), Some(store.clone()));
    let warm = run_sweep_supervised(&cfg).unwrap();
    assert_eq!(warm.executed, 0, "warm run must not execute anything");
    assert_eq!(warm.cache_hits, 4, "every cell served from the store");
    assert_eq!(table(&cfg, &warm), table(&cfg, &cold), "warm table must be byte-identical to the cold one");
    // Bit-level, not just text-level, identity.
    for (c, w) in cold.cells.iter().zip(&warm.cells) {
        assert_eq!(c, w, "cached cell diverges");
    }
}

/// Changing an option that is *in* the key (race_check) must miss; what
/// is outside it (the inert directory of `SweepConfig::new`) must still
/// hit.
#[test]
fn cache_keys_respect_observers_but_not_out_dir() {
    let dir = Scratch::new();
    let store = Arc::new(ResultStore::open(dir.path("cache"), None).unwrap());
    let base = run_sweep_supervised(&small_sweep(dir.path("a"), Some(store.clone()))).unwrap();
    assert_eq!(base.executed, 4);

    // Different directory: not a result input, so it hits.
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

/// A race-checked cell carries the detector's counts, which the race
/// certificate prints; a stored race cell without them (as written before
/// cells recorded them) is a miss and is rewritten.
#[test]
fn race_cell_without_detector_counts_is_a_miss() {
    let dir = Scratch::new();
    let store = Arc::new(ResultStore::open(dir.path("cache"), None).unwrap());
    let mut cfg = small_sweep(dir.path("out"), Some(store.clone()));
    cfg.race_check = true;
    let cold = run_sweep_supervised(&cfg).unwrap();
    assert!(cold.cells.iter().all(|c| c.race.is_some()), "{:?}", cold.cells);

    let suite = sweep_suite(&cfg);
    for c in &cold.cells {
        let key = cell_cache_key("stencil", &cfg.key_inputs(&suite[0].program, &c.kind, c.procs));
        let key = key.unwrap();
        let stripped = Cell { race: None, ..c.clone() };
        store.insert_cell(&key, &stripped, None).unwrap();
    }
    let rerun = run_sweep_supervised(&cfg).unwrap();
    assert_eq!((rerun.executed, rerun.cache_hits), (4, 0), "counts-less cells must miss");
    assert_eq!(rerun.cells, cold.cells);
    let warm = run_sweep_supervised(&cfg).unwrap();
    assert_eq!(warm.executed, 0, "the rewritten entries serve");
    assert_eq!(warm.cells, cold.cells);
}

/// A profiled cell carries its profile, which `explain` prints; a stored
/// profiled cell without it is a miss and is rewritten. A served profile
/// is the computed one, without the computing run's host members.
#[test]
fn profiled_cell_without_profile_is_a_miss() {
    let dir = Scratch::new();
    let store = Arc::new(ResultStore::open(dir.path("cache"), None).unwrap());
    let mut cfg = small_sweep(dir.path("out"), Some(store.clone()));
    cfg.profile = true;
    let cold = run_sweep_supervised(&cfg).unwrap();
    assert!(cold.cells.iter().all(|c| c.profile.is_some()), "{:?}", cold.cells);

    let suite = sweep_suite(&cfg);
    for c in &cold.cells {
        let key = cell_cache_key("stencil", &cfg.key_inputs(&suite[0].program, &c.kind, c.procs));
        let stripped = Cell { profile: None, ..c.clone() };
        store.insert_cell(&key.unwrap(), &stripped, None).unwrap();
    }
    let rerun = run_sweep_supervised(&cfg).unwrap();
    assert_eq!((rerun.executed, rerun.cache_hits), (4, 0), "profile-less cells must miss");
    assert_eq!(rerun.cells, cold.cells);
    let warm = run_sweep_supervised(&cfg).unwrap();
    assert_eq!(warm.executed, 0, "the rewritten entries serve");
    // The host members of the run that computed a cell are not stored.
    let without_host = |cells: &[Cell]| -> Vec<Cell> {
        let mut cells = cells.to_vec();
        cells.iter_mut().filter_map(|c| c.profile.as_mut()).for_each(|p| p.host = None);
        cells
    };
    assert!(cold.cells.iter().all(|c| c.profile.as_ref().is_some_and(|p| p.host.is_some())));
    assert_eq!(warm.cells, without_host(&cold.cells), "a served profile is the computed one");
}

/// A strategy that fails every attempt renders the executor's quarantine
/// reason and is not stored: the next `explain` against the same store
/// serves the other two cells and computes that one.
#[test]
fn failed_explain_cell_is_not_served() {
    let dir = Scratch::new();
    let store = Arc::new(ResultStore::open(dir.path("cache"), None).unwrap());
    let mut cfg = small_sweep(dir.path("out"), Some(store.clone()));
    // One worker runs base, comp, full in order: the first two arrive at
    // `worker-panic` once each, so occurrences 2.. are full's attempts.
    let attempts = cfg.retry.max_attempts;
    let faults = (2..2 + attempts as u64).map(|occurrence| Fault { site: FaultSite::WorkerPanic, occurrence }).collect();
    let inj = Arc::new(FaultInjector::new(&FaultPlan { seed: 0, faults }));
    cfg.injector = Some(inj.clone());
    let (r, rep) = explain("stencil", &cfg, ThreadBudget::clamp(1)).expect("stencil");
    assert!(inj.unfired().is_empty(), "{:?}", inj.unfired());
    assert_eq!((rep.executed, rep.quarantined), (3, 1));
    assert!(r.profile_of(Strategy::Full).is_none());
    let text = render_explain(&r);
    assert!(text.contains(&format!("== comp decomp + data transform: failed: attempt {attempts} (rung ")), "{text}");
    assert!(text.contains("injected: worker panic"), "{text}");

    cfg.injector = None;
    let (r, rep) = explain("stencil", &cfg, ThreadBudget::clamp(1)).expect("stencil");
    assert_eq!((rep.executed, rep.cache_hits, rep.quarantined), (1, 2, 0), "only the failed cell computes");
    assert!(r.profile_of(Strategy::Full).is_some());
}

/// A completed cell carries its run's barrier count, which the ablations
/// print; a stored completed cell without it (as written before cells
/// recorded it) is a miss and is rewritten.
#[test]
fn completed_cell_without_barriers_is_a_miss() {
    let dir = Scratch::new();
    let store = Arc::new(ResultStore::open(dir.path("cache"), None).unwrap());
    let cfg = small_sweep(dir.path("out"), Some(store.clone()));
    let cold = run_sweep_supervised(&cfg).unwrap();
    assert!(cold.cells.iter().all(|c| c.barriers.is_some()), "{:?}", cold.cells);

    let suite = sweep_suite(&cfg);
    for c in &cold.cells {
        let key = cell_cache_key("stencil", &cfg.key_inputs(&suite[0].program, &c.kind, c.procs));
        let stripped = Cell { barriers: None, ..c.clone() };
        store.insert_cell(&key.unwrap(), &stripped, None).unwrap();
    }
    let rerun = run_sweep_supervised(&cfg).unwrap();
    assert_eq!((rerun.executed, rerun.cache_hits), (4, 0), "barrier-less cells must miss");
    assert_eq!(rerun.cells, cold.cells);
    let warm = run_sweep_supervised(&cfg).unwrap();
    assert_eq!(warm.executed, 0, "the rewritten entries serve");
    assert_eq!(warm.cells, cold.cells);
}

/// A served cell is checked natively too, and a divergence is final: a
/// store whose entries carry flipped checksum bits (valid envelopes) makes
/// every cell of a native-checked rerun fail at once, without simulating
/// and without a retry, and leaves the forged entries where they are.
#[test]
fn served_cells_are_checked_natively_and_divergences_not_retried() {
    let dir = Scratch::new();
    let store = Arc::new(ResultStore::open(dir.path("cache"), None).unwrap());
    let cfg = small_sweep(dir.path("cold"), Some(store.clone()));
    let cold = run_sweep_supervised(&cfg).unwrap();
    let suite = sweep_suite(&cfg);
    for c in &cold.cells {
        let key = cell_cache_key("stencil", &cfg.key_inputs(&suite[0].program, &c.kind, c.procs));
        let forged = Cell { checksum_bits: c.checksum_bits.map(|b| b ^ 1), ..c.clone() };
        store.insert_cell(&key.unwrap(), &forged, None).unwrap();
    }
    let all_diverge = |rep: &SweepReport| {
        assert_eq!((rep.executed, rep.retries, rep.cells.len()), (0, 0, 4), "{rep:?}");
        for c in &rep.cells {
            match &c.outcome {
                CellOutcome::Failed(e) => assert!(e.starts_with(NATIVE_DIVERGES), "{e}"),
                o => panic!("a forged cell passed its native leg: {o:?}"),
            }
        }
    };
    let mut cfg = small_sweep(dir.path("warm"), Some(store.clone()));
    cfg.native_reps = Some(0);
    let served = run_sweep_supervised(&cfg).unwrap();
    assert_eq!(served.cache_hits, 4);
    all_diverge(&served);
    // A divergence is not stored: the forged entries still serve.
    let again = run_sweep_supervised(&cfg).unwrap();
    assert_eq!(again.cache_hits, 4);
    all_diverge(&again);
}

/// `cache-write-io`: a failing store insert leaves the cell unfinished —
/// the attempt retries down the ladder and the converged sweep is
/// bit-identical to a fault-free cached sweep.
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

/// Every chaos run gives each sweep its own store, so the planned compute
/// faults still fire, and the converged result is bit-identical; the
/// fault-free store ends up holding every cell.
#[test]
fn chaos_with_cache_converges() {
    let dir = Scratch::new();
    let mut cfg = ChaosConfig::new(42, 4, dir.path("chaos"));
    cfg.procs = 4;
    cfg.scale = 0.05;
    cfg.only = Some(vec!["stencil".to_string()]);
    cfg.stuck_wall_secs = 0.3;
    let rep = run_chaos(&cfg).unwrap();
    assert!(rep.identical(), "cached chaos diverged:\n{:#?}", rep.diffs);
    assert!(!rep.fired.is_empty(), "plan must exercise the executor: {:?}", rep.plan);
    assert!(dir.path("chaos").join("chaos").is_dir());
    let store = Arc::new(ResultStore::open(dir.path("chaos").join("clean"), None).unwrap());
    let mut sweep = small_sweep(dir.path("unused"), Some(store));
    sweep.race_check = true;
    assert_eq!(run_sweep_supervised(&sweep).unwrap().executed, 0, "the fault-free store is not warm");
}
