//! The chaos oracle end to end: a sweep bombarded with deterministic
//! injected faults — worker panics, checkpoint IO errors, torn temp
//! files, bit-flipped checkpoints, allocation-cap hits, stuck cells,
//! whole-sweep kills — must converge, through retries, watchdog cancels,
//! quarantines, and restarts, to results **bit-identical** to a
//! fault-free sweep. Self-healing that changes answers is not healing.

use dct_bench::chaos::{
    run_chaos, ChaosConfig, Fault, FaultInjector, FaultPlan, FaultSite,
};
use dct_bench::sweep::{run_sweep_supervised, CellOutcome, SweepConfig};
use dct_core::{Compiler, Strategy};
use dct_ir::CancelToken;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let d = std::env::temp_dir().join(format!(
            "dct-chaos-test-{}-{}",
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

fn small_chaos(dir: &Scratch, seed: u64, faults: usize) -> ChaosConfig {
    let mut cfg = ChaosConfig::new(seed, faults, dir.0.clone());
    cfg.procs = 4;
    cfg.scale = 0.05;
    cfg.only = Some(vec!["stencil".to_string()]);
    cfg.race_check = true;
    cfg.stuck_wall_secs = 0.3;
    cfg
}

/// The tentpole oracle: seeded fault schedule, injected kills and
/// restarts, and the converged result must be bit-identical (cycles,
/// checksum bits, race-report fingerprints) to the fault-free sweep.
#[test]
fn chaos_sweep_converges_bit_identical() {
    let dir = Scratch::new();
    let cfg = small_chaos(&dir, 42, 6);
    let rep = run_chaos(&cfg).unwrap();
    assert!(
        rep.fired.len() >= 3,
        "seed 42 must actually exercise the executor; fired only {:?}",
        rep.fired
    );
    assert_eq!(rep.clean.cells.len(), 4, "stencil: seq + three strategies");
    assert_eq!(rep.chaos.cells.len(), 4, "chaos sweep must converge on all cells");
    for c in &rep.chaos.cells {
        assert!(
            matches!(c.outcome, CellOutcome::Cycles(_)),
            "every injected fault is transient, so every cell must recover: {c:?}"
        );
    }
    assert!(
        rep.identical(),
        "chaos sweep diverged from the fault-free sweep:\n{:#?}",
        rep.diffs
    );
    // Completed cells carry the bit-identity payload.
    for c in &rep.clean.cells {
        assert!(c.checksum_bits.is_some(), "{c:?}");
        assert!(c.fingerprint.is_some(), "{c:?}");
    }
}

/// Same seed, same faults, same places: the chaos harness itself is
/// deterministic.
#[test]
fn chaos_is_deterministic_across_runs() {
    let d1 = Scratch::new();
    let d2 = Scratch::new();
    let r1 = run_chaos(&small_chaos(&d1, 7, 4)).unwrap();
    let r2 = run_chaos(&small_chaos(&d2, 7, 4)).unwrap();
    assert_eq!(r1.plan, r2.plan);
    let sites1: Vec<_> = r1.fired.iter().map(|f| (f.site, f.occurrence)).collect();
    let sites2: Vec<_> = r2.fired.iter().map(|f| (f.site, f.occurrence)).collect();
    assert_eq!(sites1, sites2, "fired faults must be identical run to run");
    assert_eq!(r1.incarnations, r2.incarnations);
    assert!(r1.identical() && r2.identical());
}

/// A pre-fired cancellation token aborts the simulation at its first
/// sync-point boundary and surfaces as a structured Cancelled error —
/// the mechanism the sweep watchdog uses to kill stuck cells.
#[test]
fn cancel_token_aborts_simulation_as_structured_error() {
    let prog = dct_bench::programs::suite(0.05)
        .into_iter()
        .find(|b| b.name == "stencil")
        .expect("stencil in suite")
        .program;
    let c = Compiler::new(Strategy::Full);
    let compiled = c.compile(&prog).unwrap();
    let params = prog.default_params();

    let token = CancelToken::new();
    token.cancel();
    let err = c
        .simulate_supervised(&compiled, 4, &params, token)
        .expect_err("a cancelled run must not return a result");
    assert!(err.is_cancelled(), "wrong error kind: {err}");

    // An un-fired token changes nothing: the run completes and matches
    // an unsupervised run bit for bit.
    let free = c.simulate_supervised(&compiled, 4, &params, CancelToken::new()).unwrap();
    let plain = c.simulate(&compiled, 4, &params).unwrap();
    assert_eq!(free.cycles, plain.cycles);
    assert_eq!(free.checksum.to_bits(), plain.checksum.to_bits());
}

/// A cell that fails on every rung of the ladder is quarantined with the
/// last reason, the sweep keeps going, and resume retries the cell.
#[test]
fn repeated_failures_quarantine_the_cell_and_resume_retries() {
    let dir = Scratch::new();
    let mut cfg = SweepConfig::new(4, 0.05, dir.0.clone());
    cfg.only = Some(vec!["stencil".to_string()]);
    cfg.retry.max_attempts = 3;
    cfg.retry.backoff_base_ms = 1;
    // Panic the worker on its first three arrivals: exactly the first
    // cell's three attempts.
    let plan = FaultPlan {
        seed: 0,
        faults: (0..3).map(|i| Fault { site: FaultSite::WorkerPanic, occurrence: i }).collect(),
    };
    cfg.injector = Some(Arc::new(FaultInjector::new(&plan)));

    let rep = run_sweep_supervised(&cfg).unwrap();
    assert_eq!(rep.quarantined, 1, "first cell must exhaust the ladder");
    assert_eq!(rep.retries, 2, "two retries before the third strike");
    let seq = rep.cells.iter().find(|c| c.kind == "seq").unwrap();
    match &seq.outcome {
        CellOutcome::Quarantined(reason) => {
            assert!(reason.contains("injected: worker panic"), "reason lost: {reason}");
        }
        o => panic!("expected quarantine, got {o:?}"),
    }
    // The other cells were unaffected by the quarantine.
    for c in rep.cells.iter().filter(|c| c.kind != "seq") {
        assert!(matches!(c.outcome, CellOutcome::Cycles(_)), "{c:?}");
    }

    // Resume with the faults exhausted: the quarantined cell recovers.
    cfg.resume = true;
    let rep = run_sweep_supervised(&cfg).unwrap();
    assert_eq!(rep.quarantined, 0);
    let seq = rep.cells.iter().find(|c| c.kind == "seq").unwrap();
    assert!(matches!(seq.outcome, CellOutcome::Cycles(_)), "{seq:?}");
}

/// Native-backend fault sites: a native worker panic and a stuck native
/// worker (recovered by the watchdog) both fail the attempt, the retry
/// ladder heals the cell, and the converged sweep is bit-identical to a
/// fault-free sweep with the same native cross-check on.
#[test]
fn native_faults_heal_bit_identical() {
    let clean_dir = Scratch::new();
    let chaos_dir = Scratch::new();
    let mk = |dir: &Scratch| {
        let mut cfg = SweepConfig::new(4, 0.05, dir.0.clone());
        cfg.only = Some(vec!["stencil".to_string()]);
        cfg.retry.backoff_base_ms = 1;
        cfg.stuck_wall_secs = Some(0.3);
        cfg.native_reps = Some(0);
        cfg
    };

    let clean = run_sweep_supervised(&mk(&clean_dir)).unwrap();
    for c in &clean.cells {
        assert!(
            matches!(c.outcome, CellOutcome::Cycles(_)),
            "native cross-check must pass fault-free: {c:?}"
        );
    }

    let mut cfg = mk(&chaos_dir);
    let plan = FaultPlan {
        seed: 0,
        faults: vec![
            Fault { site: FaultSite::NativeWorkerPanic, occurrence: 0 },
            Fault { site: FaultSite::NativeStuck, occurrence: 1 },
        ],
    };
    let inj = Arc::new(FaultInjector::new(&plan));
    cfg.injector = Some(inj.clone());
    let chaos = run_sweep_supervised(&cfg).unwrap();

    assert!(inj.unfired().is_empty(), "both native faults must arrive: {:?}", inj.unfired());
    assert!(chaos.retries >= 2, "each native fault must cost a retry: {}", chaos.retries);
    assert!(chaos.cancelled >= 1, "the stuck native worker must trip the watchdog");
    for c in &chaos.cells {
        assert!(
            matches!(c.outcome, CellOutcome::Cycles(_)),
            "native faults are transient, every cell must recover: {c:?}"
        );
    }
    let diffs = dct_bench::chaos::diff_sweeps(&clean.cells, &chaos.cells);
    assert!(diffs.is_empty(), "native-fault recovery changed results:\n{diffs:#?}");
}

/// An injected whole-sweep kill stops the run mid-way with `killed` set;
/// a resume finishes the remaining cells without recomputing done ones.
#[test]
fn injected_kill_is_survived_by_resume() {
    let dir = Scratch::new();
    let mut cfg = SweepConfig::new(4, 0.05, dir.0.clone());
    cfg.only = Some(vec!["stencil".to_string()]);
    let plan = FaultPlan {
        seed: 0,
        faults: vec![Fault { site: FaultSite::KillSweep, occurrence: 1 }],
    };
    cfg.injector = Some(Arc::new(FaultInjector::new(&plan)));

    let rep = run_sweep_supervised(&cfg).unwrap();
    assert!(rep.killed, "the kill must be reported");
    assert_eq!(rep.cells.len(), 2, "killed after the second cell");

    cfg.resume = true;
    let rep = run_sweep_supervised(&cfg).unwrap();
    assert!(!rep.killed);
    assert_eq!(rep.cells.len(), 4, "resume completes the sweep");
    for c in &rep.cells {
        assert!(matches!(c.outcome, CellOutcome::Cycles(_)), "{c:?}");
    }
}
