//! Deterministic fault injection for the sweep executor.
//!
//! A seeded [`FaultPlan`] names exactly which arrivals at which fault
//! *sites* (worker panic, checkpoint IO error, torn temp file, bit-flipped
//! checkpoint, allocation-cap hit, stuck cell, whole-sweep kill) misbehave;
//! the shared [`FaultInjector`] counts arrivals and fires each planned
//! fault exactly once. Because the schedule is a pure function of the seed
//! and the arrival order is deterministic (the sweep is serial over cells,
//! attempts are ordered), a chaos run is reproducible bit-for-bit: the
//! same seed re-creates the same crashes in the same places.
//!
//! [`run_chaos`] is the end-to-end oracle: run a sweep fault-free, run it
//! again under a fault plan with injected kills and restarts, and assert
//! that the converged chaos sweep is **bit-identical** (outcomes, checksum
//! bits, race/profile fingerprints) to the fault-free one. Self-healing
//! that silently changes results is worse than crashing; this module
//! exists to prove ours does not.
//!
//! This module is panic-free by contract (tier-1 gates it): the one
//! injected panicking site lives in the sweep worker it supervises.

use crate::sweep::{
    run_sweep_supervised, scale_key, Cell, CellOutcome, SweepConfig, SweepReport,
};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

// ------------------------------------------------------------- plan --

/// Where a fault can be injected. Sites are *named points* in the sweep
/// executor; the injector fires when the plan names the current arrival.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultSite {
    /// The cell worker panics mid-compute (caught by the supervisor).
    WorkerPanic,
    /// Checkpoint write fails with an IO error before the temp file exists.
    CkptWriteIo,
    /// Crash between temp-file write and rename: a torn `.tmp` is left
    /// behind and the final checkpoint never appears.
    CkptTorn,
    /// One bit of the final checkpoint flips after a successful write
    /// (storage corruption; caught by the content checksum on reload).
    CkptBitFlip,
    /// The final checkpoint is truncated to half its length after a
    /// successful write (caught by the checksum / parser on reload).
    CkptTruncate,
    /// Reading a checkpoint during `--resume` fails with an IO error.
    CkptReadIo,
    /// The simulated allocation cap is hit while setting up the cell.
    AllocCap,
    /// The cell wedges (cooperative spin) until the watchdog cancels it.
    StuckCell,
    /// The whole sweep process dies between cells; the driver restarts
    /// it with `--resume`.
    KillSweep,
    /// One native-backend worker thread panics at startup (the native
    /// cross-check run of a cell; arrives only with `--native`).
    NativeWorkerPanic,
    /// One native-backend worker wedges (cooperative spin) until the
    /// watchdog cancels the attempt (arrives only with `--native`).
    NativeStuck,
    /// Writing a cell into the content-addressed result cache fails with
    /// an IO error (arrives only with `--cache`; the attempt is retried
    /// like a checkpoint-write failure).
    CacheWriteIo,
}

impl FaultSite {
    pub const ALL: [FaultSite; 12] = [
        FaultSite::WorkerPanic,
        FaultSite::CkptWriteIo,
        FaultSite::CkptTorn,
        FaultSite::CkptBitFlip,
        FaultSite::CkptTruncate,
        FaultSite::CkptReadIo,
        FaultSite::AllocCap,
        FaultSite::StuckCell,
        FaultSite::KillSweep,
        FaultSite::NativeWorkerPanic,
        FaultSite::NativeStuck,
        FaultSite::CacheWriteIo,
    ];

    pub fn label(&self) -> &'static str {
        match self {
            FaultSite::WorkerPanic => "worker-panic",
            FaultSite::CkptWriteIo => "ckpt-write-io",
            FaultSite::CkptTorn => "ckpt-torn",
            FaultSite::CkptBitFlip => "ckpt-bit-flip",
            FaultSite::CkptTruncate => "ckpt-truncate",
            FaultSite::CkptReadIo => "ckpt-read-io",
            FaultSite::AllocCap => "alloc-cap",
            FaultSite::StuckCell => "stuck-cell",
            FaultSite::KillSweep => "kill-sweep",
            FaultSite::NativeWorkerPanic => "native-worker-panic",
            FaultSite::NativeStuck => "native-stuck",
            FaultSite::CacheWriteIo => "cache-write-io",
        }
    }

    fn index(&self) -> usize {
        FaultSite::ALL.iter().position(|s| s == self).unwrap_or(0)
    }
}

/// One planned fault: the `occurrence`-th arrival (0-based) at `site`
/// misbehaves. Each planned fault fires at most once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    pub site: FaultSite,
    pub occurrence: u64,
}

/// A deterministic, seeded fault schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    pub seed: u64,
    pub faults: Vec<Fault>,
}

/// The splitmix64 generator: tiny, seedable, good enough for schedules.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Generate `n` faults from `seed`. Sites are drawn from the pool of
    /// *always-arriving* sites (compute and checkpoint-write paths run for
    /// every cell), plus at most two whole-sweep kills, so a generated
    /// plan actually exercises the executor instead of naming arrivals
    /// that never happen. Per-site occurrences are assigned densely
    /// (0, 1, 2, ...): the first arrivals fault, later ones succeed —
    /// which is exactly the shape a consumed-once retry must survive.
    pub fn generate(seed: u64, n: usize) -> FaultPlan {
        // CkptReadIo is deliberately excluded: it only arrives on resume
        // loads, which only happen after a kill. The native sites only
        // arrive when the sweep runs the native cross-check, and
        // CacheWriteIo only when the sweep writes a result cache, so they
        // too are planned explicitly (tests, `--native` / `--cache`
        // chaos runs) rather than drawn blind.
        const POOL: [FaultSite; 8] = [
            FaultSite::WorkerPanic,
            FaultSite::CkptWriteIo,
            FaultSite::CkptTorn,
            FaultSite::CkptBitFlip,
            FaultSite::CkptTruncate,
            FaultSite::AllocCap,
            FaultSite::StuckCell,
            FaultSite::KillSweep,
        ];
        let mut state = seed ^ 0xd6e8_feb8_6659_fd93;
        let mut next_occ = [0u64; FaultSite::ALL.len()];
        let mut kills = 0usize;
        let mut faults = Vec::with_capacity(n);
        while faults.len() < n {
            let r = splitmix64(&mut state);
            let mut site = POOL[(r % POOL.len() as u64) as usize];
            if site == FaultSite::KillSweep {
                if kills >= 2 {
                    // Re-draw deterministically: map the kill onto the
                    // compute pool instead.
                    site = POOL[(r % (POOL.len() as u64 - 1)) as usize];
                } else {
                    kills += 1;
                }
            }
            let occ = next_occ[site.index()];
            next_occ[site.index()] += 1;
            faults.push(Fault { site, occurrence: occ });
        }
        FaultPlan { seed, faults }
    }

    /// How many whole-sweep kills the plan contains (the driver sizes its
    /// restart budget from this).
    pub fn kills(&self) -> usize {
        self.faults.iter().filter(|f| f.site == FaultSite::KillSweep).count()
    }
}

// --------------------------------------------------------- injector --

/// One fault that actually fired, with where it landed.
#[derive(Clone, Debug)]
pub struct FiredFault {
    pub site: FaultSite,
    pub occurrence: u64,
    /// Human context: which cell / attempt / file the arrival was.
    pub context: String,
}

#[derive(Debug, Default)]
struct InjectorState {
    /// Arrival counter per site (indexed by `FaultSite::index`).
    arrivals: [u64; FaultSite::ALL.len()],
    /// Planned faults not yet fired.
    pending: Vec<Fault>,
    /// Log of fired faults, in firing order.
    fired: Vec<FiredFault>,
}

/// Shared, thread-safe fault injector: counts arrivals per site and fires
/// each planned fault exactly once. One injector spans a whole chaos run
/// (including restarts), so occurrence indices are global and the fault
/// schedule is deterministic end to end.
#[derive(Debug)]
pub struct FaultInjector {
    state: Mutex<InjectorState>,
}

impl FaultInjector {
    pub fn new(plan: &FaultPlan) -> FaultInjector {
        FaultInjector {
            state: Mutex::new(InjectorState {
                arrivals: [0; FaultSite::ALL.len()],
                pending: plan.faults.clone(),
                fired: Vec::new(),
            }),
        }
    }

    /// Record one arrival at `site`; true when a planned fault fires here.
    /// `context` is logged so the report can say where each fault landed.
    pub fn fire(&self, site: FaultSite, context: &str) -> bool {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let occ = st.arrivals[site.index()];
        st.arrivals[site.index()] += 1;
        let hit = st.pending.iter().position(|f| f.site == site && f.occurrence == occ);
        match hit {
            Some(i) => {
                st.pending.remove(i);
                st.fired.push(FiredFault { site, occurrence: occ, context: context.to_string() });
                true
            }
            None => false,
        }
    }

    /// Every fault fired so far, in firing order.
    pub fn fired(&self) -> Vec<FiredFault> {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).fired.clone()
    }

    /// Planned faults that have not fired (sites never reached).
    pub fn unfired(&self) -> Vec<Fault> {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).pending.clone()
    }

    /// Total arrivals recorded at `site`.
    pub fn arrivals(&self, site: FaultSite) -> u64 {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).arrivals[site.index()]
    }
}

// ------------------------------------------------------ retry ladder --

/// How a failed cell is retried: bounded attempts with seeded exponential
/// backoff, stepping down a degradation ladder of *bit-identical* rungs.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Attempts per cell before quarantine (>= 1).
    pub max_attempts: usize,
    /// Base backoff between attempts, milliseconds.
    pub backoff_base_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub backoff_cap_ms: u64,
    /// Seed of the backoff jitter (deterministic per cell x attempt).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { max_attempts: 4, backoff_base_ms: 10, backoff_cap_ms: 400, seed: 1 }
    }
}

/// Seeded exponential backoff with deterministic jitter: the same policy,
/// cell, and attempt always wait the same number of milliseconds.
pub fn backoff_ms(p: &RetryPolicy, cell: &str, attempt: usize) -> u64 {
    // `attempt` is clamped so the shift can neither overflow nor wrap;
    // the cap below bounds the wait regardless.
    let exp = p.backoff_base_ms.min(1 << 20) << attempt.min(16);
    let mut state = p.seed ^ crate::sweep::fnv64(cell.as_bytes()) ^ (attempt as u64).wrapping_mul(0x9e37);
    let jitter = splitmix64(&mut state) % p.backoff_base_ms.max(1);
    exp.saturating_add(jitter).min(p.backoff_cap_ms)
}

/// The degradation ladder a retried cell walks. Every rung produces
/// **bit-identical simulated results** — only host-side mechanics change
/// (the strided fast path) — so a recovery can never silently alter the
/// science.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RetryRung {
    /// The configured options, as the first attempt ran them.
    Configured,
    /// The floor: general walk — the reference interpreter.
    ReferenceWalk,
}

impl RetryRung {
    pub const LADDER: [RetryRung; 2] = [RetryRung::Configured, RetryRung::ReferenceWalk];

    /// The rung for the `attempt`-th try (0-based); attempts past the
    /// floor stay on the floor.
    pub fn for_attempt(attempt: usize) -> RetryRung {
        RetryRung::LADDER[attempt.min(RetryRung::LADDER.len() - 1)]
    }

    /// The `fast_path` setting this rung runs with.
    pub fn params(&self) -> bool {
        matches!(self, RetryRung::Configured)
    }

    pub fn label(&self) -> &'static str {
        match self {
            RetryRung::Configured => "configured",
            RetryRung::ReferenceWalk => "reference-walk",
        }
    }
}

// ------------------------------------------------------ chaos driver --

/// Configuration of one chaos run (see [`run_chaos`]).
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Seed of the fault schedule (and of retry backoff jitter).
    pub seed: u64,
    /// Number of faults to plan.
    pub faults: usize,
    /// Processor count of the parallel cells.
    pub procs: usize,
    /// Problem-size scale.
    pub scale: f64,
    /// Root output directory; the fault-free sweep checkpoints under
    /// `clean/`, the chaos sweep under `chaos/`.
    pub out_dir: PathBuf,
    /// Restrict to these benchmarks (`None` = whole suite).
    pub only: Option<Vec<String>>,
    /// Run the race detector in every cell (its report joins the
    /// bit-identity fingerprint).
    pub race_check: bool,
    /// Run the memory profiler in every cell (its rows join the
    /// bit-identity fingerprint).
    pub profile: bool,
    /// Watchdog budget per attempt, seconds (stuck cells are cancelled
    /// at the next sync-point boundary after this).
    pub stuck_wall_secs: f64,
    /// Cross-check every cell's checksum against the native threaded
    /// backend (joins the bit-identity contract; native fault sites
    /// only arrive when this is on).
    pub native_check: bool,
    /// Give each sweep a content-addressed result cache (`cache-clean/`
    /// and `cache-chaos/` under the output root — separate stores, so
    /// injected compute faults still exercise the compute path). The
    /// `cache-write-io` fault site only arrives when this is on.
    pub cache: bool,
}

impl ChaosConfig {
    pub fn new(seed: u64, faults: usize, out_dir: impl Into<PathBuf>) -> ChaosConfig {
        ChaosConfig {
            seed,
            faults,
            procs: 8,
            scale: 0.1,
            out_dir: out_dir.into(),
            only: None,
            race_check: true,
            profile: false,
            stuck_wall_secs: 2.0,
            native_check: false,
            cache: false,
        }
    }
}

/// One divergence between the chaos sweep and the fault-free sweep.
#[derive(Clone, Debug)]
pub struct ChaosDiff {
    pub cell: String,
    pub detail: String,
}

/// Everything a chaos run learned.
#[derive(Debug)]
pub struct ChaosReport {
    pub plan: FaultPlan,
    pub fired: Vec<FiredFault>,
    pub unfired: Vec<Fault>,
    /// Sweep incarnations run (1 = no kill fired).
    pub incarnations: usize,
    /// The fault-free reference sweep.
    pub clean: SweepReport,
    /// The final (converged) chaos sweep.
    pub chaos: SweepReport,
    /// Accumulated over all incarnations.
    pub retries: u64,
    pub cancelled: u64,
    pub quarantined: u64,
    pub corrupt: usize,
    pub tmp_cleaned: usize,
    /// Bit-identity divergences (empty = converged identical).
    pub diffs: Vec<ChaosDiff>,
}

impl ChaosReport {
    /// True when the chaos sweep converged bit-identical to the clean one.
    pub fn identical(&self) -> bool {
        self.diffs.is_empty()
    }
}

fn cell_label(c: &Cell) -> String {
    format!("{}/{} p{} s{}", c.bench, c.kind, c.procs, scale_key(c.scale))
}

fn outcome_label(o: &CellOutcome) -> String {
    match o {
        CellOutcome::Cycles(n) => format!("cycles {n}"),
        CellOutcome::Timeout => "timeout".to_string(),
        CellOutcome::Failed(e) => format!("failed: {e}"),
        CellOutcome::Quarantined(e) => format!("quarantined: {e}"),
    }
}

/// Compare two converged sweeps cell by cell: outcomes, checksum bits,
/// and race/profile fingerprints must all match exactly.
pub fn diff_sweeps(clean: &[Cell], chaos: &[Cell]) -> Vec<ChaosDiff> {
    let mut diffs = Vec::new();
    for c in clean {
        let Some(x) = chaos.iter().find(|x| x.key() == c.key()) else {
            diffs.push(ChaosDiff {
                cell: cell_label(c),
                detail: "missing from chaos sweep".to_string(),
            });
            continue;
        };
        if x.outcome != c.outcome {
            diffs.push(ChaosDiff {
                cell: cell_label(c),
                detail: format!(
                    "outcome differs: clean {} vs chaos {}",
                    outcome_label(&c.outcome),
                    outcome_label(&x.outcome)
                ),
            });
        }
        if x.checksum_bits != c.checksum_bits {
            diffs.push(ChaosDiff {
                cell: cell_label(c),
                detail: format!(
                    "checksum bits differ: clean {:?} vs chaos {:?}",
                    c.checksum_bits, x.checksum_bits
                ),
            });
        }
        if x.fingerprint != c.fingerprint {
            diffs.push(ChaosDiff {
                cell: cell_label(c),
                detail: format!(
                    "race/profile fingerprint differs: clean {:?} vs chaos {:?}",
                    c.fingerprint, x.fingerprint
                ),
            });
        }
    }
    for x in chaos {
        if !clean.iter().any(|c| c.key() == x.key()) {
            diffs.push(ChaosDiff {
                cell: cell_label(x),
                detail: "extra cell not in clean sweep".to_string(),
            });
        }
    }
    diffs
}

fn sweep_config(cfg: &ChaosConfig, sub: &str) -> SweepConfig {
    let mut sc = SweepConfig::new(cfg.procs, cfg.scale, cfg.out_dir.join(sub));
    sc.only = cfg.only.clone();
    sc.race_check = cfg.race_check;
    sc.profile = cfg.profile;
    sc.stuck_wall_secs = Some(cfg.stuck_wall_secs);
    sc.native_check = cfg.native_check;
    sc
}

/// The end-to-end chaos oracle. Runs the sweep fault-free; then runs it
/// under the seeded fault plan, restarting with `--resume` every time an
/// injected kill takes the sweep down; then asserts the converged chaos
/// results are bit-identical to the fault-free ones.
pub fn run_chaos(cfg: &ChaosConfig) -> std::io::Result<ChaosReport> {
    // Stale checkpoints (or cache entries) from a previous chaos run
    // would be resumed into incarnation 2+ and break determinism: start
    // from scratch.
    for sub in ["clean", "chaos", "cache-clean", "cache-chaos"] {
        let d = cfg.out_dir.join(sub);
        if d.exists() {
            std::fs::remove_dir_all(&d)?;
        }
    }

    // Reference sweep: no faults, no resume, default retry policy.
    let mut clean_cfg = sweep_config(cfg, "clean");
    clean_cfg.retry.seed = cfg.seed;
    if cfg.cache {
        clean_cfg.cache = Some(Arc::new(crate::cache::ResultStore::open(
            cfg.out_dir.join("cache-clean"),
            None,
        )?));
    }
    let clean = run_sweep_supervised(&clean_cfg)?;

    // Chaos sweep: seeded plan, one injector spanning every incarnation.
    let plan = FaultPlan::generate(cfg.seed, cfg.faults);
    let injector = Arc::new(FaultInjector::new(&plan));
    let mut chaos_cfg = sweep_config(cfg, "chaos");
    chaos_cfg.injector = Some(injector.clone());
    chaos_cfg.retry.seed = cfg.seed;
    if cfg.cache {
        chaos_cfg.cache = Some(Arc::new(crate::cache::ResultStore::open(
            cfg.out_dir.join("cache-chaos"),
            None,
        )?));
    }
    // Every injected compute fault is consumed once, so `faults + 1`
    // attempts always reach a fault-free rung; +1 more for headroom
    // (a save fault can burn an attempt of an already-computed cell).
    chaos_cfg.retry.max_attempts = cfg.faults + 2;

    let max_incarnations = plan.kills() + 2;
    let mut incarnations = 0;
    let (mut retries, mut cancelled, mut quarantined) = (0u64, 0u64, 0u64);
    let (mut corrupt, mut tmp_cleaned) = (0usize, 0usize);
    let chaos = loop {
        incarnations += 1;
        chaos_cfg.resume = incarnations > 1;
        let rep = run_sweep_supervised(&chaos_cfg)?;
        retries += rep.retries;
        cancelled += rep.cancelled;
        quarantined += rep.quarantined;
        corrupt += rep.corrupt.len();
        tmp_cleaned += rep.tmp_cleaned;
        if !rep.killed || incarnations >= max_incarnations {
            break rep;
        }
    };

    let diffs = diff_sweeps(&clean.cells, &chaos.cells);
    Ok(ChaosReport {
        plan,
        fired: injector.fired(),
        unfired: injector.unfired(),
        incarnations,
        clean,
        chaos,
        retries,
        cancelled,
        quarantined,
        corrupt,
        tmp_cleaned,
        diffs,
    })
}

/// Render a chaos report for humans.
pub fn render_chaos(r: &ChaosReport) -> String {
    let mut out = format!(
        "chaos: seed {}, {} planned fault(s), {} fired, {} incarnation(s)\n",
        r.plan.seed,
        r.plan.faults.len(),
        r.fired.len(),
        r.incarnations
    );
    for f in &r.fired {
        out.push_str(&format!("  fired  {:>13} #{} at {}\n", f.site.label(), f.occurrence, f.context));
    }
    for f in &r.unfired {
        out.push_str(&format!("  unfired {:>12} #{} (site never reached)\n", f.site.label(), f.occurrence));
    }
    out.push_str(&format!(
        "  recovery: {} retr{}, {} watchdog cancel(s), {} quarantine(s), {} corrupt checkpoint(s), {} stale tmp cleaned\n",
        r.retries,
        if r.retries == 1 { "y" } else { "ies" },
        r.cancelled,
        r.quarantined,
        r.corrupt,
        r.tmp_cleaned
    ));
    if r.identical() {
        out.push_str(&format!(
            "  verdict: converged BIT-IDENTICAL to the fault-free sweep ({} cells)\n",
            r.clean.cells.len()
        ));
    } else {
        out.push_str(&format!("  verdict: DIVERGED in {} cell(s):\n", r.diffs.len()));
        for d in &r.diffs {
            out.push_str(&format!("    {}: {}\n", d.cell, d.detail));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::generate(42, 8);
        let b = FaultPlan::generate(42, 8);
        assert_eq!(a, b);
        let c = FaultPlan::generate(43, 8);
        assert_ne!(a, c, "different seeds should give different schedules");
        assert!(a.kills() <= 2, "kill cap violated: {}", a.kills());
    }

    #[test]
    fn injector_fires_each_fault_exactly_once() {
        let plan = FaultPlan {
            seed: 0,
            faults: vec![
                Fault { site: FaultSite::WorkerPanic, occurrence: 1 },
                Fault { site: FaultSite::CkptWriteIo, occurrence: 0 },
            ],
        };
        let inj = FaultInjector::new(&plan);
        assert!(!inj.fire(FaultSite::WorkerPanic, "a"), "occ 0 not planned");
        assert!(inj.fire(FaultSite::WorkerPanic, "b"), "occ 1 planned");
        assert!(!inj.fire(FaultSite::WorkerPanic, "c"), "consumed once");
        assert!(inj.fire(FaultSite::CkptWriteIo, "d"));
        assert_eq!(inj.fired().len(), 2);
        assert_eq!(inj.arrivals(FaultSite::WorkerPanic), 3);
        assert!(inj.unfired().is_empty());
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_growing() {
        let p = RetryPolicy { max_attempts: 5, backoff_base_ms: 10, backoff_cap_ms: 100, seed: 7 };
        let a0 = backoff_ms(&p, "lu/full", 0);
        assert_eq!(a0, backoff_ms(&p, "lu/full", 0), "same inputs, same wait");
        let a3 = backoff_ms(&p, "lu/full", 3);
        assert!(a3 >= a0, "backoff should not shrink: {a0} -> {a3}");
        for attempt in 0..20 {
            assert!(backoff_ms(&p, "x", attempt) <= 100, "cap violated");
        }
    }

    #[test]
    fn ladder_only_varies_bit_identical_knobs() {
        // fast_path is the only knob a rung may touch — proven
        // bit-identical elsewhere. The floor is the reference walk, and
        // every attempt past the first stays on it.
        assert_eq!(RetryRung::for_attempt(0), RetryRung::Configured);
        assert!(RetryRung::for_attempt(0).params());
        for attempt in [1, 2, 3, RetryPolicy::default().max_attempts, 99, usize::MAX] {
            let rung = RetryRung::for_attempt(attempt);
            assert_eq!(rung, RetryRung::ReferenceWalk, "attempt {attempt}");
            assert!(!rung.params(), "attempt {attempt}");
            assert_eq!(rung.label(), "reference-walk");
        }
    }
}
