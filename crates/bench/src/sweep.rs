//! Self-healing benchmark sweeps over the content-addressed result store.
//!
//! Every simulation cell — one `(benchmark, strategy-kind, procs, scale)`
//! point — runs through one supervised executor. With a store
//! ([`SweepConfig::cache`]) the store is the cell's only durable record:
//! a finished cell is inserted the moment it completes, written
//! atomically (temp file + fsync + rename + directory fsync) in a
//! versioned, checksummed envelope, and a re-run against the same store
//! serves it without executing. That is how a killed sweep resumes. A
//! corrupt entry is moved to `corrupt/` with a reason and its cell
//! recomputed — never silently trusted, never silently overwritten.
//!
//! Cells run inside a *supervised worker*: panics are caught, a watchdog
//! cancels a wedged cell cooperatively at its next sync-point boundary
//! (see [`dct_ir::CancelToken`]), and failed cells retry with bounded
//! seeded backoff down a degradation ladder whose rungs are all
//! bit-identical (the fast path — never the science). A cell that
//! fails every attempt is quarantined with a structured reason; the sweep
//! keeps going. Failed and quarantined cells are never stored, so the
//! next run recomputes them.

use crate::ablate::Variant;
use crate::cache::{kind_strategy, CacheKey};
use crate::chaos::{backoff_ms, fires, wedge_until_cancelled, FaultInjector, FaultSite, RetryPolicy, RetryRung};
use crate::harness::{atomic_write_sync, par_map, ThreadBudget};
use crate::native_check::{native_leg, NATIVE_DIVERGES};
use crate::programs::{self, Benchmark};
use dct_core::{rung_sim_options, Compiler};
use dct_ir::{esc, panic_message, CancelToken, MemProfile, Program};
use dct_spmd::exec::FastPathStats;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Cell kinds, in table order: the sequential reference then the three
/// strategies at the sweep's processor count.
pub const KINDS: [&str; 4] = ["seq", "base", "comp", "full"];

/// Schema version of the cell envelope written (and required) by this build.
pub const CKPT_SCHEMA: i64 = 2;

/// What happened to one simulation cell.
#[derive(Clone, Debug, PartialEq)]
pub enum CellOutcome {
    /// Completed within budget.
    Cycles(u64),
    /// Aborted by the cycle / wall budget.
    Timeout,
    /// Compilation or simulation failed (message preserved).
    Failed(String),
    /// Failed every rung of the retry ladder; reason of the last attempt
    /// preserved. Quarantined cells are never stored, so the next run
    /// retries them.
    Quarantined(String),
}

/// One simulation cell, as it is stored.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    pub bench: String,
    pub kind: String,
    pub procs: usize,
    pub scale: f64,
    pub outcome: CellOutcome,
    /// Raw bits of the run checksum (`f64::to_bits`), when the cell
    /// completed: the bit-identity oracle for chaos runs.
    pub checksum_bits: Option<u64>,
    /// FNV-64 over checksum bits + race report + memory-profile rows
    /// (the observers that were enabled): one word that must survive
    /// every crash, retry, and restart unchanged.
    pub fingerprint: Option<u64>,
    /// `(accesses checked, sync edges)` of a race-free detector run;
    /// `None` when the detector was off.
    pub race: Option<(u64, u64)>,
    /// Barriers the run executed, when the cell completed.
    pub barriers: Option<u64>,
    /// What a completed run under the memory profiler recorded; `None`
    /// when the profiler was off.
    pub profile: Option<Box<CellProfile>>,
}

/// The memory profile of one completed cell, with the run facts `repro
/// explain` prints beside it.
#[derive(Clone, Debug, PartialEq)]
pub struct CellProfile {
    /// The compile rung the cell ran on (after any strategy degradation).
    pub rung: String,
    /// The host-side JSON members of the run that computed the cell, as
    /// [`host_members`] wrote them; `None` for a cell served from the
    /// store. They say how this engine ran the cell, the store's key does
    /// not cover the engine, and an envelope does not keep them.
    pub host: Option<String>,
    pub mem: MemProfile,
}

/// The members [`host_members`] writes, in order.
const HOST_KEYS: [&str; 9] = [
    "memo",
    "replayed_steps",
    "cursor_bumps",
    "resolves",
    "kernel_refusals",
    "kernel_aliased",
    "steps_simulated",
    "race_shadow_bytes",
    "profiler_table_bytes",
];

/// What stands in for [`host_members`] in a served cell: every member
/// with the value `"served"`.
pub fn served_host_members() -> String {
    HOST_KEYS.map(|k| format!("\"{k}\": \"served\"")).join(", ")
}

/// The JSON members that say how the host ran a simulation: the replay
/// outcome, the walk counters and the observers' footprint.
fn host_members(fast: &FastPathStats) -> String {
    format!(
        "\"memo\": \"{:?}\", \"replayed_steps\": {}, {}, {}",
        fast.memo,
        fast.replayed_steps,
        fast.reasons_json(),
        fast.observer_bytes_json()
    )
}

/// Scale as an integer key (milli-units) so float formatting can never
/// split one logical sweep across two keys.
pub fn scale_key(scale: f64) -> i64 {
    (scale * 1000.0).round() as i64
}

impl Cell {
    pub fn new(
        bench: impl Into<String>,
        kind: impl Into<String>,
        procs: usize,
        scale: f64,
        outcome: CellOutcome,
    ) -> Cell {
        Cell {
            bench: bench.into(),
            kind: kind.into(),
            procs,
            scale,
            outcome,
            checksum_bits: None,
            fingerprint: None,
            race: None,
            barriers: None,
            profile: None,
        }
    }

    /// The cell's cycles, or why it has none.
    pub fn cycles(&self) -> Result<u64, String> {
        match &self.outcome {
            CellOutcome::Cycles(n) => Ok(*n),
            CellOutcome::Timeout => Err("over its budget (timeout)".to_string()),
            CellOutcome::Failed(e) | CellOutcome::Quarantined(e) => Err(e.clone()),
        }
    }

    /// Identity of the cell within a sweep.
    pub fn key(&self) -> (String, String, usize, i64) {
        (self.bench.clone(), self.kind.clone(), self.procs, scale_key(self.scale))
    }
}

// ---------------------------------------------------------------- JSON --

/// FNV-1a, 64-bit: the envelope content checksum and the fingerprint
/// hash. Not cryptographic — it guards against torn writes and storage
/// bit-rot, not adversaries.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Serialize a cell as one small flat JSON object (the envelope body).
pub fn cell_to_json(c: &Cell) -> String {
    let mut s = format!(
        "{{\"bench\":\"{}\",\"kind\":\"{}\",\"procs\":{},\"scale_milli\":{}",
        esc(&c.bench),
        esc(&c.kind),
        c.procs,
        scale_key(c.scale)
    );
    match &c.outcome {
        CellOutcome::Cycles(n) => s.push_str(&format!(",\"outcome\":\"cycles\",\"cycles\":{n}")),
        CellOutcome::Timeout => s.push_str(",\"outcome\":\"timeout\""),
        CellOutcome::Failed(e) => {
            s.push_str(&format!(",\"outcome\":\"failed\",\"error\":\"{}\"", esc(e)))
        }
        CellOutcome::Quarantined(e) => {
            s.push_str(&format!(",\"outcome\":\"quarantined\",\"error\":\"{}\"", esc(e)))
        }
    }
    // u64 payloads ride as hex strings: the flat parser's numeric path
    // is i64 and must stay that way for the existing fields.
    if let Some(b) = c.checksum_bits {
        s.push_str(&format!(",\"crcbits\":\"{b:016x}\""));
    }
    if let Some(fp) = c.fingerprint {
        s.push_str(&format!(",\"fpr\":\"{fp:016x}\""));
    }
    // Written only when present, so cells without a detector run keep
    // their bytes.
    if let Some((checked, edges)) = c.race {
        s.push_str(&format!(",\"checked\":{checked},\"sync_edges\":{edges}"));
    }
    if let Some(b) = c.barriers {
        s.push_str(&format!(",\"barriers\":{b}"));
    }
    // Last, as escaped strings: a quote inside one is always `\"`, so no
    // text in them can read as an earlier member's `"key":`.
    // The host members stay out (see `CellProfile::host`).
    if let Some(p) = &c.profile {
        let (rung, mem) = (esc(&p.rung), esc(&p.mem.encode()));
        s.push_str(&format!(",\"rung\":\"{rung}\",\"mem\":\"{mem}\""));
    }
    s.push('}');
    s
}

/// The text that follows `"key":` in a flat JSON object, ASCII whitespace
/// skipped (`json.dumps` writes `"key": value`); `None` = key absent.
fn json_value<'a>(s: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = s.find(&pat)? + pat.len();
    Some(s[start..].trim_start_matches(|c: char| c.is_ascii_whitespace()))
}

/// Is `key` present in a flat JSON object, whatever its value? Lets a
/// caller tell an absent field from one whose value does not parse.
pub fn json_has(s: &str, key: &str) -> bool {
    json_value(s, key).is_some()
}

/// Extract `"key":"..."` from a flat JSON object (handles escapes we emit).
pub fn json_str(s: &str, key: &str) -> Option<String> {
    let rest = json_value(s, key)?.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                c => out.push(c),
            },
            c => out.push(c),
        }
    }
    None
}

/// Extract an integer field from a flat JSON object. The token must end
/// the value (at `,`, `}`, `]`, whitespace or the end of input), so `1e3`,
/// `4.9` or `8x` read as unparseable, not as their digit prefix.
pub fn json_num(s: &str, key: &str) -> Option<i64> {
    let v = json_value(s, key)?;
    let end = v.find(|c: char| matches!(c, ',' | '}' | ']') || c.is_ascii_whitespace()).unwrap_or(v.len());
    v[..end].parse().ok().filter(|_| !v.starts_with('+'))
}

/// Extract a `true`/`false` field from a flat JSON object.
pub fn json_bool(s: &str, key: &str) -> Option<bool> {
    let v = json_value(s, key)?;
    let word = v.split(|c: char| !c.is_ascii_alphabetic()).next()?;
    match word {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

/// Extract a hex-string u64 field written by [`cell_to_json`].
fn json_hex(s: &str, key: &str) -> Option<u64> {
    u64::from_str_radix(&json_str(s, key)?, 16).ok()
}

/// Parse an envelope body produced by [`cell_to_json`]. `None` on
/// anything malformed — a truncated or foreign file is skipped, not fatal.
pub fn cell_from_json(s: &str) -> Option<Cell> {
    let bench = json_str(s, "bench")?;
    let kind = json_str(s, "kind")?;
    let procs = json_num(s, "procs")? as usize;
    let scale = json_num(s, "scale_milli")? as f64 / 1000.0;
    let outcome = match json_str(s, "outcome")?.as_str() {
        "cycles" => CellOutcome::Cycles(json_num(s, "cycles")? as u64),
        "timeout" => CellOutcome::Timeout,
        "failed" => CellOutcome::Failed(json_str(s, "error").unwrap_or_default()),
        "quarantined" => CellOutcome::Quarantined(json_str(s, "error").unwrap_or_default()),
        _ => return None,
    };
    let mut c = Cell::new(bench, kind, procs, scale, outcome);
    c.checksum_bits = json_hex(s, "crcbits");
    c.fingerprint = json_hex(s, "fpr");
    c.race = json_num(s, "checked").zip(json_num(s, "sync_edges")).map(|(a, b)| (a as u64, b as u64));
    c.barriers = json_num(s, "barriers").map(|b| b as u64);
    c.profile = (|| {
        let mem = MemProfile::decode(&json_str(s, "mem")?)?;
        // An envelope written before host members were left out has a
        // `"host"` member: it is read past, never served.
        Some(Box::new(CellProfile { rung: json_str(s, "rung")?, host: None, mem }))
    })();
    Some(c)
}

/// Wrap a cell in the versioned, checksummed envelope the store keeps:
/// `{"schema":2,"crc64":"<fnv64 of body>","cell":{...}}`.
pub fn checkpoint_to_json(c: &Cell) -> String {
    let inner = cell_to_json(c);
    format!(
        "{{\"schema\":{CKPT_SCHEMA},\"crc64\":\"{:016x}\",\"cell\":{inner}}}",
        fnv64(inner.as_bytes())
    )
}

/// Parse and *verify* an envelope: schema version must match, the stored
/// checksum must match the body. `Err` carries the reason the file is
/// untrustworthy (the store moves it to `corrupt/`). Pre-integrity (v1)
/// bodies — a bare flat object — are still accepted.
pub fn checkpoint_from_json(s: &str) -> Result<Cell, String> {
    if !s.contains("\"schema\"") {
        return cell_from_json(s)
            .ok_or_else(|| "unparseable legacy (v1) checkpoint".to_string());
    }
    let schema = match json_num(s, "schema") {
        Some(v) => v,
        None => return Err("schema field unreadable".to_string()),
    };
    if schema != CKPT_SCHEMA {
        return Err(format!("unsupported schema {schema} (this build reads {CKPT_SCHEMA})"));
    }
    let crc = match json_hex(s, "crc64") {
        Some(v) => v,
        None => return Err("crc64 field unreadable".to_string()),
    };
    let pat = "\"cell\":";
    let start = match s.find(pat) {
        Some(i) => i + pat.len(),
        None => return Err("cell body missing".to_string()),
    };
    let trimmed = s.trim_end();
    if trimmed.len() <= start + 1 {
        return Err("truncated cell body".to_string());
    }
    // The envelope ends `...}}`; the body is everything between `"cell":`
    // and the final closing brace.
    let inner = &trimmed[start..trimmed.len() - 1];
    let actual = fnv64(inner.as_bytes());
    if actual != crc {
        return Err(format!(
            "content checksum mismatch: stored {crc:016x}, computed {actual:016x} (corrupt entry)"
        ));
    }
    cell_from_json(inner).ok_or_else(|| "unparseable cell body".to_string())
}

/// Write `cell`'s envelope to `dir/<bench>-<kind>-p<procs>-s<scale>.json`
/// with [`atomic_write_sync`] and no fault hooks. Inert: no sweep writes
/// or reads these files (the store is the only durable record); it stays
/// because `benchmark/` times it (ROADMAP item 1b).
pub fn save_cell(dir: &Path, cell: &Cell) -> io::Result<()> {
    let name = format!("{}-{}-p{}-s{}.json", cell.bench, cell.kind, cell.procs, scale_key(cell.scale));
    atomic_write_sync(&dir.join(name), checkpoint_to_json(cell).as_bytes())
}

// --------------------------------------------------------------- sweep --

/// Configuration of one sweep.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Processor count of the parallel cells (the paper's Table 1 uses 32).
    pub procs: usize,
    /// Problem-size scale relative to the paper sizes.
    pub scale: f64,
    /// Per-cell simulated-cycle budget.
    pub max_cycles: Option<u64>,
    /// Per-cell host wall-clock budget, seconds.
    pub max_wall_secs: Option<f64>,
    /// Restrict to these benchmarks (`None` = whole suite).
    pub only: Option<Vec<String>>,
    /// Run every cell with the happens-before race detector on; a cell
    /// whose schedule races becomes a [`CellOutcome::Failed`] cell
    /// carrying the race report (detection never changes cycles, so
    /// stored numbers stay comparable either way).
    pub race_check: bool,
    /// Run every cell with the memory profiler on; its rows join the
    /// cell fingerprint (pure observer — cycles unchanged).
    pub profile: bool,
    /// Retry policy of the self-healing executor (attempts, backoff).
    pub retry: RetryPolicy,
    /// Watchdog: cancel an attempt that has produced nothing after this
    /// many wall seconds (cooperative — the cell dies at its next
    /// sync-point boundary). `None` = no watchdog.
    pub stuck_wall_secs: Option<f64>,
    /// Deterministic fault injection (chaos runs only; `None` in
    /// production).
    pub injector: Option<Arc<FaultInjector>>,
    /// The native leg, the third leg of the differential oracle: every
    /// completed cell, computed or served, also runs on the native
    /// threaded backend, once calm and then this many times under jitter,
    /// and must match its checksum bits and barrier count. A mismatch
    /// fails the cell at once; a native error retries like any attempt.
    /// `None` = no native leg.
    pub native_reps: Option<u64>,
    /// Content-addressed result store, the only durable record of a
    /// cell: finished cells are served from it without executing, and
    /// freshly computed cells are inserted (an insert failure retries the
    /// attempt), so a re-run against the same store resumes a killed
    /// sweep. `None` = nothing is recorded.
    pub cache: Option<Arc<crate::cache::ResultStore>>,
}

impl SweepConfig {
    /// [`SweepConfig::plain`]. Inert `dir`: no sweep writes a file of its
    /// own; the argument stays because `benchmark/` passes one (ROADMAP
    /// item 1b).
    pub fn new(procs: usize, scale: f64, _dir: impl Into<PathBuf>) -> SweepConfig {
        SweepConfig::plain(procs, scale)
    }

    /// A sweep with no store, no budget, no observer and no native leg.
    pub fn plain(procs: usize, scale: f64) -> SweepConfig {
        SweepConfig {
            procs,
            scale,
            max_cycles: None,
            max_wall_secs: None,
            only: None,
            race_check: false,
            profile: false,
            retry: RetryPolicy::default(),
            stuck_wall_secs: None,
            injector: None,
            native_reps: None,
            cache: None,
        }
    }

    /// The cache-key inputs of one cell under this config. Note what is
    /// absent: `fast_path`, retry policy, watchdog — every
    /// knob the bit-identity proofs cover stays out of the key.
    pub fn key_inputs<'a>(&'a self, prog: &'a dct_ir::Program, kind: &'a str, procs: usize) -> crate::cache::KeyInputs<'a> {
        crate::cache::KeyInputs {
            prog,
            kind,
            procs,
            scale_milli: scale_key(self.scale),
            race_check: self.race_check,
            profile: self.profile,
            max_cycles: self.max_cycles,
            max_wall_secs: self.max_wall_secs,
            variant: Variant::Default,
        }
    }

    /// Can `cell`, found in the store, stand in for a run under this
    /// config? Only a timed-out one or a completed one that
    /// carries its barrier count (and under the profiler its profile), and
    /// under the race detector only one that carries the detector's counts.
    fn reusable(&self, cell: &Cell) -> bool {
        let finished = match cell.outcome {
            CellOutcome::Cycles(_) => cell.barriers.is_some() && (!self.profile || cell.profile.is_some()),
            CellOutcome::Timeout => true,
            _ => false,
        };
        finished && (!self.race_check || cell.race.is_some())
    }
}

/// One cell to run: `kind` of `prog` at `procs` under `variant`, recorded
/// under the label `bench` (a benchmark name, a figure id for a figure's
/// cells, or an ablation's label for a variant's).
#[derive(Clone, Copy, Debug)]
pub struct CellTask<'a> {
    pub prog: &'a Program,
    pub bench: &'a str,
    pub kind: &'a str,
    pub procs: usize,
    pub variant: Variant,
}

impl CellTask<'_> {
    fn cell(&self, scale: f64, outcome: CellOutcome) -> Cell {
        Cell::new(self.bench, self.kind, self.procs, scale, outcome)
    }
}

/// The benchmarks a sweep under `cfg` covers: the suite at its scale,
/// restricted to `cfg.only`.
pub fn sweep_suite(cfg: &SweepConfig) -> Vec<Benchmark> {
    let mut suite = programs::suite(cfg.scale);
    if let Some(only) = &cfg.only {
        suite.retain(|b| only.iter().any(|n| n == b.name));
    }
    suite
}

/// Table 1's cells: per benchmark, [`KINDS`] in order, `seq` at one
/// processor and the strategies at `procs`.
pub fn table1_tasks(suite: &[Benchmark], procs: usize) -> Vec<CellTask<'_>> {
    let mut tasks = Vec::with_capacity(suite.len() * KINDS.len());
    for b in suite {
        for kind in KINDS {
            let procs = if kind == "seq" { 1 } else { procs };
            tasks.push(CellTask { prog: &b.program, bench: b.name, kind, procs, variant: Variant::Default });
        }
    }
    tasks
}

/// What one supervised sweep run did, beyond the cells themselves.
#[derive(Debug, Default)]
pub struct SweepReport {
    /// All cells, in task order — served and freshly computed alike.
    pub cells: Vec<Cell>,
    /// Failed attempts that were retried.
    pub retries: u64,
    /// Attempts aborted by the watchdog's cancellation token.
    pub cancelled: u64,
    /// Cells that exhausted the retry ladder.
    pub quarantined: u64,
    /// The sweep was killed by an injected [`FaultSite::KillSweep`]
    /// before finishing (chaos runs only); run it again against the same
    /// store to finish.
    pub killed: bool,
    /// Cells served from the content-addressed cache without executing.
    pub cache_hits: u64,
    /// Cells that actually entered the compute path (attempt loop). A
    /// fully warm cached sweep has `executed == 0`.
    pub executed: u64,
}

impl SweepReport {
    /// Fold one supervised cell run into the report.
    fn absorb(&mut self, run: CellRun) {
        self.retries += run.retries;
        self.cancelled += run.cancelled;
        self.quarantined += run.quarantined;
        self.cache_hits += run.cache_hit as u64;
        self.executed += !run.cache_hit as u64;
        self.cells.push(run.cell);
    }
}

/// What a successful compute attempt measured, before it gets the cell's
/// identity; `cycles` is `None` when the run hit its budget. Beyond the
/// profile the run itself built, it owns no heap memory: the attempt runs
/// on its own short-lived thread, and a long-lived allocation made there
/// after the simulation would pin the simulation's freed pages in that
/// thread's allocator arena. So the [`CellProfile`] strings are built on
/// the pool thread.
struct CellSim {
    cycles: Option<u64>,
    checksum_bits: Option<u64>,
    fingerprint: Option<u64>,
    race: Option<(u64, u64)>,
    barriers: Option<u64>,
    /// A completed profiled run's profile, rung label and walk counters.
    profile: Option<(MemProfile, &'static str, FastPathStats)>,
}

/// Simulate one cell once, on one rung, under a cancellation token,
/// catching panics, then run the config's native leg against it. A
/// `served` cell (a store hit) skips only the simulation:
/// it is compiled and lowered again and its native leg checks the served
/// values. Runs on the supervised worker thread.
fn compute_attempt(
    task: &CellTask,
    cfg: &SweepConfig,
    served: Option<&Cell>,
    fast_path: bool,
    token: &CancelToken,
    ctx: &str,
) -> Result<CellSim, String> {
    let (strategy, procs) = kind_strategy(task.kind, task.procs);
    let inj = cfg.injector.as_deref();
    let body = || -> Result<CellSim, String> {
        // The compute fault sites model the simulation, so a served cell
        // does not arrive at them.
        if served.is_none() {
            if fires(inj, FaultSite::WorkerPanic, ctx) {
                panic!("injected: worker panic at {ctx}");
            }
            if fires(inj, FaultSite::AllocCap, ctx) {
                return Err("injected: allocation cap exceeded (simulated arena budget)".to_string());
            }
            if fires(inj, FaultSite::StuckCell, ctx) {
                wedge_until_cancelled(token);
                return Err("injected: stuck cell (cancelled by watchdog)".to_string());
            }
        }
        let c = Compiler::new(strategy);
        let mut compiled = c.compile(task.prog).map_err(|e| e.to_string())?;
        let mut opts = rung_sim_options(compiled.rung, procs, task.prog.default_params());
        task.variant.apply(&mut compiled.decomposition, &mut opts);
        opts.max_cycles = cfg.max_cycles;
        opts.max_wall_secs = cfg.max_wall_secs;
        opts.race_detect = cfg.race_check;
        opts.profile = cfg.profile;
        opts.fast_path = fast_path;
        opts.cancel = Some(token.clone());
        let sim = match served {
            Some(cell) => CellSim {
                cycles: cell.cycles().ok(),
                checksum_bits: cell.checksum_bits,
                fingerprint: cell.fingerprint,
                race: cell.race,
                barriers: cell.barriers,
                profile: None,
            },
            None => simulate_cell(&compiled, &opts)?,
        };
        if let (Some(reps), Some(bits), Some(barriers)) = (cfg.native_reps, sim.checksum_bits, sim.barriers) {
            let sp = dct_spmd::lower(&compiled.program, &compiled.decomposition, &opts)
                .map_err(|e| format!("native lowering: {e}"))?;
            native_leg(&sp, bits, barriers, reps, inj, token, ctx)?;
        }
        Ok(sim)
    };
    catch_unwind(AssertUnwindSafe(body))
        .unwrap_or_else(|p| Err(format!("panicked: {}", panic_message(p.as_ref()))))
}

/// The simulation of one compiled cell, with its bit-identity
/// fingerprint: checksum bits plus every enabled observer's full output.
fn simulate_cell(compiled: &dct_core::Compiled, opts: &dct_spmd::SimOptions) -> Result<CellSim, String> {
    let mut r = dct_spmd::simulate(&compiled.program, &compiled.decomposition, opts).map_err(|e| e.to_string())?;
    if r.cancelled {
        return Err("cancelled at a sync-point boundary (watchdog)".to_string());
    }
    if let Some(rep) = &r.race {
        if !rep.is_race_free() {
            return Err(format!("schedule races: {rep}"));
        }
    }
    let race = r.race.as_ref().map(|rep| (rep.checked, rep.sync_edges));
    if r.timed_out {
        return Ok(CellSim { cycles: None, checksum_bits: None, fingerprint: None, race, barriers: None, profile: None });
    }
    let bits = r.checksum.to_bits();
    let mut buf = bits.to_le_bytes().to_vec();
    if let Some(rep) = &r.race {
        buf.extend_from_slice(format!("{rep:?}").as_bytes());
    }
    if let Some(mp) = &r.mem_profile {
        buf.extend_from_slice(format!("{:?}", mp.rows).as_bytes());
    }
    let fingerprint = Some(fnv64(&buf));
    let profile = r.mem_profile.take().map(|mp| (mp, compiled.rung.label(), r.fast));
    Ok(CellSim { cycles: Some(r.cycles), checksum_bits: Some(bits), fingerprint, race, barriers: Some(r.barriers), profile })
}

/// Run one attempt on a supervised worker thread with a watchdog: if the
/// worker produces nothing within `stuck_wall_secs`, the supervisor fires
/// the cancellation token and the attempt dies at its next sync-point
/// boundary (then gets retried on a weaker rung).
fn supervised_attempt(
    task: &CellTask,
    cfg: &SweepConfig,
    served: Option<&Cell>,
    fast_path: bool,
    token: &CancelToken,
    ctx: &str,
) -> Result<CellSim, String> {
    let closed = || Err("worker channel closed before a result".to_string());
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        let worker_token = token.clone();
        s.spawn(move || {
            let _ = tx.send(compute_attempt(task, cfg, served, fast_path, &worker_token, ctx));
        });
        match cfg.stuck_wall_secs {
            Some(w) => match rx.recv_timeout(Duration::from_secs_f64(w.max(0.01))) {
                Ok(sim) => sim,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    token.cancel();
                    // The cancel is cooperative: the worker notices at its
                    // next sync point and reports back. Wait for it — a
                    // detached runaway thread would race the next attempt.
                    rx.recv().unwrap_or_else(|_| Err("worker died after watchdog cancel".to_string()))
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => closed(),
            },
            None => rx.recv().unwrap_or_else(|_| closed()),
        }
    })
}

/// The cache key of one cell under `cfg`; `None` (the cell runs uncached)
/// when the sweep has no store or the key cannot be derived.
fn derive_cache_key(task: &CellTask, cfg: &SweepConfig) -> Option<CacheKey> {
    cfg.cache.as_ref()?;
    let inp = crate::cache::KeyInputs { variant: task.variant, ..cfg.key_inputs(task.prog, task.kind, task.procs) };
    crate::cache::cell_cache_key(task.bench, &inp)
        .map_err(|e| {
            eprintln!(
                "[cache: {}/{}: key derivation failed ({e}); cell will not be cached]",
                task.bench, task.kind
            )
        })
        .ok()
}

/// What one supervised cell run did: the cell plus the recovery counters
/// its computation cost.
#[derive(Debug)]
pub struct CellRun {
    pub cell: Cell,
    pub retries: u64,
    pub cancelled: u64,
    pub quarantined: u64,
    /// True when the cell was served from the content-addressed cache
    /// without executing.
    pub cache_hit: bool,
}

/// Compute one cell through the full self-healing protocol: cache look-up
/// under `cache_key`, bounded retries with seeded backoff down the
/// bit-identical degradation ladder, watchdog cancellation, the store
/// insert (with its own faults retried), quarantine after the last attempt.
/// `cache_key` is `None` to run uncached. The job-queue service
/// (dct-serve) calls this directly with the key it derived at submit to
/// deduplicate in-flight cells, so a queued cell and a swept cell can
/// never diverge in behavior.
pub fn compute_cell_supervised(
    task: &CellTask,
    cfg: &SweepConfig,
    cache_key: Option<&CacheKey>,
) -> CellRun {
    // Content-addressed cache: a completed or timed-out cell whose key
    // matches is served without simulating. Failed/quarantined cells are
    // never stored, so a stored cell is always trustworthy (and
    // crc64-verified on read).
    let store = cfg.cache.as_deref().zip(cache_key);
    let served = store
        .and_then(|(store, key)| store.lookup_cell_checked(key, cfg.injector.as_deref()))
        .filter(|c| cfg.reusable(c));
    let served_run = |cell| CellRun { cell, retries: 0, cancelled: 0, quarantined: 0, cache_hit: true };
    // A served cell is returned as it is unless the config asks for a
    // native leg; then only that leg runs, under the same watchdog and
    // ladder, and the store is not written. A native divergence is never
    // retried: it fails the cell at once.
    let served = match served {
        Some(cell) if cfg.native_reps.is_none() || cell.checksum_bits.is_none() => return served_run(cell),
        served => served,
    };
    let cache_hit = served.is_some();
    let max_attempts = cfg.retry.max_attempts.max(1);
    let cell_id = format!("{}/{}", task.bench, task.kind);
    let (mut retries, mut cancelled) = (0, 0);
    let mut last_err = "no attempt was made".to_string();
    for attempt in 0..max_attempts {
        let rung = RetryRung::for_attempt(attempt);
        let token = CancelToken::new();
        let ctx = format!("{cell_id} attempt {} (rung {})", attempt + 1, rung.label());
        let sim = supervised_attempt(task, cfg, served.as_ref(), rung.params(), &token, &ctx);
        if token.is_cancelled() {
            cancelled += 1;
        }
        let recorded = sim.and_then(|sim| {
            if let Some(cell) = &served {
                return Ok(served_run(cell.clone()));
            }
            let outcome = sim.cycles.map_or(CellOutcome::Timeout, CellOutcome::Cycles);
            let CellSim { checksum_bits, fingerprint, race, barriers, profile, .. } = sim;
            let profile = profile.map(|(mem, rung, fast)| {
                Box::new(CellProfile { rung: rung.to_string(), host: Some(host_members(&fast)), mem })
            });
            let cell = Cell { checksum_bits, fingerprint, race, barriers, profile, ..task.cell(cfg.scale, outcome) };
            // The store is the durable record: a cell that was computed
            // but not stored is an unfinished cell, and retries the whole
            // attempt (this is where the `cache-write-io` and `cache-torn`
            // faults land and heal).
            if let Some((store, key)) = store {
                store
                    .insert_cell(key, &cell, cfg.injector.as_deref())
                    .map_err(|e| format!("durable record write failed: {e}"))?;
            }
            Ok(CellRun { cell, retries: 0, cancelled: 0, quarantined: 0, cache_hit: false })
        });
        match recorded {
            Ok(run) => {
                if attempt > 0 {
                    eprintln!("[sweep: {cell_id} recovered on attempt {} (rung {})]", attempt + 1, rung.label());
                }
                return CellRun { retries, cancelled, ..run };
            }
            Err(e) if e.starts_with(NATIVE_DIVERGES) => {
                eprintln!("[sweep: {cell_id} FAILED: {e}]");
                let cell = task.cell(cfg.scale, CellOutcome::Failed(e));
                return CellRun { cell, retries, cancelled, quarantined: 0, cache_hit };
            }
            Err(e) => last_err = format!("attempt {} (rung {}): {e}", attempt + 1, rung.label()),
        }
        if attempt + 1 < max_attempts {
            retries += 1;
            let wait = backoff_ms(&cfg.retry, &cell_id, attempt);
            if wait > 0 {
                std::thread::sleep(Duration::from_millis(wait));
            }
        }
    }
    eprintln!("[sweep: {cell_id} QUARANTINED after {max_attempts} attempt(s): {last_err}]");
    let cell = task.cell(cfg.scale, CellOutcome::Quarantined(last_err));
    CellRun { cell, retries, cancelled, quarantined: 1, cache_hit }
}

/// The one cell executor behind every target: each task runs through the
/// self-healing protocol on the worker pool and the runs fold into one
/// report, cells in task order. An injected [`FaultSite::KillSweep`]
/// arrives after each executed cell (a served one costs nothing to lose)
/// and drops every later task (chaos runs use one worker, so "later" is
/// the order faults are counted in).
pub fn run_cells(cfg: &SweepConfig, tasks: &[CellTask], budget: ThreadBudget) -> SweepReport {
    eprintln!("[{budget}]");
    let killed_at = AtomicUsize::new(usize::MAX);
    let runs = par_map(budget, tasks.len(), |i| {
        if i > killed_at.load(Ordering::Relaxed) {
            return None;
        }
        let t = &tasks[i];
        let run = compute_cell_supervised(t, cfg, derive_cache_key(t, cfg).as_ref());
        if !run.cache_hit && fires(cfg.injector.as_deref(), FaultSite::KillSweep, &format!("after {}/{}", t.bench, t.kind)) {
            eprintln!("[sweep: injected kill after {}/{} — run again to continue]", t.bench, t.kind);
            killed_at.fetch_min(i, Ordering::Relaxed);
        }
        Some(run)
    });
    let killed_at = killed_at.into_inner();
    let mut rep = SweepReport { killed: killed_at != usize::MAX, ..SweepReport::default() };
    for (i, run) in runs.into_iter().enumerate().take(killed_at.saturating_add(1)) {
        match run {
            Ok(Some(run)) => rep.absorb(run),
            Ok(None) => {}
            Err(e) => {
                rep.executed += 1;
                rep.cells.push(tasks[i].cell(cfg.scale, CellOutcome::Failed(e)));
            }
        }
    }
    rep
}

/// Run Table 1's sweep over [`sweep_suite`] on one worker. Every cell the
/// store cannot serve is simulated on a supervised worker and stored the
/// moment it finishes; the report carries everything the run had to
/// survive.
pub fn run_sweep_supervised(cfg: &SweepConfig) -> io::Result<SweepReport> {
    let suite = sweep_suite(cfg);
    Ok(run_cells(cfg, &table1_tasks(&suite, cfg.procs), ThreadBudget::clamp(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        for outcome in [
            CellOutcome::Cycles(1234567),
            CellOutcome::Timeout,
            CellOutcome::Failed("weird \"quote\"\nnewline".to_string()),
            CellOutcome::Quarantined("attempt 4 (rung reference-walk): boom".to_string()),
        ] {
            let mut c = Cell::new("lu", "full", 32, 0.25, outcome.clone());
            c.checksum_bits = Some(0xdead_beef_0bad_f00d);
            c.fingerprint = Some(7);
            // A cell without detector counts writes no member for them.
            assert!(!cell_to_json(&c).contains("checked"));
            c.race = Some((123_456, 9));
            c.barriers = Some(5);
            let back = cell_from_json(&cell_to_json(&c)).expect("roundtrip");
            assert_eq!(back.bench, "lu");
            assert_eq!(back.kind, "full");
            assert_eq!(back.procs, 32);
            assert_eq!(scale_key(back.scale), 250);
            assert_eq!(back.outcome, outcome);
            assert_eq!(back.checksum_bits, Some(0xdead_beef_0bad_f00d));
            assert_eq!(back.fingerprint, Some(7));
            assert_eq!(back.race, Some((123_456, 9)));
            assert_eq!(back.barriers, Some(5));
            assert_eq!(back.profile, None);
            // A profile's strings ride escaped after every other member:
            // names full of JSON syntax, a detector-count key among them,
            // change no other field.
            let awkward = "q\"b\\s,c:t\t\"checked\":1";
            let mem = MemProfile {
                sites: vec!["init".into(), awkward.into()],
                init_sites: 1,
                arrays: vec![awkward.into()],
                nprocs: 32,
                rows: vec![dct_ir::MemRow { site: 1, accesses: 9, coh_false: 2, ..Default::default() }],
            };
            let profile = Some(Box::new(CellProfile { rung: awkward.into(), host: None, mem }));
            let p = Cell { race: None, profile, ..c.clone() };
            let back = cell_from_json(&cell_to_json(&p)).expect("profiled roundtrip");
            assert_eq!(back, p);
            assert_eq!(back.race, None, "a profile name read as the detector's counts");
        }
        // A cell without a profile keeps its envelope bytes.
        let plain = Cell::new("lu", "full", 32, 0.25, CellOutcome::Cycles(7));
        assert_eq!(cell_to_json(&plain), r#"{"bench":"lu","kind":"full","procs":32,"scale_milli":250,"outcome":"cycles","cycles":7}"#);
        // A request body as `json.dumps` writes it (space after the
        // colon) reads like the compact form this crate writes.
        for body in [
            "{\"bench\": \"stencil\", \"procs\": 8, \"race_check\": true}",
            "{\"bench\":\"stencil\",\"procs\":8,\"race_check\":true}",
            "{\"bench\":\t\"stencil\",\"procs\":\n 8,\"race_check\":  true }",
        ] {
            assert_eq!(json_str(body, "bench").as_deref(), Some("stencil"), "{body}");
            assert_eq!(json_num(body, "procs"), Some(8), "{body}");
            assert_eq!(json_bool(body, "race_check"), Some(true), "{body}");
            assert!(!json_has(body, "scale_milli"), "{body}");
        }
        // Present but unparseable is distinguishable from absent.
        let bad = "{\"procs\": \"eight\", \"race_check\": truthy, \"bench\": 3}";
        for key in ["procs", "race_check", "bench"] {
            assert!(json_has(bad, key), "{key}");
        }
        assert_eq!(json_num(bad, "procs"), None);
        assert_eq!(json_bool(bad, "race_check"), None);
        assert_eq!(json_str(bad, "bench"), None);
        assert_eq!(json_bool("{\"race_check\":false}", "race_check"), Some(false));
    }

    #[test]
    fn truncated_checkpoint_is_skipped_not_fatal() {
        assert!(cell_from_json("{\"bench\":\"lu\",\"kind\":\"fu").is_none());
        assert!(cell_from_json("").is_none());
        assert!(cell_from_json("not json at all").is_none());
    }

    #[test]
    fn checkpoint_envelope_roundtrip_and_verification() {
        let c = Cell::new("adi", "comp", 16, 0.5, CellOutcome::Cycles(42));
        let json = checkpoint_to_json(&c);
        assert!(json.contains("\"schema\":2"), "{json}");
        let back = checkpoint_from_json(&json).expect("verified checkpoint parses");
        assert_eq!(back, c);

        // Any single flipped bit in the body must be caught.
        let mut corrupt = json.clone().into_bytes();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x08;
        let corrupt = String::from_utf8_lossy(&corrupt).to_string();
        let err = checkpoint_from_json(&corrupt).expect_err("bit flip must not verify");
        assert!(
            err.contains("checksum mismatch")
                || err.contains("unreadable")
                || err.contains("missing")
                || err.contains("schema"),
            "unhelpful reason: {err}"
        );

        // Truncation must be caught.
        let half = &json[..json.len() / 2];
        assert!(checkpoint_from_json(half).is_err(), "truncated envelope must not verify");

        // Legacy v1 (bare body, no envelope) still loads.
        let legacy = cell_to_json(&c);
        let back = checkpoint_from_json(&legacy).expect("legacy v1 accepted");
        assert_eq!(back, c);

        // Future schema is refused with a reason, not misread.
        let future = json.replace("\"schema\":2", "\"schema\":3");
        let err = checkpoint_from_json(&future).expect_err("future schema refused");
        assert!(err.contains("schema 3"), "{err}");
    }

    /// [`HOST_KEYS`] names exactly the top-level members [`host_members`]
    /// writes, so a served cell stands in for every one of them.
    #[test]
    fn host_keys_are_the_host_members() {
        let members = host_members(&FastPathStats::default());
        // A quoted string at depth 0 followed by `:` is a member's key.
        let (mut keys, mut depth, mut open) = (Vec::new(), 0, None);
        for (i, c) in members.char_indices() {
            match (c, open) {
                ('"', Some(start)) => {
                    open = None;
                    if depth == 0 && members[i + 1..].starts_with(':') {
                        keys.push(&members[start + 1..i]);
                    }
                }
                ('"', None) => open = Some(i),
                ('{', None) => depth += 1,
                ('}', None) => depth -= 1,
                _ => {}
            }
        }
        assert_eq!(keys, HOST_KEYS, "{members}");
        assert_eq!(served_host_members().matches("\"served\"").count(), HOST_KEYS.len());
    }

    #[test]
    fn fnv64_is_stable() {
        // Pinned values: checkpoints written by one build must verify in
        // the next. Changing fnv64 is a schema change.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
