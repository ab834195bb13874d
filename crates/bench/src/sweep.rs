//! Crash-safe, resumable, **self-healing** benchmark sweeps.
//!
//! Every simulation cell — one `(benchmark, strategy-kind, procs, scale)`
//! point — is checkpointed to its own JSON file under the results
//! directory the moment it finishes, written atomically (temp file +
//! fsync + rename + directory fsync) so a kill at any instant leaves
//! either the previous state or a complete checkpoint, never a torn file.
//! Checkpoints carry a schema version and an FNV-64 content checksum,
//! verified on `--resume`: a corrupt file is moved to `corrupt/` with a
//! reason and its cell recomputed — never silently trusted, never
//! silently overwritten.
//!
//! Cells run inside a *supervised worker*: panics are caught, a watchdog
//! cancels a wedged cell cooperatively at its next sync-point boundary
//! (see [`dct_ir::CancelToken`]), and failed cells retry with bounded
//! seeded backoff down a degradation ladder whose rungs are all
//! bit-identical (the fast path — never the science). A cell that
//! fails every attempt is quarantined with a structured reason; the sweep
//! keeps going. Partial results always render: a table with holes beats
//! no table.

use crate::cache::CacheKey;
use crate::chaos::{backoff_ms, FaultInjector, FaultSite, RetryPolicy, RetryRung};
use crate::harness::atomic_write_sync;
use crate::programs;
use dct_core::{rung_sim_options, Compiler, Strategy};
use dct_ir::{panic_message, CancelToken};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Cell kinds, in table order: the sequential reference then the three
/// strategies at the sweep's processor count.
pub const KINDS: [&str; 4] = ["seq", "base", "comp", "full"];

/// Checkpoint schema version written (and required) by this build.
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
    /// preserved. Quarantined cells are retried on `--resume`.
    Quarantined(String),
}

/// One checkpointed simulation cell.
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
        }
    }

    /// Identity of the cell within a sweep.
    pub fn key(&self) -> (String, String, usize, i64) {
        (self.bench.clone(), self.kind.clone(), self.procs, scale_key(self.scale))
    }

    /// Checkpoint file name, unique per cell identity.
    pub fn filename(&self) -> String {
        format!("{}-{}-p{}-s{}.json", self.bench, self.kind, self.procs, scale_key(self.scale))
    }
}

// ---------------------------------------------------------------- JSON --

pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// FNV-1a, 64-bit: the checkpoint content checksum and the fingerprint
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

/// Serialize a cell as one small flat JSON object (the checkpoint body).
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

/// Extract a numeric field from a flat JSON object.
pub fn json_num(s: &str, key: &str) -> Option<i64> {
    let digits: String =
        json_value(s, key)?.chars().take_while(|c| c.is_ascii_digit() || *c == '-').collect();
    digits.parse().ok()
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

/// Parse a checkpoint body produced by [`cell_to_json`]. `None` on
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
    Some(c)
}

/// Wrap a cell in the versioned, checksummed checkpoint envelope:
/// `{"schema":2,"crc64":"<fnv64 of body>","cell":{...}}`.
pub fn checkpoint_to_json(c: &Cell) -> String {
    let inner = cell_to_json(c);
    format!(
        "{{\"schema\":{CKPT_SCHEMA},\"crc64\":\"{:016x}\",\"cell\":{inner}}}",
        fnv64(inner.as_bytes())
    )
}

/// Parse and *verify* a checkpoint file: schema version must match, the
/// stored checksum must match the body. `Err` carries the reason the file
/// is untrustworthy (the loader moves it to `corrupt/`). Pre-integrity
/// (v1) checkpoints — a bare flat object — are still accepted.
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
            "content checksum mismatch: stored {crc:016x}, computed {actual:016x} (corrupt checkpoint)"
        ));
    }
    cell_from_json(inner).ok_or_else(|| "unparseable cell body".to_string())
}

// --------------------------------------------------------- checkpoints --

fn fires(inj: Option<&FaultInjector>, site: FaultSite, ctx: &str) -> bool {
    inj.is_some_and(|i| i.fire(site, ctx))
}

/// Atomically and durably write one cell checkpoint (temp file + fsync +
/// rename + directory fsync), with fault-injection hooks on the write
/// path. A crash at any instant leaves either the previous state or a
/// complete checkpoint; the checksum in the envelope catches anything
/// the storage does to it afterwards.
pub fn save_cell_checked(
    dir: &Path,
    cell: &Cell,
    inj: Option<&FaultInjector>,
) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let name = cell.filename();
    let finals = dir.join(&name);
    let json = checkpoint_to_json(cell);
    if fires(inj, FaultSite::CkptWriteIo, &name) {
        return Err(io::Error::other(format!("injected: checkpoint write IO error ({name})")));
    }
    if fires(inj, FaultSite::CkptTorn, &name) {
        // Crash between temp write and rename: half the temp file lands,
        // the rename never happens. The loader must clean this up.
        let tmp = dir.join(format!(".{name}.tmp"));
        let _ = std::fs::write(&tmp, &json.as_bytes()[..json.len() / 2]);
        return Err(io::Error::other(format!(
            "injected: torn temp write, crash before rename ({name})"
        )));
    }
    atomic_write_sync(&finals, json.as_bytes())?;
    if fires(inj, FaultSite::CkptBitFlip, &name) {
        // Storage bit-rot after a clean write: flip one bit mid-file.
        if let Ok(mut bytes) = std::fs::read(&finals) {
            if !bytes.is_empty() {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x08;
                let _ = std::fs::write(&finals, &bytes);
            }
        }
    }
    if fires(inj, FaultSite::CkptTruncate, &name) {
        if let Ok(bytes) = std::fs::read(&finals) {
            let _ = std::fs::write(&finals, &bytes[..bytes.len() / 2]);
        }
    }
    Ok(())
}

/// [`save_cell_checked`] without fault injection (the public default).
pub fn save_cell(dir: &Path, cell: &Cell) -> io::Result<()> {
    save_cell_checked(dir, cell, None)
}

/// Does `dir` already hold, byte for byte, the checkpoint
/// [`save_cell_checked`] would write for `cell`? A file reaches its final
/// name only through [`atomic_write_sync`] (synced before the rename), so
/// byte-equal means complete and durable. Absent, flipped, truncated,
/// stale or foreign all read as not current.
fn checkpoint_is_current(dir: &Path, cell: &Cell) -> bool {
    std::fs::read(dir.join(cell.filename()))
        .is_ok_and(|on_disk| on_disk == checkpoint_to_json(cell).as_bytes())
}

/// What a checkpoint-directory scan found.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Every verified cell, sorted by file name.
    pub cells: Vec<Cell>,
    /// Corrupt checkpoints `(file name, reason)` — moved to `corrupt/`,
    /// their cells recomputed.
    pub corrupt: Vec<(String, String)>,
    /// Files that could not be read at all `(file name, reason)` — left
    /// in place (the error may be transient), their cells recomputed.
    pub unreadable: Vec<(String, String)>,
    /// Stale `.tmp` files from crashed writes, deleted on sight.
    pub tmp_cleaned: usize,
}

/// Scan a checkpoint directory: verify every checkpoint's schema and
/// content checksum, move corrupt files into `corrupt/` (with the reason
/// on stderr and in the report — never silently recomputed over), and
/// delete stale temp files left by crashed writers.
pub fn load_report(dir: &Path, inj: Option<&FaultInjector>) -> LoadReport {
    let mut rep = LoadReport::default();
    let Ok(entries) = std::fs::read_dir(dir) else { return rep };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    for p in paths {
        let name = p.file_name().map(|n| n.to_string_lossy().to_string()).unwrap_or_default();
        if name.ends_with(".tmp") {
            // A crashed writer died between temp write and rename; the
            // final file never appeared, so the temp is garbage.
            let _ = std::fs::remove_file(&p);
            rep.tmp_cleaned += 1;
            continue;
        }
        if !name.ends_with(".json") {
            continue;
        }
        if fires(inj, FaultSite::CkptReadIo, &name) {
            rep.unreadable.push((name, "injected: checkpoint read IO error".to_string()));
            continue;
        }
        let text = match std::fs::read_to_string(&p) {
            Ok(t) => t,
            Err(e) => {
                rep.unreadable.push((name, e.to_string()));
                continue;
            }
        };
        match checkpoint_from_json(&text) {
            Ok(c) => rep.cells.push(c),
            Err(reason) => {
                let cdir = dir.join("corrupt");
                let _ = std::fs::create_dir_all(&cdir);
                let moved = std::fs::rename(&p, cdir.join(&name)).is_ok();
                eprintln!(
                    "[sweep: corrupt checkpoint {name}: {reason}{}]",
                    if moved { " -> corrupt/" } else { " (could not be moved)" }
                );
                rep.corrupt.push((name, reason));
            }
        }
    }
    rep
}

/// Load every verified checkpoint in `dir` (missing directory = empty).
/// Corrupt files are quarantined to `corrupt/` as a side effect; use
/// [`load_report`] to see them.
pub fn load_cells(dir: &Path) -> Vec<Cell> {
    load_report(dir, None).cells
}

// --------------------------------------------------------------- sweep --

/// Configuration of one resumable sweep.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Processor count of the parallel cells (the paper's Table 1 uses 32).
    pub procs: usize,
    /// Problem-size scale relative to the paper sizes.
    pub scale: f64,
    /// Checkpoint directory.
    pub out_dir: PathBuf,
    /// Reuse completed checkpoints instead of recomputing them. Failed
    /// and quarantined cells are retried (their failure may have been
    /// environmental); completed and timed-out cells are skipped.
    pub resume: bool,
    /// Per-cell simulated-cycle budget.
    pub max_cycles: Option<u64>,
    /// Per-cell host wall-clock budget, seconds.
    pub max_wall_secs: Option<f64>,
    /// Restrict to these benchmarks (`None` = whole suite).
    pub only: Option<Vec<String>>,
    /// Run every cell with the happens-before race detector on; a cell
    /// whose schedule races becomes a [`CellOutcome::Failed`] cell
    /// carrying the race report (detection never changes cycles, so
    /// checkpointed numbers stay comparable either way).
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
    /// Re-run every completed cell on the native threaded backend and
    /// fail the attempt unless its checksum is bit-identical to the
    /// simulator's (the third leg of the differential oracle).
    pub native_check: bool,
    /// Content-addressed result store: completed cells are served from it
    /// without executing, and freshly computed cells are inserted. A
    /// store insert failure is treated exactly like a checkpoint-write
    /// failure (the attempt retries). `None` = no caching.
    pub cache: Option<Arc<crate::cache::ResultStore>>,
}

impl SweepConfig {
    pub fn new(procs: usize, scale: f64, out_dir: impl Into<PathBuf>) -> SweepConfig {
        SweepConfig {
            procs,
            scale,
            out_dir: out_dir.into(),
            resume: false,
            max_cycles: None,
            max_wall_secs: None,
            only: None,
            race_check: false,
            profile: false,
            retry: RetryPolicy::default(),
            stuck_wall_secs: None,
            injector: None,
            native_check: false,
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
            machine: None,
        }
    }
}

/// What one supervised sweep run did, beyond the cells themselves.
#[derive(Debug, Default)]
pub struct SweepReport {
    /// All cells, in deterministic (suite, kind) order — resumed and
    /// freshly computed alike.
    pub cells: Vec<Cell>,
    /// Corrupt checkpoints quarantined during resume `(file, reason)`.
    pub corrupt: Vec<(String, String)>,
    /// Unreadable checkpoints skipped during resume `(file, reason)`.
    pub unreadable: Vec<(String, String)>,
    /// Stale temp files cleaned during resume.
    pub tmp_cleaned: usize,
    /// Failed attempts that were retried.
    pub retries: u64,
    /// Attempts aborted by the watchdog's cancellation token.
    pub cancelled: u64,
    /// Cells that exhausted the retry ladder.
    pub quarantined: u64,
    /// The sweep was killed by an injected [`FaultSite::KillSweep`]
    /// before finishing (chaos runs only); restart with `resume`.
    pub killed: bool,
    /// Cells served from the content-addressed cache without executing.
    pub cache_hits: u64,
    /// Cells that actually entered the compute path (attempt loop). A
    /// fully warm cached sweep has `executed == 0`.
    pub executed: u64,
    /// Cache hits whose checkpoint was already on disk byte for byte, so
    /// nothing was written; the other hits wrote theirs.
    pub checkpoints_current: u64,
}

/// Result of one compute attempt, before checkpointing.
struct CellSim {
    outcome: CellOutcome,
    checksum_bits: Option<u64>,
    fingerprint: Option<u64>,
}

impl CellSim {
    fn failed(msg: impl Into<String>) -> CellSim {
        CellSim { outcome: CellOutcome::Failed(msg.into()), checksum_bits: None, fingerprint: None }
    }
}

/// Simulate one cell once, on one rung, under a cancellation token,
/// catching panics. Runs on the supervised worker thread.
fn compute_attempt(
    prog: &dct_ir::Program,
    cfg: &SweepConfig,
    kind: &str,
    procs: usize,
    fast_path: bool,
    token: &CancelToken,
    ctx: &str,
) -> CellSim {
    let (strategy, procs) = match kind {
        "seq" => (Strategy::Base, 1),
        "base" => (Strategy::Base, procs),
        "comp" => (Strategy::CompDecomp, procs),
        _ => (Strategy::Full, procs),
    };
    let inj = cfg.injector.as_deref();
    let params = prog.default_params();
    let body = || -> Result<CellSim, String> {
        if fires(inj, FaultSite::WorkerPanic, ctx) {
            panic!("injected: worker panic at {ctx}");
        }
        if fires(inj, FaultSite::AllocCap, ctx) {
            return Err("injected: allocation cap exceeded (simulated arena budget)".to_string());
        }
        if fires(inj, FaultSite::StuckCell, ctx) {
            // Wedge cooperatively: spin until the watchdog cancels us
            // (bounded so a watchdog-less config cannot hang forever).
            let start = Instant::now();
            while !token.is_cancelled() && start.elapsed() < Duration::from_secs(30) {
                std::thread::sleep(Duration::from_millis(2));
            }
            return Err("injected: stuck cell (cancelled by watchdog)".to_string());
        }
        let c = Compiler::new(strategy);
        let compiled = c.compile(prog).map_err(|e| e.to_string())?;
        let mut opts = rung_sim_options(compiled.rung, procs, params.clone());
        opts.max_cycles = cfg.max_cycles;
        opts.max_wall_secs = cfg.max_wall_secs;
        opts.race_detect = cfg.race_check;
        opts.profile = cfg.profile;
        opts.fast_path = fast_path;
        opts.cancel = Some(token.clone());
        let r = dct_spmd::simulate(&compiled.program, &compiled.decomposition, &opts)
            .map_err(|e| e.to_string())?;
        if r.cancelled {
            return Err("cancelled at a sync-point boundary (watchdog)".to_string());
        }
        if let Some(rep) = &r.race {
            if !rep.is_race_free() {
                return Err(format!("schedule races: {rep}"));
            }
        }
        if r.timed_out {
            return Ok(CellSim {
                outcome: CellOutcome::Timeout,
                checksum_bits: None,
                fingerprint: None,
            });
        }
        // The bit-identity fingerprint: checksum bits plus every enabled
        // observer's full output.
        let bits = r.checksum.to_bits();
        if cfg.native_check {
            native_cross_check(&compiled, &opts, bits, inj, token, ctx)?;
        }
        let mut buf = bits.to_le_bytes().to_vec();
        if let Some(rep) = &r.race {
            buf.extend_from_slice(format!("{rep:?}").as_bytes());
        }
        if let Some(mp) = &r.mem_profile {
            buf.extend_from_slice(format!("{:?}", mp.rows).as_bytes());
        }
        Ok(CellSim {
            outcome: CellOutcome::Cycles(r.cycles),
            checksum_bits: Some(bits),
            fingerprint: Some(fnv64(&buf)),
        })
    };
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(Ok(o)) => o,
        Ok(Err(e)) => CellSim::failed(e),
        Err(p) => CellSim::failed(format!("panicked: {}", panic_message(p.as_ref()))),
    }
}

/// Run the cell once more on the native threaded backend and require a
/// bit-identical checksum — the sweep-side leg of the differential
/// oracle. Injected native faults are translated into the backend's
/// worker startup hook: a planned `NativeWorkerPanic` panics one worker
/// (the backend turns it into a structured error), a planned
/// `NativeStuck` wedges one worker until the attempt's watchdog fires
/// the cancellation token. Any failure, cancellation, or divergence
/// fails the attempt; the retry ladder then heals it like any other
/// transient fault.
fn native_cross_check(
    compiled: &dct_core::Compiled,
    opts: &dct_spmd::SimOptions,
    sim_bits: u64,
    inj: Option<&FaultInjector>,
    token: &CancelToken,
    ctx: &str,
) -> Result<(), String> {
    let panic_worker = fires(inj, FaultSite::NativeWorkerPanic, ctx);
    let stuck_worker = fires(inj, FaultSite::NativeStuck, ctx);
    let hook: Option<Arc<dyn Fn(usize) + Send + Sync>> = if panic_worker || stuck_worker {
        let t = token.clone();
        let at = ctx.to_string();
        Some(Arc::new(move |p: usize| {
            if p != 0 {
                return;
            }
            if panic_worker {
                panic!("injected: native worker panic at {at}");
            }
            // Wedge cooperatively, exactly like StuckCell: spin until the
            // watchdog cancels (bounded so a watchdog-less config cannot
            // hang forever).
            let start = Instant::now();
            while !t.is_cancelled() && start.elapsed() < Duration::from_secs(30) {
                std::thread::sleep(Duration::from_millis(2));
            }
        }))
    } else {
        None
    };
    let sp = dct_spmd::lower(&compiled.program, &compiled.decomposition, opts)
        .map_err(|e| format!("native lowering: {e}"))?;
    let nopts = dct_native::NativeOptions {
        cancel: Some(token.clone()),
        jitter: None,
        worker_hook: hook,
    };
    let nr = dct_native::execute(&sp, &nopts).map_err(|e| format!("native cross-check: {e}"))?;
    if nr.cancelled {
        return Err("native cross-check cancelled at a sync boundary (watchdog)".to_string());
    }
    if nr.checksum.to_bits() != sim_bits {
        return Err(format!(
            "native cross-check diverges: native {:#018x} vs simulator {:#018x}",
            nr.checksum.to_bits(),
            sim_bits
        ));
    }
    Ok(())
}

/// Run one attempt on a supervised worker thread with a watchdog: if the
/// worker produces nothing within `stuck_wall_secs`, the supervisor fires
/// the cancellation token and the attempt dies at its next sync-point
/// boundary (then gets retried on a weaker rung).
fn supervised_attempt(
    prog: &dct_ir::Program,
    cfg: &SweepConfig,
    kind: &str,
    procs: usize,
    fast_path: bool,
    token: &CancelToken,
    ctx: &str,
) -> CellSim {
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        let worker_token = token.clone();
        s.spawn(move || {
            let sim = compute_attempt(prog, cfg, kind, procs, fast_path, &worker_token, ctx);
            let _ = tx.send(sim);
        });
        match cfg.stuck_wall_secs {
            Some(w) => match rx.recv_timeout(Duration::from_secs_f64(w.max(0.01))) {
                Ok(sim) => sim,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    token.cancel();
                    // The cancel is cooperative: the worker notices at its
                    // next sync point and reports back. Wait for it — a
                    // detached runaway thread would race the next attempt.
                    rx.recv().unwrap_or_else(|_| CellSim::failed("worker died after watchdog cancel"))
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    CellSim::failed("worker channel closed before a result")
                }
            },
            None => rx.recv().unwrap_or_else(|_| CellSim::failed("worker channel closed before a result")),
        }
    })
}

/// The cache key of one cell under `cfg`; `None` (the cell runs uncached)
/// when the sweep has no store or the key cannot be derived.
fn derive_cache_key(
    prog: &dct_ir::Program,
    cfg: &SweepConfig,
    bench: &str,
    kind: &str,
    procs: usize,
) -> Option<CacheKey> {
    cfg.cache.as_ref()?;
    crate::cache::cell_cache_key(bench, &cfg.key_inputs(prog, kind, procs))
        .map_err(|e| {
            eprintln!("[cache: {bench}/{kind}: key derivation failed ({e}); cell will not be cached]")
        })
        .ok()
}

/// Compute one cell through the full self-healing protocol: cache look-up
/// under `cache_key`, bounded retries with seeded backoff down the
/// bit-identical degradation ladder, watchdog cancellation, checkpointing
/// (with its own faults retried), quarantine after the last attempt.
fn compute_cell_supervised(
    prog: &dct_ir::Program,
    cfg: &SweepConfig,
    bench: &str,
    kind: &str,
    procs: usize,
    cache_key: Option<&CacheKey>,
    rep: &mut SweepReport,
) -> Cell {
    let inj = cfg.injector.as_deref();
    let max_attempts = cfg.retry.max_attempts.max(1);
    let cell_id = format!("{bench}/{kind}");
    // Content-addressed cache: a completed or timed-out cell whose key
    // matches is served without executing anything. Failed/quarantined
    // entries are never cached, so a cached cell is always trustworthy
    // (and crc64-verified on read).
    if let (Some(store), Some(key)) = (cfg.cache.as_deref(), cache_key) {
        if let Some(cell) = store.lookup_cell(key) {
            if matches!(cell.outcome, CellOutcome::Cycles(_) | CellOutcome::Timeout) {
                // Keep the checkpoint record consistent so `--resume`
                // and partial-table rendering see the cell either way;
                // one that is already there is not written again.
                if checkpoint_is_current(&cfg.out_dir, &cell) {
                    rep.checkpoints_current += 1;
                } else {
                    let _ = save_cell_checked(&cfg.out_dir, &cell, inj);
                }
                rep.cache_hits += 1;
                return cell;
            }
        }
    }
    rep.executed += 1;
    let mut last_err = "no attempt was made".to_string();
    for attempt in 0..max_attempts {
        let rung = RetryRung::for_attempt(attempt);
        let fast_path = rung.params();
        let token = CancelToken::new();
        let ctx = format!("{cell_id} attempt {} (rung {})", attempt + 1, rung.label());
        let sim = supervised_attempt(prog, cfg, kind, procs, fast_path, &token, &ctx);
        if token.is_cancelled() {
            rep.cancelled += 1;
        }
        match &sim.outcome {
            CellOutcome::Cycles(_) | CellOutcome::Timeout => {
                let mut cell = Cell::new(bench, kind, procs, cfg.scale, sim.outcome);
                cell.checksum_bits = sim.checksum_bits;
                cell.fingerprint = sim.fingerprint;
                match save_cell_checked(&cfg.out_dir, &cell, inj)
                    .and_then(|()| match (cfg.cache.as_deref(), cache_key) {
                        // The cache is part of the durable record: a cell
                        // that could not be inserted retries the whole
                        // attempt, exactly like a failed checkpoint (this
                        // is where `cache-write-io` faults land and heal).
                        (Some(store), Some(key)) => store.insert_cell(key, &cell, inj),
                        _ => Ok(()),
                    }) {
                    Ok(()) => {
                        if attempt > 0 {
                            eprintln!(
                                "[sweep: {cell_id} recovered on attempt {} (rung {})]",
                                attempt + 1,
                                rung.label()
                            );
                        }
                        return cell;
                    }
                    Err(e) => {
                        // The checkpoint is the record; a cell that was
                        // computed but not durably recorded is an
                        // unfinished cell. Retry the whole attempt.
                        last_err = format!(
                            "attempt {} (rung {}): durable record write failed: {e}",
                            attempt + 1,
                            rung.label()
                        );
                    }
                }
            }
            CellOutcome::Failed(e) | CellOutcome::Quarantined(e) => {
                last_err = format!("attempt {} (rung {}): {e}", attempt + 1, rung.label());
            }
        }
        if attempt + 1 < max_attempts {
            rep.retries += 1;
            let wait = backoff_ms(&cfg.retry, &cell_id, attempt);
            if wait > 0 {
                std::thread::sleep(Duration::from_millis(wait));
            }
        }
    }
    rep.quarantined += 1;
    eprintln!("[sweep: {cell_id} QUARANTINED after {max_attempts} attempt(s): {last_err}]");
    let cell = Cell::new(bench, kind, procs, cfg.scale, CellOutcome::Quarantined(last_err));
    // Best effort: a quarantine record on disk beats losing the reason,
    // but a failing disk must not mask the quarantine itself.
    let _ = save_cell_checked(&cfg.out_dir, &cell, inj);
    cell
}

/// What one supervised single-cell run did (the serve queue's unit of
/// work): the cell plus the recovery counters its computation cost.
#[derive(Debug)]
pub struct CellRun {
    pub cell: Cell,
    pub retries: u64,
    pub cancelled: u64,
    pub quarantined: u64,
    /// True when the cell was served from the content-addressed cache
    /// without executing.
    pub cache_hit: bool,
    /// True when that hit found its checkpoint on disk byte for byte and
    /// wrote nothing; false when the checkpoint was written (every miss,
    /// and a hit whose file was absent or differed).
    pub checkpoint_current: bool,
}

/// Compute exactly one cell through the full self-healing protocol —
/// cache lookup, supervised attempts down the retry ladder, watchdog,
/// checkpoint + cache insert, quarantine. This is the sweep loop's own
/// per-cell path, exposed for the job-queue service (dct-serve), so a
/// queued cell and a swept cell can never diverge in behavior.
pub fn run_cell_supervised(
    prog: &dct_ir::Program,
    cfg: &SweepConfig,
    bench: &str,
    kind: &str,
    procs: usize,
) -> CellRun {
    let key = derive_cache_key(prog, cfg, bench, kind, procs);
    run_cell_supervised_keyed(prog, cfg, bench, kind, procs, key.as_ref())
}

/// [`run_cell_supervised`] for a caller that already holds the cell's
/// cache key (`None` = run uncached): the serve queue derives it once, at
/// submit, to deduplicate in-flight cells.
pub fn run_cell_supervised_keyed(
    prog: &dct_ir::Program,
    cfg: &SweepConfig,
    bench: &str,
    kind: &str,
    procs: usize,
    cache_key: Option<&CacheKey>,
) -> CellRun {
    let mut rep = SweepReport::default();
    let cell = compute_cell_supervised(prog, cfg, bench, kind, procs, cache_key, &mut rep);
    CellRun {
        cell,
        retries: rep.retries,
        cancelled: rep.cancelled,
        quarantined: rep.quarantined,
        cache_hit: rep.cache_hits > 0,
        checkpoint_current: rep.checkpoints_current > 0,
    }
}

/// Run (or resume) a sweep under the self-healing executor. Every missing
/// cell is simulated on a supervised worker and checkpointed the moment
/// it finishes; the report carries everything the run had to survive.
pub fn run_sweep_supervised(cfg: &SweepConfig) -> io::Result<SweepReport> {
    eprintln!("[thread budget: 1 cell in flight (checkpointed sweep is serial)]");
    let inj = cfg.injector.as_deref();
    let mut rep = SweepReport::default();
    let done: Vec<Cell> = if cfg.resume {
        let lr = load_report(&cfg.out_dir, inj);
        rep.corrupt = lr.corrupt;
        rep.unreadable = lr.unreadable;
        rep.tmp_cleaned = lr.tmp_cleaned;
        lr.cells
    } else {
        Vec::new()
    };
    let suite = programs::suite(cfg.scale);
    'cells: for b in &suite {
        if let Some(only) = &cfg.only {
            if !only.iter().any(|n| n == b.name) {
                continue;
            }
        }
        for kind in KINDS {
            let procs = if kind == "seq" { 1 } else { cfg.procs };
            let key = (b.name.to_string(), kind.to_string(), procs, scale_key(cfg.scale));
            if let Some(prev) = done.iter().find(|c| {
                c.key() == key
                    && matches!(c.outcome, CellOutcome::Cycles(_) | CellOutcome::Timeout)
            }) {
                rep.cells.push(prev.clone());
                continue;
            }
            let cache_key = derive_cache_key(&b.program, cfg, b.name, kind, procs);
            let cell = compute_cell_supervised(
                &b.program,
                cfg,
                b.name,
                kind,
                procs,
                cache_key.as_ref(),
                &mut rep,
            );
            rep.cells.push(cell);
            if fires(inj, FaultSite::KillSweep, &format!("after {}/{kind}", b.name)) {
                eprintln!(
                    "[sweep: injected kill after {}/{kind} — restart with --resume to continue]",
                    b.name
                );
                rep.killed = true;
                break 'cells;
            }
        }
    }
    Ok(rep)
}

/// Run (or resume) a sweep; cells only. See [`run_sweep_supervised`] for
/// the full report.
pub fn run_sweep(cfg: &SweepConfig) -> io::Result<Vec<Cell>> {
    run_sweep_supervised(cfg).map(|r| r.cells)
}

/// Render whatever cells exist as a (possibly partial) Table 1: holes
/// print `-`, budget aborts print `timeout`, failures print `fail`,
/// quarantined cells print `quar`.
pub fn render_sweep(cells: &[Cell], procs: usize, scale: f64) -> String {
    let mut benches: Vec<&str> = Vec::new();
    for c in cells {
        if scale_key(c.scale) == scale_key(scale) && !benches.contains(&c.bench.as_str()) {
            benches.push(&c.bench);
        }
    }
    let find = |bench: &str, kind: &str| -> Option<&Cell> {
        let p = if kind == "seq" { 1 } else { procs };
        cells.iter().find(|c| {
            c.bench == bench && c.kind == kind && c.procs == p && scale_key(c.scale) == scale_key(scale)
        })
    };
    let mut out = format!(
        "Sweep at {procs} processors, scale {scale} (speedups vs sequential; partial cells allowed)\n"
    );
    out.push_str("program      seq-cycles      base      comp      full\n");
    for bench in benches {
        let seq = match find(bench, "seq").map(|c| &c.outcome) {
            Some(CellOutcome::Cycles(n)) => Some(*n),
            _ => None,
        };
        let col = |kind: &str| -> String {
            match find(bench, kind).map(|c| &c.outcome) {
                Some(CellOutcome::Cycles(n)) => match seq {
                    Some(s) => format!("{:>9.1}", s as f64 / *n as f64),
                    // No sequential reference to divide by: label the raw
                    // cycle count so it cannot be misread as a speedup.
                    None => format!("{:>9}", format!("{n}cy")),
                },
                Some(CellOutcome::Timeout) => format!("{:>9}", "timeout"),
                Some(CellOutcome::Failed(_)) => format!("{:>9}", "fail"),
                Some(CellOutcome::Quarantined(_)) => format!("{:>9}", "quar"),
                None => format!("{:>9}", "-"),
            }
        };
        let seqcol = match find(bench, "seq").map(|c| &c.outcome) {
            Some(CellOutcome::Cycles(n)) => format!("{n:>10}"),
            Some(CellOutcome::Timeout) => format!("{:>10}", "timeout"),
            Some(CellOutcome::Failed(_)) => format!("{:>10}", "fail"),
            Some(CellOutcome::Quarantined(_)) => format!("{:>10}", "quar"),
            None => format!("{:>10}", "-"),
        };
        out.push_str(&format!(
            "{:<12} {}{}{}{}\n",
            bench,
            seqcol,
            col("base"),
            col("comp"),
            col("full")
        ));
        for kind in ["full", "seq"] {
            match find(bench, kind).map(|c| &c.outcome) {
                Some(CellOutcome::Failed(e)) => {
                    out.push_str(&format!("             ! {kind}: {e}\n"));
                }
                Some(CellOutcome::Quarantined(e)) => {
                    out.push_str(&format!("             ! {kind} quarantined: {e}\n"));
                }
                _ => {}
            }
        }
    }
    out
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
            let back = cell_from_json(&cell_to_json(&c)).expect("roundtrip");
            assert_eq!(back.bench, "lu");
            assert_eq!(back.kind, "full");
            assert_eq!(back.procs, 32);
            assert_eq!(scale_key(back.scale), 250);
            assert_eq!(back.outcome, outcome);
            assert_eq!(back.checksum_bits, Some(0xdead_beef_0bad_f00d));
            assert_eq!(back.fingerprint, Some(7));
        }
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

    #[test]
    fn fnv64_is_stable() {
        // Pinned values: checkpoints written by one build must verify in
        // the next. Changing fnv64 is a schema change.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
