//! Content-addressed result store: repeated cells are free.
//!
//! Every simulation cell is keyed by a *stable* 128-bit fingerprint of
//! everything that determines its result: the canonicalized IR of the
//! compiled program (dct-ir [`dct_ir::fingerprint`]), the realized
//! strategy rung, the full decomposition (grid, foldings, per-nest and
//! per-array placement), the resolved machine configuration field by
//! field, and the result-relevant simulation options. Host-side knobs
//! that are proven bit-identical (`fast_path`) are *excluded* by
//! construction — they never reach the key builder.
//!
//! Entries live under `<root>/<2-hex-shard>/<key>.json` in the v2 cell
//! envelope from [`crate::sweep`] (schema + crc64 + flat cell body,
//! written with [`atomic_write_sync`]). The store is a cell's only durable
//! record: a sweep re-run against it serves every finished cell, which is
//! how a killed sweep resumes. A lookup that fails verification
//! quarantines the file to `<root>/corrupt/` and reports a miss: a flipped
//! bit costs one recompute, never a wrong table. An optional byte budget
//! is enforced by an LRU sweep over entry mtimes. The chaos fault sites of
//! the durable record (`cache-write-io`, `cache-torn`, `cache-bit-flip`,
//! `cache-truncate`, `cache-read-io`) live here.
//!
//! The same store also holds rendered *artifacts* (explain reports) in a
//! sibling envelope `{"schema":2,"crc64":...,"artifact":"..."}` so the
//! serve API can answer explain requests from cache.

use crate::ablate::Variant;
use crate::chaos::{fires, FaultInjector, FaultSite};
use crate::harness::atomic_write_sync;
use crate::sweep::{
    checkpoint_from_json, checkpoint_to_json, esc, fnv64, json_str, Cell, CKPT_SCHEMA,
};
use dct_core::{Compiler, Strategy};
use dct_decomp::{CompRow, Decomposition, Folding};
use dct_ir::{FpHasher, Program};
use dct_machine::MachineConfig;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::SystemTime;

/// Version of the cache key derivation. Mixed into every key; bump it
/// whenever the key walk (not the IR walk — that has its own
/// [`dct_ir::FP_SCHEMA`]) changes shape, so stale entries miss cleanly.
pub const CACHE_KEY_SCHEMA: u32 = 2;

// ----------------------------------------------------------------- key --

/// Everything that may influence a cell's simulated result. Build one of
/// these and call [`cell_cache_key`]; there is deliberately no way to
/// feed `fast_path` in.
#[derive(Clone, Debug)]
pub struct KeyInputs<'a> {
    /// The *source* program of the cell (pre-compilation).
    pub prog: &'a Program,
    /// Sweep cell kind: `seq` / `base` / `comp` / `full`.
    pub kind: &'a str,
    /// Processor count of the cell (`seq` forces 1, like the sweep).
    pub procs: usize,
    /// Scale in milli-units ([`crate::sweep::scale_key`]).
    pub scale_milli: i64,
    /// Race detector on (its report joins the cell fingerprint).
    pub race_check: bool,
    /// Memory profiler on (its rows join the cell fingerprint).
    pub profile: bool,
    /// Simulated-cycle budget (a budget changes timeout outcomes).
    pub max_cycles: Option<u64>,
    /// Wall budget, seconds (idem).
    pub max_wall_secs: Option<f64>,
    /// The ablation variant; its machine is resolved and hashed field by
    /// field.
    pub variant: Variant,
}

/// A fully derived cache key: human-readable prefix + content hash.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    pub bench: String,
    pub kind: String,
    pub procs: usize,
    pub hash: u128,
}

impl CacheKey {
    /// Two-hex-digit shard directory (top byte of the hash).
    pub fn shard(&self) -> String {
        format!("{:02x}", (self.hash >> 120) as u8)
    }

    /// Entry file name, unique per key.
    pub fn filename(&self) -> String {
        format!("{}-{}-p{}-{:032x}.json", self.bench, self.kind, self.procs, self.hash)
    }
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}/{:032x}", self.shard(), self.filename(), self.hash)
    }
}

/// The sweep's kind → (strategy, procs) mapping, shared with
/// [`crate::sweep`] so keys and computations can never disagree.
pub fn kind_strategy(kind: &str, procs: usize) -> (Strategy, usize) {
    match kind {
        "seq" => (Strategy::Base, 1),
        "base" => (Strategy::Base, procs),
        "comp" => (Strategy::CompDecomp, procs),
        _ => (Strategy::Full, procs),
    }
}

fn hash_folding(h: &mut FpHasher, f: &Folding) {
    match f {
        Folding::Block => h.write_tag(0x40),
        Folding::Cyclic => h.write_tag(0x41),
        Folding::BlockCyclic { block } => {
            h.write_tag(0x42);
            h.write_i64(*block);
        }
    }
}

fn hash_decomposition(h: &mut FpHasher, d: &Decomposition) {
    h.write_tag(0x43);
    h.write_u64(d.grid_rank as u64);
    h.write_len(d.foldings.len());
    for f in &d.foldings {
        hash_folding(h, f);
    }
    h.write_len(d.comp.len());
    for c in &d.comp {
        h.write_tag(0x44);
        h.write_len(c.rows.len());
        for r in &c.rows {
            match r {
                CompRow::Level(l) => {
                    h.write_tag(0x45);
                    h.write_u64(*l as u64);
                }
                CompRow::Localized(a) => {
                    h.write_tag(0x46);
                    h.add_aff(a);
                }
                CompRow::Unconstrained => h.write_tag(0x47),
            }
        }
        h.write_len(c.parallel_levels.len());
        for &b in &c.parallel_levels {
            h.write_bool(b);
        }
        match c.pipeline_level {
            None => h.write_tag(0x48),
            Some(l) => {
                h.write_tag(0x49);
                h.write_u64(l as u64);
            }
        }
        h.write_u64(c.misaligned_refs as u64);
    }
    h.write_len(d.data.len());
    for a in &d.data {
        h.write_tag(0x4a);
        h.write_len(a.dists.len());
        for dist in &a.dists {
            h.write_u64(dist.dim as u64);
            h.write_u64(dist.proc_dim as u64);
        }
        h.write_bool(a.replicated);
    }
    // `notes` is prose for the optimization report; deliberately excluded.
}

fn hash_machine(h: &mut FpHasher, m: &MachineConfig) {
    // Every field, by name, in declaration order. A new MachineConfig
    // field must be added here (the zoo test below counts fields).
    h.write_tag(0x4b);
    h.write_u64(m.nprocs as u64);
    h.write_u64(m.procs_per_cluster as u64);
    h.write_u64(m.l1_bytes as u64);
    h.write_u64(m.l1_assoc as u64);
    h.write_u64(m.l2_bytes as u64);
    h.write_u64(m.l2_assoc as u64);
    h.write_u64(m.line_bytes as u64);
    h.write_u64(m.page_bytes as u64);
    h.write_u64(m.lat_l1);
    h.write_u64(m.lat_l2);
    h.write_u64(m.lat_local);
    h.write_u64(m.lat_remote);
    h.write_u64(m.lat_remote_dirty);
    h.write_u64(m.lat_invalidate);
    h.write_u64(m.barrier_base);
    h.write_u64(m.barrier_per_proc);
    h.write_u64(m.lock_cost);
}

/// The compile-dependent prefix of a cell key: the hasher state after the
/// transformed IR, the strategy and realized rung, and the concrete
/// decomposition. It is a pure function of (source program, strategy) —
/// nothing else reaches the compiler — which is what lets [`KeyMemo`]
/// keep it across cells.
fn compile_prefix(prog: &Program, strategy: Strategy) -> Result<FpHasher, String> {
    let compiled = Compiler::new(strategy).compile(prog).map_err(|e| e.to_string())?;
    let mut h = FpHasher::new();
    h.write_str("dct-cache-key");
    h.write_u32(CACHE_KEY_SCHEMA);
    h.add_program(&compiled.program);
    h.write_str(strategy.label());
    h.write_str(compiled.rung.label());
    hash_decomposition(&mut h, &compiled.decomposition);
    Ok(h)
}

/// Finish a key from its compile prefix with everything the compiler
/// never sees: machine, processor count, scale, observers, budgets and
/// variant. Every [`KeyInputs`] field but `prog` is read here and only
/// here, for the memoised and the direct derivation alike.
fn finish_key(mut h: FpHasher, bench: &str, inp: &KeyInputs, procs: usize) -> CacheKey {
    hash_machine(&mut h, &inp.variant.machine(procs));
    h.write_u64(procs as u64);
    h.write_i64(inp.scale_milli);
    h.write_bool(inp.race_check);
    h.write_bool(inp.profile);
    match inp.max_cycles {
        None => h.write_tag(0x4c),
        Some(v) => {
            h.write_tag(0x4d);
            h.write_u64(v);
        }
    }
    match inp.max_wall_secs {
        None => h.write_tag(0x4e),
        Some(v) => {
            h.write_tag(0x4f);
            h.write_f64(v);
        }
    }
    // Last, and nothing for `Default`, so a plain cell keeps its key.
    // `LineBytes` also reached the key through the machine above.
    match inp.variant {
        Variant::Default => {}
        Variant::NoAddrOpt => h.write_tag(0x50),
        Variant::NoBarrierElision => h.write_tag(0x51),
        Variant::BlockFolding => h.write_tag(0x52),
        Variant::GridRank1 => h.write_tag(0x53),
        Variant::LineBytes(_) => h.write_tag(0x54),
    }
    CacheKey {
        bench: bench.to_string(),
        kind: inp.kind.to_string(),
        procs,
        hash: h.finish128(),
    }
}

/// Derive the content-addressed key of one cell. Compiles the program
/// (cheap next to simulating it) so the key covers what the simulator
/// will actually run: the transformed IR, the realized rung, and the
/// concrete decomposition — a compiler change that alters any of them
/// changes the key instead of falsely hitting stale entries.
pub fn cell_cache_key(bench: &str, inp: &KeyInputs) -> Result<CacheKey, String> {
    let (strategy, procs) = kind_strategy(inp.kind, inp.procs);
    Ok(finish_key(compile_prefix(inp.prog, strategy)?, bench, inp, procs))
}

/// Entries a [`KeyMemo`] holds before it is cleared (40 bytes each).
const KEY_MEMO_MAX: usize = 4096;

/// Compile prefixes by (source-program fingerprint, strategy), so a
/// long-lived owner (the serve queue) compiles once per program and
/// strategy instead of once per cell. It cannot go stale: the fingerprint
/// covers every `Program` field the compiler reads, the compiler is fixed
/// for the life of the process, and everything else a key depends on is
/// hashed afresh by [`finish_key`]. A failed compile is never stored.
#[derive(Debug, Default)]
pub struct KeyMemo {
    prefixes: Mutex<HashMap<(u128, &'static str), FpHasher>>,
    /// Prefixes derived by compiling (memo misses).
    pub derived: AtomicU64,
    /// Keys finished from a stored prefix.
    pub hits: AtomicU64,
}

impl KeyMemo {
    /// [`cell_cache_key`], bit for bit. `source_fp` is
    /// `dct_ir::program_fingerprint(inp.prog)`, taken by the caller once
    /// per program rather than once per cell.
    pub fn cell_key(
        &self,
        bench: &str,
        source_fp: u128,
        inp: &KeyInputs,
    ) -> Result<CacheKey, String> {
        debug_assert_eq!(source_fp, dct_ir::program_fingerprint(inp.prog));
        let (strategy, procs) = kind_strategy(inp.kind, inp.procs);
        let slot = (source_fp, strategy.label());
        let stored =
            self.prefixes.lock().unwrap_or_else(|e| e.into_inner()).get(&slot).cloned();
        let prefix = match stored {
            Some(h) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                h
            }
            None => {
                // Compiled outside the lock: two racing callers may both
                // compile, and store the same state.
                let h = compile_prefix(inp.prog, strategy)?;
                self.derived.fetch_add(1, Ordering::Relaxed);
                let mut prefixes = self.prefixes.lock().unwrap_or_else(|e| e.into_inner());
                if prefixes.len() >= KEY_MEMO_MAX {
                    prefixes.clear();
                }
                prefixes.insert(slot, h.clone());
                h
            }
        };
        Ok(finish_key(prefix, bench, inp, procs))
    }
}

/// Key of a rendered artifact (explain report): the cell-key machinery
/// over every per-strategy compile, plus an artifact tag, so a report is
/// reusable exactly when all its inputs are.
pub fn artifact_cache_key(
    tag: &str,
    bench: &str,
    prog: &Program,
    procs: usize,
    scale_milli: i64,
) -> Result<CacheKey, String> {
    let mut h = FpHasher::new();
    h.write_str("dct-cache-artifact");
    h.write_u32(CACHE_KEY_SCHEMA);
    h.write_str(tag);
    for kind in ["seq", "base", "comp", "full"] {
        let (strategy, procs) = kind_strategy(kind, procs);
        let compiled = Compiler::new(strategy).compile(prog).map_err(|e| e.to_string())?;
        h.add_program(&compiled.program);
        h.write_str(compiled.rung.label());
        hash_decomposition(&mut h, &compiled.decomposition);
        h.write_u64(procs as u64);
    }
    h.write_i64(scale_milli);
    Ok(CacheKey {
        bench: bench.to_string(),
        kind: tag.to_string(),
        procs,
        hash: h.finish128(),
    })
}

// --------------------------------------------------------------- store --

/// Monotonic counters of one store's lifetime (shared across threads).
#[derive(Debug, Default)]
pub struct CacheStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub inserts: AtomicU64,
    pub evictions: AtomicU64,
    pub corrupt: AtomicU64,
}

impl CacheStats {
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.inserts.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
            self.corrupt.load(Ordering::Relaxed),
        )
    }
}

/// The content-addressed result store.
#[derive(Debug)]
pub struct ResultStore {
    root: PathBuf,
    /// LRU byte budget; `None` = unbounded.
    max_bytes: Option<u64>,
    stats: CacheStats,
}

impl ResultStore {
    /// Open (creating) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>, max_bytes: Option<u64>) -> io::Result<ResultStore> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(ResultStore { root, max_bytes, stats: CacheStats::default() })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// `hits H misses M inserts I evictions E corrupt C` — one line for
    /// logs and the `/api/stats` endpoint.
    pub fn stats_line(&self) -> String {
        let (h, m, i, e, c) = self.stats.snapshot();
        format!("hits {h} misses {m} inserts {i} evictions {e} corrupt {c}")
    }

    fn path_of(&self, key: &CacheKey) -> PathBuf {
        self.root.join(key.shard()).join(key.filename())
    }

    /// Quarantine a bad entry to `<root>/corrupt/`: corrupt data is
    /// preserved for autopsy, never silently deleted or trusted.
    fn quarantine(&self, path: &Path, reason: &str) {
        let cdir = self.root.join("corrupt");
        let _ = std::fs::create_dir_all(&cdir);
        let name = path.file_name().map(|n| n.to_string_lossy().to_string()).unwrap_or_default();
        let moved = std::fs::rename(path, cdir.join(&name)).is_ok();
        eprintln!(
            "[cache: corrupt entry {name}: {reason}{}]",
            if moved { " -> corrupt/" } else { " (could not be moved)" }
        );
        self.stats.corrupt.fetch_add(1, Ordering::Relaxed);
    }

    /// Look a cell up. Verifies the envelope checksum and the identity
    /// fields; anything untrustworthy is quarantined and reported as a
    /// miss.
    pub fn lookup_cell(&self, key: &CacheKey) -> Option<Cell> {
        self.lookup_cell_checked(key, None)
    }

    /// [`ResultStore::lookup_cell`] with the `cache-read-io` fault hook. An
    /// entry that cannot be read (absent, or an IO error) is a miss and
    /// stays where it is: the error may be transient.
    pub fn lookup_cell_checked(&self, key: &CacheKey, inj: Option<&FaultInjector>) -> Option<Cell> {
        let path = self.path_of(key);
        let text = std::fs::read_to_string(&path)
            .ok()
            .filter(|_| !fires(inj, FaultSite::CacheReadIo, &key.filename()));
        let Some(text) = text else {
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        match checkpoint_from_json(&text) {
            Ok(cell) => {
                if cell.bench != key.bench || cell.kind != key.kind || cell.procs != key.procs {
                    self.quarantine(&path, "identity fields disagree with the key");
                    self.stats.misses.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(cell)
            }
            Err(reason) => {
                self.quarantine(&path, &reason);
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a cell (atomic + durable), with the write fault hooks. The
    /// sweep treats an error as an unfinished cell: the attempt is retried
    /// by the ladder.
    pub fn insert_cell(
        &self,
        key: &CacheKey,
        cell: &Cell,
        inj: Option<&FaultInjector>,
    ) -> io::Result<()> {
        self.insert_raw(key, &checkpoint_to_json(cell), inj)
    }

    /// Artifact envelope: same schema/crc64 discipline as cell entries.
    pub fn insert_artifact(
        &self,
        key: &CacheKey,
        text: &str,
        inj: Option<&FaultInjector>,
    ) -> io::Result<()> {
        let body = format!("\"{}\"", esc(text));
        let json = format!(
            "{{\"schema\":{CKPT_SCHEMA},\"crc64\":\"{:016x}\",\"artifact\":{body}}}",
            fnv64(body.as_bytes())
        );
        self.insert_raw(key, &json, inj)
    }

    /// Look an artifact up, verifying its checksum; corrupt entries are
    /// quarantined and miss.
    pub fn lookup_artifact(&self, key: &CacheKey) -> Option<String> {
        let path = self.path_of(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match verify_artifact(&text) {
            Ok(a) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(a)
            }
            Err(reason) => {
                self.quarantine(&path, &reason);
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Write one entry atomically and durably, with the fault hooks of the
    /// write path: an IO error before the temp file exists, a crash
    /// between the temp write and the rename (half the temp file lands;
    /// the retry's own write replaces it), and bit-rot or truncation of
    /// the final file after a clean write (the checksum catches both on
    /// the next look-up).
    fn insert_raw(&self, key: &CacheKey, json: &str, inj: Option<&FaultInjector>) -> io::Result<()> {
        let name = key.filename();
        if fires(inj, FaultSite::CacheWriteIo, &name) {
            return Err(io::Error::other(format!("injected: cache write IO error ({name})")));
        }
        let path = self.path_of(key);
        if fires(inj, FaultSite::CacheTorn, &name) {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)?;
                let _ = std::fs::write(dir.join(format!(".{name}.tmp")), &json.as_bytes()[..json.len() / 2]);
            }
            return Err(io::Error::other(format!("injected: torn temp write, crash before rename ({name})")));
        }
        atomic_write_sync(&path, json.as_bytes())?;
        if fires(inj, FaultSite::CacheBitFlip, &name) {
            let mut bytes = json.as_bytes().to_vec();
            if let Some(b) = bytes.get_mut(json.len() / 2) {
                *b ^= 0x08;
            }
            let _ = std::fs::write(&path, bytes);
        }
        if fires(inj, FaultSite::CacheTruncate, &name) {
            let _ = std::fs::write(&path, &json.as_bytes()[..json.len() / 2]);
        }
        self.stats.inserts.fetch_add(1, Ordering::Relaxed);
        if let Some(budget) = self.max_bytes {
            self.evict_to(budget);
        }
        Ok(())
    }

    /// LRU sweep: delete oldest-touched entries until the store fits in
    /// `budget` bytes. Returns how many entries were evicted. `corrupt/`
    /// is never touched (it is evidence, not cache), and neither is a
    /// dot-file: that is another writer's in-flight temp file, whose
    /// rename would fail if it went.
    pub fn evict_to(&self, budget: u64) -> usize {
        let mut entries: Vec<(PathBuf, SystemTime, u64)> = Vec::new();
        let Ok(shards) = std::fs::read_dir(&self.root) else { return 0 };
        for shard in shards.flatten() {
            let sp = shard.path();
            if !sp.is_dir() || shard.file_name().to_string_lossy() == "corrupt" {
                continue;
            }
            let Ok(files) = std::fs::read_dir(&sp) else { continue };
            for f in files.flatten() {
                let p = f.path();
                if !p.is_file() || f.file_name().to_string_lossy().starts_with('.') {
                    continue;
                }
                if let Ok(md) = f.metadata() {
                    let mtime = md.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                    entries.push((p, mtime, md.len()));
                }
            }
        }
        let mut total: u64 = entries.iter().map(|e| e.2).sum();
        if total <= budget {
            return 0;
        }
        // Oldest first; mtime ties broken by path for determinism.
        entries.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        let mut evicted = 0;
        for (p, _, len) in entries {
            if total <= budget {
                break;
            }
            if std::fs::remove_file(&p).is_ok() {
                total = total.saturating_sub(len);
                evicted += 1;
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        evicted
    }
}

/// Parse + verify an artifact envelope. `Err` carries why the file is
/// untrustworthy.
fn verify_artifact(s: &str) -> Result<String, String> {
    let schema = crate::sweep::json_num(s, "schema").ok_or("schema field unreadable")?;
    if schema != CKPT_SCHEMA {
        return Err(format!("unsupported schema {schema} (this build reads {CKPT_SCHEMA})"));
    }
    let crc = u64::from_str_radix(&json_str(s, "crc64").ok_or("crc64 field unreadable")?, 16)
        .map_err(|_| "crc64 field unreadable".to_string())?;
    let pat = "\"artifact\":";
    let start = s.find(pat).ok_or("artifact body missing")? + pat.len();
    let trimmed = s.trim_end();
    if trimmed.len() <= start + 1 {
        return Err("truncated artifact body".to_string());
    }
    let body = &trimmed[start..trimmed.len() - 1];
    let actual = fnv64(body.as_bytes());
    if actual != crc {
        return Err(format!(
            "content checksum mismatch: stored {crc:016x}, computed {actual:016x} (corrupt entry)"
        ));
    }
    json_str(s, "artifact").ok_or_else(|| "unparseable artifact body".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;
    use crate::sweep::CellOutcome;

    fn stencil_key(kind: &str) -> CacheKey {
        let suite = programs::suite(0.1);
        let b = suite.iter().find(|b| b.name == "stencil").expect("stencil in suite");
        let inp = KeyInputs {
            prog: &b.program,
            kind,
            procs: 8,
            scale_milli: 100,
            race_check: false,
            profile: false,
            max_cycles: None,
            max_wall_secs: None,
            variant: Variant::Default,
        };
        cell_cache_key("stencil", &inp).expect("key derivation")
    }

    /// Golden cache keys: any change to the key walk — IR fingerprint,
    /// decomposition hashing, machine fields, option list — lands here
    /// first, where it can be repinned deliberately (bump
    /// CACHE_KEY_SCHEMA) instead of silently splitting or colliding the
    /// cache.
    #[test]
    fn golden_cache_keys_pinned() {
        let full = stencil_key("full");
        assert_eq!(full.procs, 8);
        assert_eq!(
            full.filename(),
            "stencil-full-p8-909179d77f8a7ed1d6c1bee12528b4a4.json",
            "cache key walk changed; bump CACHE_KEY_SCHEMA and repin deliberately"
        );
        let seq = stencil_key("seq");
        assert_eq!(seq.procs, 1, "seq cells pin procs to 1");
        assert_ne!(full.hash, seq.hash);
        assert_eq!(full.shard().len(), 2);
    }

    /// The key must see result-relevant options and ignore nothing else.
    #[test]
    fn key_sensitivity() {
        let suite = programs::suite(0.1);
        let b = suite.iter().find(|b| b.name == "stencil").expect("stencil");
        let base = KeyInputs {
            prog: &b.program,
            kind: "full",
            procs: 8,
            scale_milli: 100,
            race_check: false,
            profile: false,
            max_cycles: None,
            max_wall_secs: None,
            variant: Variant::Default,
        };
        let k0 = cell_cache_key("stencil", &base).expect("key");
        let mut i = base.clone();
        i.race_check = true;
        assert_ne!(cell_cache_key("stencil", &i).expect("key").hash, k0.hash, "race_check");
        let mut i = base.clone();
        i.profile = true;
        assert_ne!(cell_cache_key("stencil", &i).expect("key").hash, k0.hash, "profile");
        let mut i = base.clone();
        i.max_cycles = Some(1_000_000);
        assert_ne!(cell_cache_key("stencil", &i).expect("key").hash, k0.hash, "max_cycles");
        let mut i = base.clone();
        i.procs = 16;
        assert_ne!(cell_cache_key("stencil", &i).expect("key").hash, k0.hash, "procs");
        let mut i = base.clone();
        i.variant = Variant::LineBytes(64);
        assert_ne!(cell_cache_key("stencil", &i).expect("key").hash, k0.hash, "line bytes");
        // Identical inputs rebuild the identical key (fresh compile).
        assert_eq!(cell_cache_key("stencil", &base).expect("key"), k0);
    }

    /// The ablations' cells never share a key, and their `Default` cells
    /// are the plain Table 1 cells.
    #[test]
    fn variants_never_share_a_key() {
        let suite = programs::suite(0.1);
        let cfg = crate::sweep::SweepConfig::plain(8, 0.1);
        let mut hashes = Vec::new();
        for (bench, kind, variant) in crate::ablate::ablation_cells() {
            let prog = &suite.iter().find(|b| b.name == bench).expect("suite program").program;
            let plain = cfg.key_inputs(prog, kind, 8);
            let inp = KeyInputs { variant, ..plain.clone() };
            let key = cell_cache_key(&variant.label(bench), &inp).expect("key");
            if variant == Variant::Default {
                assert_eq!(key, cell_cache_key(bench, &plain).expect("key"), "{bench}/{kind}");
            }
            assert!(!hashes.contains(&key.hash), "{key} shares a key");
            hashes.push(key.hash);
        }
        assert_eq!(hashes.len(), 11);
    }

    /// The memo changes where a key's compile comes from, never a bit of
    /// the key: whole suite x kinds x procs x observer at two scales, with
    /// the memo cold (first scale pass) and warm (second pass over it).
    #[test]
    fn memoised_keys_equal_direct_keys() {
        let memo = KeyMemo::default();
        let mut direct = 0u64;
        for pass in 0..2 {
            for scale_milli in [250i64, 500] {
                for b in programs::suite(scale_milli as f64 / 1000.0) {
                    let fp = dct_ir::program_fingerprint(&b.program);
                    for kind in crate::sweep::KINDS {
                        for procs in [1usize, 8, 32] {
                            for race_check in [false, true] {
                                let inp = KeyInputs {
                                    prog: &b.program,
                                    kind,
                                    procs,
                                    scale_milli,
                                    race_check,
                                    profile: false,
                                    max_cycles: None,
                                    max_wall_secs: None,
                                    variant: Variant::Default,
                                };
                                let want = cell_cache_key(b.name, &inp).expect("direct key");
                                let got = memo.cell_key(b.name, fp, &inp).expect("memoised key");
                                assert_eq!(got, want, "{}/{kind} p{procs} pass {pass}", b.name);
                                direct += 1;
                            }
                        }
                    }
                }
            }
        }
        // One compile per (program, strategy): `seq` rides on `base`, and
        // procs, the observer and the second pass never compile.
        let derived = memo.derived.load(Ordering::Relaxed);
        assert_eq!(derived, 2 * 7 * 3, "two scales x seven programs x three strategies");
        assert_eq!(derived + memo.hits.load(Ordering::Relaxed), direct);
    }

    /// A program no rung can compile has no key either way, and the memo
    /// keeps nothing of the failure: the next call compiles (and fails)
    /// again instead of answering from a stored state.
    #[test]
    fn failed_compile_is_an_error_both_ways_and_not_memoised() {
        let mut suite = programs::suite(0.05);
        let mut broken = suite.remove(2).program;
        broken.nests[0].bounds[0].los.clear();
        let fp = dct_ir::program_fingerprint(&broken);
        let inp = KeyInputs {
            prog: &broken,
            kind: "full",
            procs: 8,
            scale_milli: 50,
            race_check: false,
            profile: false,
            max_cycles: None,
            max_wall_secs: None,
            variant: Variant::Default,
        };
        let direct = cell_cache_key("stencil", &inp).expect_err("direct derivation fails");
        let memo = KeyMemo::default();
        for _ in 0..2 {
            let err = memo.cell_key("stencil", fp, &inp).expect_err("memoised derivation fails");
            assert_eq!(err, direct);
        }
        assert_eq!(memo.derived.load(Ordering::Relaxed), 0);
        assert_eq!(memo.hits.load(Ordering::Relaxed), 0);
        assert!(memo.prefixes.lock().expect("memo lock").is_empty(), "a failure must not be stored");
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dct-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn sample_cell(n: u64) -> Cell {
        let mut c = Cell::new("stencil", "full", 8, 0.1, CellOutcome::Cycles(n));
        c.checksum_bits = Some(0xabcd_ef01_2345_6789);
        c.fingerprint = Some(n ^ 0xff);
        c
    }

    #[test]
    fn store_roundtrip_and_counters() {
        let dir = tmpdir("roundtrip");
        let store = ResultStore::open(&dir, None).expect("open");
        let key = stencil_key("full");
        assert!(store.lookup_cell(&key).is_none(), "empty store misses");
        let cell = sample_cell(42);
        store.insert_cell(&key, &cell, None).expect("insert");
        let back = store.lookup_cell(&key).expect("hit after insert");
        assert_eq!(back, cell);
        let (h, m, i, e, c) = store.stats.snapshot();
        assert_eq!((h, m, i, e, c), (1, 1, 1, 0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The corruption contract: a flipped bit is detected via crc64, the
    /// entry is quarantined to `corrupt/`, the lookup misses (so the cell
    /// is recomputed), and the corrupt counter ticks.
    #[test]
    fn corrupt_entry_detected_quarantined_recomputed() {
        let dir = tmpdir("corrupt");
        let store = ResultStore::open(&dir, None).expect("open");
        let key = stencil_key("full");
        store.insert_cell(&key, &sample_cell(7), None).expect("insert");
        let path = dir.join(key.shard()).join(key.filename());
        let mut bytes = std::fs::read(&path).expect("read entry");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(&path, &bytes).expect("write corrupted entry");

        assert!(store.lookup_cell(&key).is_none(), "corrupt entry must miss");
        assert!(!path.exists(), "corrupt entry removed from the live tree");
        assert!(
            dir.join("corrupt").join(key.filename()).exists(),
            "corrupt entry preserved under corrupt/"
        );
        assert_eq!(store.stats.corrupt.load(Ordering::Relaxed), 1);

        // Recompute path: a fresh insert over the quarantined name works
        // and the next lookup hits.
        store.insert_cell(&key, &sample_cell(7), None).expect("re-insert");
        assert!(store.lookup_cell(&key).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_eviction_respects_budget() {
        let dir = tmpdir("lru");
        let store = ResultStore::open(&dir, None).expect("open");
        let mut keys = Vec::new();
        for i in 0..6u64 {
            // Distinct hashes: fake keys across shards.
            let key = CacheKey {
                bench: "stencil".into(),
                kind: "full".into(),
                procs: 8,
                hash: (i as u128) << 120 | i as u128,
            };
            store.insert_cell(&key, &sample_cell(i), None).expect("insert");
            keys.push(key);
        }
        let one_entry = std::fs::metadata(dir.join(keys[5].shard()).join(keys[5].filename()))
            .expect("entry metadata")
            .len();
        let evicted = store.evict_to(one_entry * 3);
        assert!(evicted >= 3, "evicted {evicted} of 6 with a 3-entry budget");
        let remaining: usize =
            keys.iter().filter(|k| dir.join(k.shard()).join(k.filename()).exists()).count();
        assert!(remaining <= 3, "{remaining} entries left over budget");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_spares_in_flight_temp_files() {
        let dir = tmpdir("lru-tmp");
        let store = ResultStore::open(&dir, None).expect("open");
        let key = stencil_key("full");
        store.insert_cell(&key, &sample_cell(1), None).expect("insert");
        let tmp = dir.join(key.shard()).join(".x.tmp");
        std::fs::write(&tmp, b"another writer's half-written entry").expect("temp file");
        assert_eq!(store.evict_to(0), 1, "only the entry counts");
        assert!(tmp.exists(), "an in-flight temp file was evicted");
        assert!(!dir.join(key.shard()).join(key.filename()).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_write_io_fault_surfaces_as_error() {
        use crate::chaos::{Fault, FaultPlan};
        let dir = tmpdir("fault");
        let store = ResultStore::open(&dir, None).expect("open");
        let plan = FaultPlan {
            seed: 0,
            faults: vec![Fault { site: FaultSite::CacheWriteIo, occurrence: 0 }],
        };
        let inj = FaultInjector::new(&plan);
        let key = stencil_key("full");
        let err = store.insert_cell(&key, &sample_cell(1), Some(&inj)).expect_err("fault fires");
        assert!(err.to_string().contains("cache write IO"), "{err}");
        // Consumed once: the retry succeeds.
        store.insert_cell(&key, &sample_cell(1), Some(&inj)).expect("retry clean");
        assert!(store.lookup_cell(&key).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifact_roundtrip_and_corruption() {
        let dir = tmpdir("artifact");
        let store = ResultStore::open(&dir, None).expect("open");
        let suite = programs::suite(0.1);
        let b = suite.iter().find(|b| b.name == "stencil").expect("stencil");
        let key = artifact_cache_key("explain", "stencil", &b.program, 8, 100).expect("key");
        let text = "why is this slow\nline two\t\"quoted\"";
        store.insert_artifact(&key, text, None).expect("insert");
        assert_eq!(store.lookup_artifact(&key).as_deref(), Some(text));

        let path = dir.join(key.shard()).join(key.filename());
        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() - 4;
        bytes[mid] ^= 0x02;
        std::fs::write(&path, &bytes).expect("corrupt");
        assert!(store.lookup_artifact(&key).is_none(), "corrupt artifact must miss");
        assert!(dir.join("corrupt").join(key.filename()).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
