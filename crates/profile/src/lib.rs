//! # dct-profile
//!
//! The memory-behavior profiler: turns the DASH simulator's per-access
//! outcomes (via [`dct_machine::MemProbe`]) into an explainable
//! [`dct_ir::MemProfile`] — every reference attributed to the loop nest
//! that issued it, the array it touched, and the issuing processor, with
//! misses classified as cold / capacity / conflict / coherence and
//! coherence misses split into **true vs false sharing**.
//!
//! ## Classification algorithm
//!
//! Per processor the profiler keeps:
//!
//! - a fully-associative LRU **shadow cache** of L1 line capacity (an
//!   intrusive recency list over a slab);
//! - a **touched** set of lines this processor has ever referenced;
//! - an **invalidated** table `line -> word` recording, for each line a
//!   coherence action removed from this processor's caches, the
//!   byte-in-line the invalidating store wrote.
//!
//! All per-line state is direct-indexed by line number (the executor
//! packs arrays into a compact address space); rare lines beyond the
//! dense bound spill to hash maps.
//!
//! Shared across processors, a **write-generation** map `line ->
//! (writer, word mask)` tracks which words the current exclusive owner
//! has stored since it took the line: the mask resets whenever a store
//! from a different processor begins a new generation and ORs in a bit
//! per 4-byte word otherwise.
//!
//! Every access (hit or miss) refreshes the shadow; the touched set is
//! maintained on misses only (the caches are per-processor, so a line
//! can only hit after this processor's own first access missed). A miss
//! (both cache levels missed; the machine went to memory) is classified
//! in priority order:
//!
//! 1. line never touched → **cold**;
//! 2. line is in the invalidated map (entry consumed) → **coherence**,
//!    split by the write-generation mask: the missing word was stored by
//!    the owner during the current generation → **true sharing** (the
//!    processor is reading/overwriting genuinely communicated data),
//!    otherwise → **false sharing** — the miss exists only because two
//!    unrelated words share a line (falls back to comparing against the
//!    single invalidating word when no generation is recorded);
//! 3. line still in the shadow → **conflict** (a fully-associative cache
//!    of equal capacity would have hit: a direct-mapped artifact);
//! 4. otherwise → **capacity**.
//!
//! Exactly one class is charged per miss, so per row
//! `cold + capacity + conflict + coh_true + coh_false == misses` — the
//! conservation law the property tests pin.
//!
//! The profiler is a pure observer: it receives each access's
//! already-decided outcome and cost, so profiled runs are cycle-identical
//! to unprofiled ones (also pinned by tests).
//!
//! ## Time-step replay
//!
//! Everything above is a deterministic function of the state listed and
//! the event stream, so a profiled run can replay a repeating time step
//! (`dct_spmd::replay`): [`Profiler::boundary_digest`] stands for the
//! state at a step boundary, and the executor records what each nest adds
//! to its site's rows ([`Profiler::site_range`]) and adds it back
//! ([`Profiler::add_site_rows`]) for every step it does not send here.

#![allow(clippy::needless_range_loop)]

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use dct_ir::{MemProfile, MemRow};
use dct_machine::{AccessLevel, MemProbe, StateDigest};

/// Multiply-shift hasher for u64 keys (line numbers). The default SipHash
/// is needlessly slow for the millions of lookups classification performs.
#[derive(Default)]
struct FastHash(u64);

impl Hasher for FastHash {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
    fn write_u64(&mut self, x: u64) {
        let h = x.wrapping_mul(0x9E3779B97F4A7C15);
        self.0 = h ^ (h >> 29);
    }
}

type FastMap<V> = HashMap<u64, V, BuildHasherDefault<FastHash>>;

/// Hash of one `line -> val` table entry. The running table hashes below
/// are wrapping sums of these over the non-empty entries, so they do not
/// depend on the order in which entries came to be, an entry is taken out
/// by subtracting what it put in, and dense tables and spill maps hash
/// alike.
#[inline]
fn entry_hash(line: u64, val: u64) -> u64 {
    let m = (line ^ 0x9E37_79B9_7F4A_7C15) as u128 * (val ^ 0xD6E8_FEB8_6659_FD93) as u128;
    m as u64 ^ (m >> 64) as u64
}

/// [`entry_hash`] of a write-generation entry (`code` is `writer + 1`).
#[inline]
fn gen_entry_hash(line: u64, code: u32, mask: u64) -> u64 {
    entry_hash(entry_hash(line, code as u64), mask)
}

/// Lines below this bound (64 MB of address space) get dense per-line
/// state tables; anything beyond spills to hash maps. The executor packs
/// all arrays from page 1 up, so real programs sit far below the cap —
/// dense tables are zero-allocated (untouched pages stay unmapped) and
/// use `+1` sentinel encodings so a calloc'd page means "empty".
const LIMIT_CAP: u64 = 1 << 22;

/// Recency-list node of the per-processor shadow cache.
struct Node {
    line: u64,
    prev: u32,
    next: u32,
}

const NIL: u32 = u32::MAX;

/// Classifier state for one processor. The profiler observes every
/// memory reference of a profiled run, so per-line state (shadow-cache
/// residency, touched set, pending invalidations) is direct-indexed by
/// line number — a hash lookup per access was the bulk of profiling
/// overhead.
struct ProcState {
    /// Shadow-cache line capacity.
    cap: usize,
    /// Recency slab: an intrusive doubly-linked LRU list.
    nodes: Vec<Node>,
    head: u32,
    tail: u32,
    /// Dense-table bound (lines `< limit` use the vectors below).
    limit: usize,
    /// line -> shadow slot + 1; 0 = not resident.
    slot_of: Vec<u32>,
    /// Bit per line: ever referenced. Maintained on misses only — the
    /// caches are per-processor, so a hit implies an earlier miss.
    touched: Vec<u64>,
    /// line -> invalidating store's byte-in-line + 1; 0 = none pending.
    inval: Vec<u32>,
    /// Spill maps for lines `>= limit` (same encodings where `+1` applies).
    sp_slot: FastMap<u32>,
    sp_touched: FastMap<()>,
    sp_inval: FastMap<u32>,
    /// The line of this processor's previous access and its array slot: a
    /// repeat *hit* on it is already MRU in the shadow and in the touched
    /// set, so all classification bookkeeping can be skipped (the common
    /// case — consecutive words of one cache line).
    last_line: u64,
    last_array: u32,
    /// Size of the touched set and the sum of `entry_hash(line, 0)` over
    /// it; the sum of [`entry_hash`] over the pending invalidations. Kept
    /// where an entry changes, because a time-step boundary cannot afford
    /// to scan `limit` entries per processor (see
    /// [`Profiler::boundary_digest`]).
    touched_count: u64,
    touched_hash: u64,
    inval_hash: u64,
}

impl ProcState {
    fn new(cap: usize, limit: usize) -> ProcState {
        ProcState {
            cap: cap.max(1),
            nodes: Vec::with_capacity(cap.max(1).min(1 << 16)),
            head: NIL,
            tail: NIL,
            limit,
            slot_of: vec![0; limit],
            touched: vec![0; limit.div_ceil(64)],
            inval: vec![0; limit],
            sp_slot: FastMap::default(),
            sp_touched: FastMap::default(),
            sp_inval: FastMap::default(),
            last_line: u64::MAX,
            last_array: 0,
            touched_count: 0,
            touched_hash: 0,
            inval_hash: 0,
        }
    }

    #[inline]
    fn slot(&self, line: u64) -> u32 {
        if (line as usize) < self.limit {
            // 0 ("empty") wraps to NIL.
            self.slot_of[line as usize].wrapping_sub(1)
        } else {
            self.sp_slot.get(&line).copied().unwrap_or(NIL)
        }
    }

    #[inline]
    fn set_slot(&mut self, line: u64, slot: u32) {
        if (line as usize) < self.limit {
            // NIL ("clear") wraps to 0.
            self.slot_of[line as usize] = slot.wrapping_add(1);
        } else if slot == NIL {
            self.sp_slot.remove(&line);
        } else {
            self.sp_slot.insert(line, slot);
        }
    }

    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, slot: u32) {
        let old_head = self.head;
        let n = &mut self.nodes[slot as usize];
        n.prev = NIL;
        n.next = old_head;
        if old_head != NIL {
            self.nodes[old_head as usize].prev = slot;
        } else {
            self.tail = slot;
        }
        self.head = slot;
    }

    /// Refresh the shadow's recency for `line` (insert + LRU-evict when
    /// absent); returns whether it was resident *before* the refresh —
    /// exactly the conflict-miss test.
    fn touch_shadow(&mut self, line: u64) -> bool {
        let slot = self.slot(line);
        if slot != NIL {
            if self.head != slot {
                self.unlink(slot);
                self.push_front(slot);
            }
            return true;
        }
        let slot = if self.nodes.len() < self.cap {
            let s = self.nodes.len() as u32;
            self.nodes.push(Node { line, prev: NIL, next: NIL });
            s
        } else {
            // Full: evict the LRU tail and reuse its slot.
            let s = self.tail;
            let victim = self.nodes[s as usize].line;
            self.set_slot(victim, NIL);
            self.unlink(s);
            self.nodes[s as usize].line = line;
            s
        };
        self.push_front(slot);
        self.set_slot(line, slot);
        false
    }

    /// Test-and-set the touched bit; returns the prior value.
    fn note_touched(&mut self, line: u64) -> bool {
        let was = if (line as usize) < self.limit {
            let (w, b) = ((line as usize) >> 6, 1u64 << (line & 63));
            let was = self.touched[w] & b != 0;
            self.touched[w] |= b;
            was
        } else {
            self.sp_touched.insert(line, ()).is_some()
        };
        if !was {
            self.touched_count += 1;
            self.touched_hash = self.touched_hash.wrapping_add(entry_hash(line, 0));
        }
        was
    }

    /// Consume a pending invalidation; returns word + 1 (0 = none).
    fn take_inval(&mut self, line: u64) -> u32 {
        let code = if (line as usize) < self.limit {
            std::mem::take(&mut self.inval[line as usize])
        } else {
            self.sp_inval.remove(&line).unwrap_or(0)
        };
        if code != 0 {
            self.inval_hash = self.inval_hash.wrapping_sub(entry_hash(line, code as u64));
        }
        code
    }

    fn set_inval(&mut self, line: u64, word: u32) {
        let code = word + 1;
        let old = if (line as usize) < self.limit {
            std::mem::replace(&mut self.inval[line as usize], code)
        } else {
            self.sp_inval.insert(line, code).unwrap_or(0)
        };
        if old != code {
            if old != 0 {
                self.inval_hash = self.inval_hash.wrapping_sub(entry_hash(line, old as u64));
            }
            self.inval_hash = self.inval_hash.wrapping_add(entry_hash(line, code as u64));
        }
    }

    /// The shadow's lines from most to least recently used. Line numbers,
    /// never slab slots: which slot a line sits in records the order of
    /// past evictions and decides nothing about a later one.
    fn recency(&self) -> impl Iterator<Item = u64> + '_ {
        let mut slot = self.head;
        std::iter::from_fn(move || {
            let n = self.nodes.get(slot as usize)?;
            slot = n.next;
            Some(n.line)
        })
    }
}

/// The words the current exclusive owner has stored to a line since it
/// took ownership. One bit per 4-byte word; reset on ownership change.
struct WriteGen {
    writer: u32,
    mask: u64,
}

#[inline]
fn word_bit(word: u32) -> u64 {
    1u64 << ((word >> 2) & 63)
}

/// One address range owned by an array, in line numbers.
#[derive(Clone, Copy, Debug)]
pub struct LineRange {
    /// First line of the array's allocation.
    pub start: u64,
    /// One past the last line.
    pub end: u64,
    /// Index of the owning array (into the executor's array table).
    pub array: usize,
}

/// Accumulates a [`MemProfile`] from [`MemProbe`] events.
///
/// The executor owns one of these when `SimOptions::profile` is set,
/// points `set_site` at each nest before running it, and passes the
/// profiler to `Machine::access_probed` on every reference.
pub struct Profiler {
    nprocs: usize,
    /// Arrays + one trailing "(other)" bucket for unmapped lines.
    slots: usize,
    site: usize,
    nsites: usize,
    /// Sorted by `start`; disjoint. Lines outside every range fall into
    /// the "(other)" bucket, so attribution can never fail.
    ranges: Vec<LineRange>,
    procs: Vec<ProcState>,
    /// Dense-table bound shared with every `ProcState`.
    limit: usize,
    /// line -> current write generation (shared across processors):
    /// dense `writer + 1` (0 = none) / mask pair below `limit`, hash
    /// spill above it.
    gen_writer: Vec<u32>,
    gen_mask: Vec<u64>,
    gens: FastMap<WriteGen>,
    /// Sum of [`gen_entry_hash`] over the generations in the tables above
    /// (the buffered one below counts once flushed).
    gen_hash: u64,
    /// Buffered generation for the line currently being stored to — the
    /// common sequential-store case pays no table op per write. Flushed
    /// when a store moves to a different line; classification checks the
    /// buffer before the tables. `u64::MAX` = empty.
    wline: u64,
    wproc: u32,
    wmask: u64,
    /// Dense `[site][array-slot][proc]` counters.
    rows: Vec<MemRow>,
}

impl Profiler {
    /// `l1_lines` is the line capacity of the shadow cache (the machine's
    /// L1 size in lines); `nsites` the number of attribution sites (init
    /// nests + compute nests); `narrays` the array count. `ranges` maps
    /// line numbers to arrays and need not cover the address space.
    pub fn new(nprocs: usize, nsites: usize, narrays: usize, l1_lines: usize, mut ranges: Vec<LineRange>) -> Profiler {
        ranges.sort_by_key(|r| r.start);
        ranges.retain(|r| r.array < narrays && r.end > r.start);
        let slots = narrays + 1;
        let nsites = nsites.max(1);
        let limit = ranges.iter().map(|r| r.end).max().unwrap_or(0).min(LIMIT_CAP) as usize;
        let procs =
            (0..nprocs.max(1)).map(|_| ProcState::new(l1_lines.max(1), limit)).collect();
        Profiler {
            nprocs: nprocs.max(1),
            slots,
            site: 0,
            nsites,
            ranges,
            procs,
            limit,
            gen_writer: vec![0; limit],
            gen_mask: vec![0; limit],
            gens: FastMap::default(),
            gen_hash: 0,
            wline: u64::MAX,
            wproc: 0,
            wmask: 0,
            rows: vec![MemRow::default(); nsites * slots * nprocs.max(1)],
        }
    }

    /// Materialize the buffered write generation into the tables. The
    /// buffer stays live and keeps shadowing the entry it wrote, so a flush
    /// at any moment changes no later classification.
    fn flush_gen(&mut self) {
        if self.wline == u64::MAX {
            return;
        }
        let (line, code, mask) = (self.wline, self.wproc + 1, self.wmask);
        let (old_code, old_mask) = if (line as usize) < self.limit {
            (
                std::mem::replace(&mut self.gen_writer[line as usize], code),
                std::mem::replace(&mut self.gen_mask[line as usize], mask),
            )
        } else {
            match self.gens.insert(line, WriteGen { writer: self.wproc, mask }) {
                Some(g) => (g.writer + 1, g.mask),
                None => (0, 0),
            }
        };
        // A repeating time step rewrites each line's generation as it was.
        if (old_code, old_mask) != (code, mask) {
            if old_code != 0 {
                self.gen_hash = self.gen_hash.wrapping_sub(gen_entry_hash(line, old_code, old_mask));
            }
            self.gen_hash = self.gen_hash.wrapping_add(gen_entry_hash(line, code, mask));
        }
    }

    /// A digest of everything that decides how a later event is
    /// classified, taken at a time-step boundary (`dct_spmd::replay` folds
    /// it into the machine's): per processor the shadow's recency order,
    /// the touched set, the pending invalidations and the previous line;
    /// shared, the write generations with the buffered one flushed first.
    /// Two profilers with equal digests add the same counts to their rows
    /// for the same stream of events. The rows themselves and the current
    /// site are outputs, not state, and stay out.
    ///
    /// The shadow is walked (at most the L1's line count per processor);
    /// the per-line tables are `limit` entries per processor and are
    /// carried as running hashes instead.
    pub fn boundary_digest(&mut self) -> u128 {
        self.flush_gen();
        let mut d = StateDigest::default();
        for p in &self.procs {
            d.word(p.nodes.len() as u64);
            p.recency().for_each(|line| d.word(line));
            for w in [p.touched_count, p.touched_hash, p.inval_hash, p.last_line, p.last_array as u64] {
                d.word(w);
            }
        }
        for w in [self.gen_hash, self.wline, self.wproc as u64, self.wmask] {
            d.word(w);
        }
        d.finish()
    }

    /// The state [`Profiler::boundary_digest`] stands for, scanned in full
    /// and in one canonical order: debug builds compare these whenever two
    /// digests match, so that a replay taken under `cargo test` is proved
    /// a true recurrence. Variable-length sections end in `u64::MAX`.
    #[cfg(debug_assertions)]
    pub fn state_image(&mut self) -> Vec<u64> {
        /// `[line, value, extra]` entries: the non-empty dense ones in
        /// line order, then the spilled ones sorted.
        type Entry = [u64; 3];
        fn section(v: &mut Vec<u64>, dense: impl Iterator<Item = Entry>, spill: impl Iterator<Item = Entry>) {
            v.extend(dense.filter(|e| e[1] != 0).flatten());
            let mut spill: Vec<Entry> = spill.collect();
            spill.sort_unstable();
            v.extend(spill.into_iter().flatten());
            v.push(u64::MAX);
        }
        self.flush_gen();
        let mut v = Vec::new();
        for p in &self.procs {
            v.extend(p.recency());
            v.push(u64::MAX);
            v.extend_from_slice(&p.touched);
            section(&mut v, std::iter::empty(), p.sp_touched.keys().map(|&l| [l, 1, 0]));
            section(
                &mut v,
                p.inval.iter().enumerate().map(|(l, &c)| [l as u64, c as u64, 0]),
                p.sp_inval.iter().map(|(&l, &c)| [l, c as u64, 0]),
            );
            v.extend([p.last_line, p.last_array as u64]);
        }
        section(
            &mut v,
            (self.gen_writer.iter().zip(&self.gen_mask).enumerate())
                .map(|(l, (&c, &m))| [l as u64, c as u64, m]),
            self.gens.iter().map(|(&l, g)| [l, g.writer as u64 + 1, g.mask]),
        );
        v.extend([self.wline, self.wproc as u64, self.wmask]);
        v
    }

    /// Bytes of the per-line tables, the shadow slabs and the counter
    /// rows as allocated (not resident: untouched pages of a dense table
    /// stay unmapped). Telemetry only.
    pub fn table_bytes(&self) -> u64 {
        let per_proc: usize = self
            .procs
            .iter()
            .map(|p| {
                (p.slot_of.len() + p.inval.len()) * 4
                    + p.touched.len() * 8
                    + p.nodes.capacity() * std::mem::size_of::<Node>()
            })
            .sum();
        let shared = self.gen_writer.len() * 4
            + self.gen_mask.len() * 8
            + self.rows.len() * std::mem::size_of::<MemRow>();
        (per_proc + shared) as u64
    }

    /// Every counter row, dense `[site][array-slot][proc]`.
    pub fn rows(&self) -> &[MemRow] {
        &self.rows
    }

    /// Where the current site's rows sit in [`Profiler::rows`]: the only
    /// rows an event can change until the next `set_site`.
    pub fn site_range(&self) -> std::ops::Range<usize> {
        let n = self.slots * self.nprocs;
        self.site * n..(self.site + 1) * n
    }

    /// Add `deltas` (one per row of the current site, in order) to the
    /// current site's rows: a replayed nest's counts.
    pub fn add_site_rows(&mut self, deltas: &[MemRow]) {
        let range = self.site_range();
        for (r, d) in self.rows[range].iter_mut().zip(deltas) {
            r.absorb(d);
        }
    }

    /// Attribute subsequent events to site `site` (clamped to range).
    pub fn set_site(&mut self, site: usize) {
        self.site = site.min(self.nsites - 1);
    }

    #[inline]
    fn array_of(&self, line: u64) -> usize {
        let i = self.ranges.partition_point(|r| r.start <= line);
        if i > 0 {
            let r = self.ranges[i - 1];
            if line < r.end {
                return r.array;
            }
        }
        self.slots - 1 // "(other)"
    }

    #[inline]
    fn row(&mut self, array: usize, proc: usize) -> &mut MemRow {
        let idx = (self.site * self.slots + array.min(self.slots - 1)) * self.nprocs + proc.min(self.nprocs - 1);
        // idx is in bounds by construction of `rows`.
        &mut self.rows[idx]
    }

    /// Extract the profile. `sites` are the attribution-site labels (init
    /// nests first, `init_sites` of them, then compute nests) and `arrays`
    /// the array names; both may be shorter than the profiler's tables —
    /// missing labels render as `?`. Only nonzero cells are emitted.
    pub fn snapshot(&self, sites: Vec<String>, init_sites: usize, mut arrays: Vec<String>) -> MemProfile {
        let other_used = self
            .rows
            .iter()
            .enumerate()
            .any(|(i, r)| (i / self.nprocs) % self.slots == self.slots - 1 && r.accesses + r.invalidations > 0);
        arrays.truncate(self.slots - 1);
        while arrays.len() < self.slots - 1 {
            arrays.push(format!("arr{}", arrays.len()));
        }
        if other_used {
            arrays.push("(other)".to_string());
        }
        let mut rows = Vec::new();
        for (i, r) in self.rows.iter().enumerate() {
            if r.accesses == 0 && r.invalidations == 0 {
                continue;
            }
            let proc = i % self.nprocs;
            let array = (i / self.nprocs) % self.slots;
            let site = i / (self.nprocs * self.slots);
            let mut row = *r;
            row.site = site;
            row.array = array;
            row.proc = proc;
            rows.push(row);
        }
        MemProfile { sites, init_sites, arrays, nprocs: self.nprocs, rows }
    }
}

impl MemProbe for Profiler {
    fn access(&mut self, proc: usize, line: u64, word: u32, write: bool, level: AccessLevel, cost: u64) {
        let pi = proc.min(self.nprocs - 1);
        let (last_line, last_array) = match self.procs.get(pi) {
            Some(p) => (p.last_line, p.last_array),
            None => return,
        };
        let is_miss = level.is_miss();
        // A repeat hit on this processor's previous line skips all
        // classification bookkeeping: the line is already MRU in the
        // shadow and present in the touched set, and a hit consumes no
        // invalidation record — nothing can change.
        let repeat_hit = line == last_line && !is_miss;
        let array = if repeat_hit { last_array as usize } else { self.array_of(line) };
        let (mut cold, mut capacity, mut conflict, mut coh_true, mut coh_false) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        if !repeat_hit {
            if let Some(p) = self.procs.get_mut(pi) {
                // One shadow op per access: `touch_shadow` reports
                // presence *before* the refresh — the conflict test.
                let in_shadow = p.touch_shadow(line);
                if is_miss {
                    if !p.note_touched(line) {
                        cold = 1;
                    } else {
                        let iw = p.take_inval(line);
                        if iw != 0 {
                            // True sharing iff the missing word was stored
                            // by the owner during the current write
                            // generation (buffer first: it shadows any
                            // flushed table entry); with no generation
                            // recorded, fall back to comparing against the
                            // single invalidating word.
                            let truly = if line == self.wline {
                                self.wmask & word_bit(word) != 0
                            } else if (line as usize) < self.limit {
                                match self.gen_writer[line as usize] {
                                    0 => iw == word + 1,
                                    _ => self.gen_mask[line as usize] & word_bit(word) != 0,
                                }
                            } else {
                                match self.gens.get(&line) {
                                    Some(g) => g.mask & word_bit(word) != 0,
                                    None => iw == word + 1,
                                }
                            };
                            if truly {
                                coh_true = 1;
                            } else {
                                coh_false = 1;
                            }
                        } else if in_shadow {
                            conflict = 1;
                        } else {
                            capacity = 1;
                        }
                    }
                }
                p.last_line = line;
                p.last_array = array as u32;
            }
        }
        if write {
            let bit = word_bit(word);
            if line == self.wline && proc as u32 == self.wproc {
                self.wmask |= bit;
            } else {
                // Line (or writer) changed: flush the old buffer, then
                // seed the new one — continuing the recorded generation if
                // the same processor still owns it, else a fresh one
                // (ownership change resets the mask).
                self.flush_gen();
                let (gw, gm) = if (line as usize) < self.limit {
                    (self.gen_writer[line as usize], self.gen_mask[line as usize])
                } else {
                    match self.gens.get(&line) {
                        Some(g) => (g.writer + 1, g.mask),
                        None => (0, 0),
                    }
                };
                self.wmask = if gw == proc as u32 + 1 { gm | bit } else { bit };
                self.wline = line;
                self.wproc = proc as u32;
            }
        }
        let r = self.row(array, proc);
        r.accesses += 1;
        r.mem_cycles += cost;
        match level {
            AccessLevel::L1 => r.l1_hits += 1,
            AccessLevel::L2 => r.l2_hits += 1,
            AccessLevel::LocalMem => r.local_mem += 1,
            AccessLevel::RemoteMem => r.remote_mem += 1,
            AccessLevel::RemoteDirty => r.remote_dirty += 1,
        }
        r.cold += cold;
        r.capacity += capacity;
        r.conflict += conflict;
        r.coh_true += coh_true;
        r.coh_false += coh_false;
    }

    fn invalidated(&mut self, victim: usize, line: u64, _writer: usize, word: u32) {
        let array = self.array_of(line);
        if let Some(p) = self.procs.get_mut(victim.min(self.nprocs - 1)) {
            p.set_inval(line, word);
            if p.last_line == line {
                // The victim's next touch of this line is a coherence
                // miss; it must not take the repeat-hit shortcut.
                p.last_line = u64::MAX;
            }
        }
        self.row(array, victim).invalidations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(nprocs: usize) -> Profiler {
        Profiler::new(
            nprocs,
            2,
            2,
            4,
            vec![LineRange { start: 10, end: 20, array: 0 }, LineRange { start: 20, end: 30, array: 1 }],
        )
    }

    #[test]
    fn attribution_by_line_range() {
        let p = mk(1);
        assert_eq!(p.array_of(10), 0);
        assert_eq!(p.array_of(19), 0);
        assert_eq!(p.array_of(20), 1);
        assert_eq!(p.array_of(29), 1);
        assert_eq!(p.array_of(9), 2, "below every range -> (other)");
        assert_eq!(p.array_of(30), 2, "above every range -> (other)");
    }

    #[test]
    fn cold_capacity_conflict_classification() {
        let mut p = mk(1);
        // Cold miss.
        p.access(0, 10, 0, false, AccessLevel::LocalMem, 100);
        // Evict 10 from the 4-line shadow via 4 more lines.
        for l in 11..15 {
            p.access(0, l, 0, false, AccessLevel::LocalMem, 100);
        }
        // 10 is out of the shadow: capacity. 14 still in: conflict.
        p.access(0, 10, 0, false, AccessLevel::LocalMem, 100);
        p.access(0, 14, 0, false, AccessLevel::LocalMem, 100);
        let prof = p.snapshot(vec!["a".into(), "b".into()], 0, vec!["A".into(), "B".into()]);
        let t = prof.total();
        assert_eq!(t.cold, 5);
        assert_eq!(t.capacity, 1);
        assert_eq!(t.conflict, 1);
        assert_eq!(t.classified(), t.misses());
        assert_eq!(t.mem_cycles, 700);
    }

    #[test]
    fn sharing_split_by_word() {
        let mut p = mk(2);
        // Both procs pull line 10 (cold).
        p.access(0, 10, 0, false, AccessLevel::LocalMem, 100);
        p.access(1, 10, 8, false, AccessLevel::RemoteMem, 130);
        // Proc 1 writes word 8 -> proc 0 invalidated.
        p.invalidated(0, 10, 1, 8);
        // Proc 0 re-reads word 8: true sharing.
        p.access(0, 10, 8, false, AccessLevel::RemoteDirty, 132);
        // Proc 1 writes word 4 -> proc 0 invalidated; proc 0 reads word 0:
        // false sharing.
        p.invalidated(0, 10, 1, 4);
        p.access(0, 10, 0, false, AccessLevel::RemoteDirty, 132);
        let prof = p.snapshot(vec!["a".into(), "b".into()], 0, vec!["A".into(), "B".into()]);
        let t = prof.total();
        assert_eq!(t.coh_true, 1);
        assert_eq!(t.coh_false, 1);
        assert_eq!(t.invalidations, 2);
        assert_eq!(t.classified(), t.misses());
        assert!(t.remote_fraction() > 0.5);
    }

    #[test]
    fn sharing_split_by_write_generation_mask() {
        let mut p = mk(2);
        // Both procs pull line 10 (cold).
        p.access(0, 10, 0, false, AccessLevel::LocalMem, 100);
        p.access(1, 10, 0, false, AccessLevel::RemoteMem, 130);
        // Proc 1 stores words 0 and 4: the first store invalidates proc 0
        // (recording word 0), the second is a silent exclusive hit that
        // only grows the generation mask.
        p.invalidated(0, 10, 1, 0);
        p.access(1, 10, 0, true, AccessLevel::L1, 1);
        p.access(1, 10, 4, true, AccessLevel::L1, 1);
        // Proc 0 re-reads word 4: written this generation -> true sharing
        // (the single-invalidating-word heuristic would say false).
        p.access(0, 10, 4, false, AccessLevel::RemoteDirty, 132);
        // Proc 1 stores word 8; proc 0 reads word 12: never written this
        // generation -> false sharing.
        p.invalidated(0, 10, 1, 8);
        p.access(1, 10, 8, true, AccessLevel::L1, 1);
        p.access(0, 10, 12, false, AccessLevel::RemoteDirty, 132);
        // A store by proc 0 starts a new generation: the mask resets.
        p.access(0, 10, 12, true, AccessLevel::L1, 1);
        p.invalidated(1, 10, 0, 12);
        p.access(1, 10, 4, false, AccessLevel::RemoteDirty, 132);
        let prof = p.snapshot(vec!["a".into(), "b".into()], 0, vec!["A".into(), "B".into()]);
        let t = prof.total();
        assert_eq!(t.coh_true, 1);
        assert_eq!(t.coh_false, 2, "word 12 then stale word 4 after reset");
        assert_eq!(t.classified(), t.misses());
    }

    #[test]
    fn hits_keep_shadow_warm_and_sites_separate() {
        let mut p = mk(1);
        p.set_site(0);
        p.access(0, 10, 0, false, AccessLevel::LocalMem, 100); // cold
        p.access(0, 10, 0, false, AccessLevel::L1, 1);
        p.set_site(1);
        p.access(0, 20, 0, false, AccessLevel::L2, 10); // L2 hit: not a miss
        let prof = p.snapshot(vec!["s0".into(), "s1".into()], 1, vec!["A".into(), "B".into()]);
        assert_eq!(prof.rows.len(), 2);
        assert_eq!(prof.rows[0].site, 0);
        assert_eq!(prof.rows[0].array, 0);
        assert_eq!(prof.rows[0].l1_hits, 1);
        assert_eq!(prof.rows[1].site, 1);
        assert_eq!(prof.rows[1].array, 1);
        assert_eq!(prof.rows[1].l2_hits, 1);
        let t = prof.total();
        assert_eq!(t.classified(), t.misses());
        assert!(!prof.arrays.iter().any(|a| a == "(other)"), "no unmapped access");
    }

    #[test]
    fn unmapped_lines_land_in_other_bucket() {
        let mut p = mk(1);
        p.access(0, 999, 0, false, AccessLevel::LocalMem, 100);
        let prof = p.snapshot(vec!["a".into(), "b".into()], 0, vec!["A".into(), "B".into()]);
        assert_eq!(prof.arrays.last().map(|s| s.as_str()), Some("(other)"));
        assert_eq!(prof.rows[0].array, 2);
    }

    /// Hits walk the shadow without touching the touched set, so two
    /// profilers can be steered to one recency order along different
    /// eviction histories.
    fn hit(p: &mut Profiler, proc: usize, line: u64) {
        p.access(proc, line, 0, false, AccessLevel::L1, 1);
    }

    #[test]
    fn digest_reads_recency_as_lines_not_slab_slots() {
        // Capacity 4. `a` evicts line 10 and reuses its slot for 14; `b`
        // never evicts, so 14 sits in another slot.
        let (mut a, mut b) = (mk(1), mk(1));
        for l in 10..15 {
            hit(&mut a, 0, l);
        }
        for l in 11..15 {
            hit(&mut b, 0, l);
        }
        assert_ne!(a.procs[0].slot(14), b.procs[0].slot(14), "the slab histories differ");
        assert!(a.procs[0].recency().eq([14, 13, 12, 11]) && b.procs[0].recency().eq([14, 13, 12, 11]));
        assert_eq!(a.boundary_digest(), b.boundary_digest());
        #[cfg(debug_assertions)]
        assert_eq!(a.state_image(), b.state_image());
        // The counter rows and the current site are outputs, not state.
        assert_ne!(a.rows(), b.rows());
        b.set_site(1);
        assert_eq!(a.boundary_digest(), b.boundary_digest());
    }

    #[test]
    fn digest_sees_every_component() {
        /// Two processors sharing lines 10..14: reads, a pending
        /// invalidation at processor 0 and a write generation of
        /// processor 1.
        fn warmed() -> Profiler {
            let mut p = mk(2);
            for l in 10..14 {
                p.access(0, l, 0, false, AccessLevel::LocalMem, 100);
                p.access(1, l, 4, false, AccessLevel::RemoteMem, 130);
            }
            p.invalidated(0, 11, 1, 4);
            p.access(1, 11, 4, true, AccessLevel::L1, 1);
            hit(&mut p, 0, 12);
            hit(&mut p, 0, 13);
            p
        }
        let base = warmed().boundary_digest();
        assert_eq!(warmed().boundary_digest(), base);
        type Edit = fn(&mut Profiler);
        let edits: [(&str, Edit); 9] = [
            ("a pending invalidation more", |p| p.invalidated(0, 12, 1, 4)),
            ("a pending invalidation's word", |p| p.invalidated(0, 11, 1, 8)),
            ("a pending invalidation consumed", |p| {
                p.procs[0].take_inval(11);
            }),
            ("a generation-mask bit", |p| p.access(1, 11, 8, true, AccessLevel::L1, 1)),
            ("a generation's writer", |p| {
                p.access(0, 11, 4, true, AccessLevel::L1, 1);
                // Put processor 0's shadow and previous line back.
                hit(p, 0, 12);
                hit(p, 0, 13);
            }),
            ("a touched bit", |p| {
                p.procs[0].note_touched(20);
            }),
            // 13, 12, 11, 10 becomes 13, 12, 10, 11; same previous line.
            ("two LRU neighbours swapped", |p| {
                hit(p, 0, 10);
                hit(p, 0, 12);
                hit(p, 0, 13);
            }),
            ("the previous line", |p| p.procs[1].last_line = 12),
            ("the previous line's array", |p| p.procs[1].last_array = 1),
        ];
        for (what, edit) in edits {
            let mut p = warmed();
            edit(&mut p);
            assert_ne!(p.boundary_digest(), base, "{what}");
        }
        // A spilled line (beyond the dense bound) counts like a dense one.
        let mut p = warmed();
        p.invalidated(0, 999, 1, 4);
        let spilled = p.boundary_digest();
        assert_ne!(spilled, base);
        p.procs[0].take_inval(999);
        assert_eq!(p.boundary_digest(), base, "consumed again");
    }

    /// The table hashes recomputed by a full scan: per processor (touched
    /// count, touched hash, pending-invalidation hash), then the
    /// write-generation hash.
    fn scanned(p: &Profiler) -> (Vec<(u64, u64, u64)>, u64) {
        let sum = |hashes: &mut dyn Iterator<Item = u64>| hashes.fold(0u64, u64::wrapping_add);
        let procs = p
            .procs
            .iter()
            .map(|s| {
                let dense = (0..s.limit as u64).filter(|&l| s.touched[(l >> 6) as usize] >> (l & 63) & 1 != 0);
                let touched: Vec<u64> = dense.chain(s.sp_touched.keys().copied()).collect();
                let dense = s.inval.iter().enumerate().filter(|(_, &c)| c != 0).map(|(l, &c)| (l as u64, c));
                let inval = dense.chain(s.sp_inval.iter().map(|(&l, &c)| (l, c)));
                (
                    touched.len() as u64,
                    sum(&mut touched.iter().map(|&l| entry_hash(l, 0))),
                    sum(&mut inval.map(|(l, c)| entry_hash(l, c as u64))),
                )
            })
            .collect();
        let dense = p.gen_writer.iter().zip(&p.gen_mask).enumerate().filter(|(_, (&c, _))| c != 0);
        let dense = dense.map(|(l, (&c, &m))| gen_entry_hash(l as u64, c, m));
        let spill = p.gens.iter().map(|(&l, g)| gen_entry_hash(l, g.writer + 1, g.mask));
        (procs, sum(&mut dense.chain(spill)))
    }

    fn running(p: &Profiler) -> (Vec<(u64, u64, u64)>, u64) {
        (p.procs.iter().map(|s| (s.touched_count, s.touched_hash, s.inval_hash)).collect(), p.gen_hash)
    }

    proptest::proptest! {
        /// After any stream of events the running hashes are the hashes of
        /// the tables as they stand, dense entries and spilled ones alike,
        /// and a profiler fed the same stream digests the same.
        #[test]
        fn running_hashes_match_a_full_scan(
            events in proptest::collection::vec((0usize..3, 8u64..36, 0u32..4, 0u8..4), 0..400),
        ) {
            let (mut p, mut twin) = (mk(3), mk(3));
            for &(proc, line, word, kind) in &events {
                // Lines 30.. lie beyond the dense bound of `mk`.
                for q in [&mut p, &mut twin] {
                    match kind {
                        0 => q.access(proc, line, word * 4, false, AccessLevel::L1, 1),
                        1 => q.access(proc, line, word * 4, false, AccessLevel::RemoteMem, 130),
                        2 => q.access(proc, line, word * 4, true, AccessLevel::LocalMem, 100),
                        _ => q.invalidated(proc, line, (proc + 1) % 3, word * 4),
                    }
                }
            }
            proptest::prop_assert_eq!(running(&p), scanned(&p));
            let digest = p.boundary_digest();
            proptest::prop_assert_eq!(running(&p), scanned(&p), "after the boundary's flush");
            proptest::prop_assert_eq!(digest, twin.boundary_digest());
            proptest::prop_assert_eq!(digest, p.boundary_digest(), "digesting changes nothing");
        }
    }

    #[test]
    fn degenerate_sizes_do_not_panic() {
        let mut p = Profiler::new(0, 0, 0, 0, vec![]);
        p.set_site(5);
        p.access(3, 1, 0, true, AccessLevel::LocalMem, 1);
        p.invalidated(7, 1, 3, 0);
        let prof = p.snapshot(vec![], 0, vec![]);
        assert_eq!(prof.total().accesses, 1);
    }
}
