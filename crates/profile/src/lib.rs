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

#![allow(clippy::needless_range_loop)]

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use dct_ir::{MemProfile, MemRow};
use dct_machine::{AccessLevel, MemProbe};

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
        if (line as usize) < self.limit {
            let (w, b) = ((line as usize) >> 6, 1u64 << (line & 63));
            let was = self.touched[w] & b != 0;
            self.touched[w] |= b;
            was
        } else {
            self.sp_touched.insert(line, ()).is_some()
        }
    }

    /// Consume a pending invalidation; returns word + 1 (0 = none).
    fn take_inval(&mut self, line: u64) -> u32 {
        if (line as usize) < self.limit {
            std::mem::take(&mut self.inval[line as usize])
        } else {
            self.sp_inval.remove(&line).unwrap_or(0)
        }
    }

    fn set_inval(&mut self, line: u64, word: u32) {
        if (line as usize) < self.limit {
            self.inval[line as usize] = word + 1;
        } else {
            self.sp_inval.insert(line, word + 1);
        }
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
            wline: u64::MAX,
            wproc: 0,
            wmask: 0,
            rows: vec![MemRow::default(); nsites * slots * nprocs.max(1)],
        }
    }

    /// Materialize the buffered write generation into the tables.
    fn flush_gen(&mut self) {
        if self.wline == u64::MAX {
            return;
        }
        if (self.wline as usize) < self.limit {
            self.gen_writer[self.wline as usize] = self.wproc + 1;
            self.gen_mask[self.wline as usize] = self.wmask;
        } else {
            self.gens.insert(self.wline, WriteGen { writer: self.wproc, mask: self.wmask });
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
