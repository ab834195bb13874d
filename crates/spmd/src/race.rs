//! Vector-clock happens-before race detection for the SPMD executor.
//!
//! The simulator is deterministic: synchronization (`SyncKind::Barrier`,
//! `SyncKind::ProducerWait`, `PipelineSpec` lock handoffs) only advances
//! the cycle clocks, never the order in which array elements are read and
//! written. Bit-exact output comparison therefore cannot distinguish a
//! *race-free* schedule from a *racy-but-lucky* one — deleting every
//! barrier from a generated program produces identical numbers. This
//! module is the independent oracle for the compiler's synchronization
//! decisions: it tracks the happens-before partial order the generated
//! sync structure actually induces and flags any conflicting pair of
//! accesses it fails to order.
//!
//! ## Model (FastTrack-flavored)
//!
//! Each simulated processor `p` carries a vector clock `vc[p]`; its own
//! component `vc[p][p]` is its current *epoch*. Happens-before edges are
//! installed exactly where the executor joins cycle clocks:
//!
//! * **Barrier** and **producer-wait** joins are global: every processor's
//!   vector clock becomes the component-wise maximum, then each increments
//!   its own epoch. (The executor's producer-wait *is* a global clock
//!   join, so modeling it as a barrier-strength edge is exact, not
//!   conservative.)
//! * **Pipeline handoffs** are point-to-point: after a processor finishes
//!   tile `r`, it *releases* a snapshot of its vector clock and bumps its
//!   epoch; its successor *acquires* (joins) that snapshot before starting
//!   its own tile `r`. Accesses in the predecessor's later tiles are
//!   deliberately not covered — exactly mirroring the cycle-clock
//!   `prev_done[r] + lock_cost` pipeline timing.
//!
//! Every array element has a shadow cell holding the last write (packed
//! `proc:epoch` + access site) and the read state (a packed epoch for a
//! single reader, inflated to a read vector when concurrent readers
//! accumulate). A write checks the last write and all reads; a read
//! checks the last write. A conflict whose prior access's epoch is not
//! `<=` the current processor's clock entry for that processor is a race.
//!
//! ## Fast-path segments
//!
//! The strided executor resolves each statement reference into a
//! `(slot, Δslot)` cursor once per layout segment and the fused kernel
//! then never recomputes addresses inside the segment. Detection piggy-
//! backs on the same structure: one [`Detector::range_access`] call
//! covers a whole per-reference interval. No synchronization can occur
//! inside a segment and the simulator executes one processor at a time,
//! so every element access in the segment carries the same `proc:epoch` —
//! batching per reference is *exact*, and a same-epoch early-out makes
//! repeated touches O(1) per element. The general walk reports every
//! access individually; both modes produce the same race verdicts (the
//! differential tests pin this).
//!
//! This module must stay panic-free (`scripts/tier1.sh` greps it for
//! panicking and unwrapping calls): out-of-model inputs degrade to skipped
//! checks, never to a crash inside the simulator's hot loop.

use crate::codegen::SpmdProgram;
use dct_ir::{Race, RaceAccess, RaceKind, RaceReport};

/// Packed `proc:epoch`: processor id in the top 16 bits, epoch clock in
/// the low 48. Simulated processor counts are <= 64 and epoch clocks are
/// bounded by the number of sync events, so the packing never saturates.
const CLOCK_BITS: u32 = 48;
const CLOCK_MASK: u64 = (1 << CLOCK_BITS) - 1;
/// "No access recorded" sentinel (no packed epoch can reach it).
const NONE: u64 = u64::MAX;
/// Read-state flag: the low bits index `Detector::pools` instead of
/// holding a packed epoch.
const SHARED: u64 = 1 << 62;

#[inline]
fn pack(proc: usize, clock: u64) -> u64 {
    ((proc as u64) << CLOCK_BITS) | (clock & CLOCK_MASK)
}

#[inline]
fn epoch_proc(e: u64) -> usize {
    (e >> CLOCK_BITS) as usize
}

#[inline]
fn epoch_clock(e: u64) -> u64 {
    e & CLOCK_MASK
}

/// Shadow state of one array element.
#[derive(Clone, Copy)]
struct Cell {
    /// Last write as a packed epoch, or [`NONE`].
    w: u64,
    /// Site id of the last write.
    w_site: u32,
    /// Read state: [`NONE`], a packed epoch (single reader), or
    /// [`SHARED`]`| pool index` (concurrent readers).
    r: u64,
    /// Site id of the single reader (unused when shared).
    r_site: u32,
}

const EMPTY_CELL: Cell = Cell { w: NONE, w_site: 0, r: NONE, r_site: 0 };

/// Inflated read state: per-processor read clocks and sites.
struct ReadVc {
    clocks: Vec<u64>,
    sites: Vec<u32>,
}

/// Shadow memory of one array. A replicated array (one private copy per
/// processor, `repl_stride > 0`) has no cells: different processors
/// touching the same slot touch *different* bytes, each copy is only ever
/// touched by its own processor, and every check needs two processors, so
/// no access to it can report. Its accesses are bounds-checked and counted
/// like any other.
struct ArrayShadow {
    cells: Vec<Cell>,
    /// Element slots per copy.
    size: usize,
    /// Replicated array: private per processor, never shadowed.
    per_proc: bool,
}

/// Where in the program an access was issued: resolved once per nest
/// execution, stored in shadow cells as a dense id.
#[derive(Clone)]
struct Site {
    /// Index in `program.nests`; `None` for init nests.
    nest: Option<usize>,
    name: String,
    line: Option<usize>,
}

/// The happens-before detector. Pure observer: it never touches the
/// machine model or the cycle clocks, so enabling it cannot change
/// simulated cycles, statistics or results.
pub struct Detector {
    nprocs: usize,
    /// Flattened `nprocs x nprocs` vector clocks; row `p` is processor
    /// `p`'s clock, `vc[p*nprocs + p]` its current epoch.
    vc: Vec<u64>,
    shadows: Vec<ArrayShadow>,
    /// Inflated read vectors (indexed from shadow cells).
    pools: Vec<ReadVc>,
    /// Free slots in `pools`.
    free_pools: Vec<usize>,
    /// Site table: init nests first, then compute nests.
    sites: Vec<Site>,
    /// Site id accesses are attributed to (set per nest execution).
    cur_site: u32,
    array_names: Vec<String>,
    /// Dedup keys of reported races: (array, kind, prior site, current site).
    seen: Vec<(usize, RaceKind, u32, u32)>,
    races: Vec<Race>,
    race_count: u64,
    checked: u64,
    sync_edges: u64,
}

impl Detector {
    pub fn new(sp: &SpmdProgram) -> Detector {
        let nprocs = sp.nprocs.max(1);
        let mut vc = vec![0u64; nprocs * nprocs];
        for p in 0..nprocs {
            vc[p * nprocs + p] = 1;
        }
        let shadows = sp
            .layouts
            .iter()
            .zip(&sp.repl_stride)
            .map(|(l, &rs)| {
                let size = l.layout.size().max(0) as usize;
                let per_proc = rs > 0;
                let cells = if per_proc { Vec::new() } else { vec![EMPTY_CELL; size] };
                ArrayShadow { cells, size, per_proc }
            })
            .collect();
        let mut sites: Vec<Site> = Vec::with_capacity(sp.init.len() + sp.nests.len());
        for nest in &sp.init {
            sites.push(Site { nest: None, name: nest.source.name.clone(), line: nest.source.line });
        }
        for (j, nest) in sp.nests.iter().enumerate() {
            sites.push(Site {
                nest: Some(j),
                name: nest.source.name.clone(),
                line: nest.source.line,
            });
        }
        if sites.is_empty() {
            sites.push(Site { nest: None, name: "?".to_string(), line: None });
        }
        Detector {
            nprocs,
            vc,
            shadows,
            pools: Vec::new(),
            free_pools: Vec::new(),
            sites,
            cur_site: 0,
            array_names: sp.array_names.clone(),
            seen: Vec::new(),
            races: Vec::new(),
            race_count: 0,
            checked: 0,
            sync_edges: 0,
        }
    }

    /// Attribute subsequent accesses to the given nest (init or compute).
    pub fn set_site(&mut self, init: bool, idx: usize, ninit: usize) {
        let id = if init { idx } else { ninit + idx };
        self.cur_site = if id < self.sites.len() { id as u32 } else { 0 };
    }

    /// Global clock join: barrier or whole-nest producer-wait (the
    /// executor joins every cycle clock for both, so both are
    /// barrier-strength happens-before edges).
    pub fn global_sync(&mut self) {
        let n = self.nprocs;
        for q in 0..n {
            let mut m = 0u64;
            for p in 0..n {
                m = m.max(self.vc[p * n + q]);
            }
            for p in 0..n {
                self.vc[p * n + q] = m;
            }
        }
        for p in 0..n {
            self.vc[p * n + p] += 1;
        }
        self.sync_edges += 1;
    }

    /// Pipeline handoff, producer side: snapshot the clock covering every
    /// access the processor has made, then open a fresh epoch so later
    /// tiles are *not* covered by this handoff.
    pub fn release(&mut self, proc: usize) -> Vec<u64> {
        let n = self.nprocs;
        if proc >= n {
            return vec![0; n];
        }
        let snap = self.vc[proc * n..(proc + 1) * n].to_vec();
        self.vc[proc * n + proc] += 1;
        snap
    }

    /// Pipeline handoff, consumer side: join the predecessor's released
    /// snapshot into this processor's clock.
    pub fn acquire(&mut self, proc: usize, snap: &[u64]) {
        let n = self.nprocs;
        if proc >= n || snap.len() != n {
            return;
        }
        for q in 0..n {
            let v = &mut self.vc[proc * n + q];
            *v = (*v).max(snap[q]);
        }
        self.sync_edges += 1;
    }

    /// One element access through the general walk.
    #[inline]
    pub fn access(&mut self, proc: usize, x: usize, slot: usize, is_write: bool) {
        self.range_access(proc, x, slot, 0, 1, is_write);
    }

    /// A strided per-reference interval of accesses: `count` touches of
    /// `slot, slot+dslot, ...`, all by `proc` in its current epoch (the
    /// fast path guarantees no sync occurs inside a segment, which makes
    /// per-reference batching exact).
    pub fn range_access(&mut self, proc: usize, x: usize, slot: usize, dslot: i64, count: i64, is_write: bool) {
        let n = self.nprocs;
        if proc >= n || count <= 0 {
            return;
        }
        let Some(sh) = self.shadows.get(x) else { return };
        // Bounds of the whole interval up front: one check per segment,
        // none in the per-element loop.
        let last = slot as i64 + dslot * (count - 1);
        if slot >= sh.size || last < 0 || last as usize >= sh.size {
            return;
        }
        if sh.per_proc {
            self.checked += count as u64;
            return;
        }
        let me = pack(proc, self.vc[proc * n + proc]);
        let site = self.cur_site;
        if is_write {
            let mut s = slot as i64;
            for _ in 0..count {
                self.write_cell(proc, x, s as usize, me, site);
                s += dslot;
                if dslot == 0 {
                    self.checked += count as u64 - 1;
                    break;
                }
            }
        } else {
            let mut s = slot as i64;
            for _ in 0..count {
                self.read_cell(proc, x, s as usize, me, site);
                s += dslot;
                if dslot == 0 {
                    self.checked += count as u64 - 1;
                    break;
                }
            }
        }
    }

    #[inline]
    fn write_cell(&mut self, proc: usize, x: usize, slot: usize, me: u64, site: u32) {
        self.checked += 1;
        let n = self.nprocs;
        let Some(cell) = self.shadows.get_mut(x).and_then(|sh| sh.cells.get_mut(slot))
        else {
            return;
        };
        // Same-epoch early-out: this processor already wrote this element
        // in the current epoch and nothing read it since.
        if cell.w == me && cell.r == NONE {
            return;
        }
        let cell = *cell;
        // Write-write conflict with the previous writer.
        if cell.w != NONE {
            let q = epoch_proc(cell.w);
            if q != proc && q < n && epoch_clock(cell.w) > self.vc[proc * n + q] {
                self.report(RaceKind::WriteWrite, x, slot, q, cell.w_site, proc, site);
            }
        }
        // Read-write conflicts with every unordered reader.
        if cell.r != NONE {
            if cell.r & SHARED != 0 {
                let pi = (cell.r & !SHARED) as usize;
                if let Some(pool) = self.pools.get(pi) {
                    let mut hits: Vec<(usize, u32)> = Vec::new();
                    for q in 0..n {
                        let (c, s) = (
                            pool.clocks.get(q).copied().unwrap_or(0),
                            pool.sites.get(q).copied().unwrap_or(0),
                        );
                        if q != proc && c > self.vc[proc * n + q] {
                            hits.push((q, s));
                        }
                    }
                    for (q, s) in hits {
                        self.report(RaceKind::ReadWrite, x, slot, q, s, proc, site);
                    }
                }
                self.free_pools.push(pi);
            } else {
                let q = epoch_proc(cell.r);
                if q != proc && q < n && epoch_clock(cell.r) > self.vc[proc * n + q] {
                    self.report(RaceKind::ReadWrite, x, slot, q, cell.r_site, proc, site);
                }
            }
        }
        if let Some(c) = self.shadows.get_mut(x).and_then(|sh| sh.cells.get_mut(slot)) {
            *c = Cell { w: me, w_site: site, r: NONE, r_site: 0 };
        }
    }

    #[inline]
    fn read_cell(&mut self, proc: usize, x: usize, slot: usize, me: u64, site: u32) {
        self.checked += 1;
        let n = self.nprocs;
        let Some(cell) = self.shadows.get_mut(x).and_then(|sh| sh.cells.get_mut(slot))
        else {
            return;
        };
        // Same-epoch early-out: already read by this processor this epoch.
        if cell.r == me {
            return;
        }
        let cur = *cell;
        // Write-read conflict with the last writer.
        if cur.w != NONE {
            let q = epoch_proc(cur.w);
            if q != proc && q < n && epoch_clock(cur.w) > self.vc[proc * n + q] {
                self.report(RaceKind::WriteRead, x, slot, q, cur.w_site, proc, site);
            }
        }
        // Update the read state.
        if cur.r == NONE {
            if let Some(c) = self.shadows.get_mut(x).and_then(|sh| sh.cells.get_mut(slot)) {
                c.r = me;
                c.r_site = site;
            }
        } else if cur.r & SHARED != 0 {
            let pi = (cur.r & !SHARED) as usize;
            if let Some(pool) = self.pools.get_mut(pi) {
                if let (Some(c), Some(s)) = (pool.clocks.get_mut(proc), pool.sites.get_mut(proc)) {
                    *c = epoch_clock(me);
                    *s = site;
                }
            }
        } else {
            let q = epoch_proc(cur.r);
            if q == proc || (q < n && epoch_clock(cur.r) <= self.vc[proc * n + q]) {
                // Same reader, or the previous read happens-before this
                // one: exclusive ownership transfers.
                if let Some(c) =
                    self.shadows.get_mut(x).and_then(|sh| sh.cells.get_mut(slot))
                {
                    c.r = me;
                    c.r_site = site;
                }
            } else {
                // Concurrent readers: inflate to a read vector.
                let pi = self.alloc_pool();
                if let Some(pool) = self.pools.get_mut(pi) {
                    if q < n {
                        if let (Some(c), Some(s)) =
                            (pool.clocks.get_mut(q), pool.sites.get_mut(q))
                        {
                            *c = epoch_clock(cur.r);
                            *s = cur.r_site;
                        }
                    }
                    if let (Some(c), Some(s)) =
                        (pool.clocks.get_mut(proc), pool.sites.get_mut(proc))
                    {
                        *c = epoch_clock(me);
                        *s = site;
                    }
                }
                if let Some(c) =
                    self.shadows.get_mut(x).and_then(|sh| sh.cells.get_mut(slot))
                {
                    c.r = SHARED | pi as u64;
                    c.r_site = 0;
                }
            }
        }
    }

    fn alloc_pool(&mut self) -> usize {
        if let Some(pi) = self.free_pools.pop() {
            if let Some(pool) = self.pools.get_mut(pi) {
                pool.clocks.iter_mut().for_each(|c| *c = 0);
                pool.sites.iter_mut().for_each(|s| *s = 0);
            }
            pi
        } else {
            self.pools.push(ReadVc { clocks: vec![0; self.nprocs], sites: vec![0; self.nprocs] });
            self.pools.len() - 1
        }
    }

    /// Record a race: always counted, deduplicated by (array, kind, site
    /// pair) and capped for the report.
    fn report(
        &mut self,
        kind: RaceKind,
        x: usize,
        slot: usize,
        first_proc: usize,
        first_site: u32,
        second_proc: usize,
        second_site: u32,
    ) {
        self.race_count += 1;
        let key = (x, kind, first_site, second_site);
        if self.seen.contains(&key) || self.races.len() >= RaceReport::MAX_RACES {
            return;
        }
        self.seen.push(key);
        let fallback = Site { nest: None, name: "?".to_string(), line: None };
        let site_of = |id: u32, proc: usize, sites: &[Site]| -> RaceAccess {
            let s = sites.get(id as usize).unwrap_or(&fallback);
            RaceAccess { proc, nest: s.nest, nest_name: s.name.clone(), line: s.line }
        };
        self.races.push(Race {
            kind,
            array: x,
            array_name: self
                .array_names
                .get(x)
                .cloned()
                .unwrap_or_else(|| format!("array{x}")),
            element: slot,
            first: site_of(first_site, first_proc, &self.sites),
            second: site_of(second_site, second_proc, &self.sites),
        });
    }

    /// Bytes allocated for shadow cells (the inflated read vectors, which
    /// come and go, are not counted). Telemetry only.
    pub fn shadow_bytes(&self) -> u64 {
        let cells: usize = self.shadows.iter().map(|sh| sh.cells.len()).sum();
        (cells * std::mem::size_of::<Cell>()) as u64
    }

    /// Snapshot the report (the detector keeps running; the executor
    /// calls this once at the end of the run).
    pub fn report_snapshot(&self) -> RaceReport {
        RaceReport {
            races: self.races.clone(),
            race_count: self.race_count,
            checked: self.checked,
            sync_edges: self.sync_edges,
        }
    }
}

#[cfg(test)]
impl Detector {
    /// Bare detector over synthetic shadow arrays — unit tests exercise
    /// the happens-before algebra without running codegen.
    fn synthetic(nprocs: usize, sizes: &[usize]) -> Detector {
        let mut vc = vec![0u64; nprocs * nprocs];
        for p in 0..nprocs {
            vc[p * nprocs + p] = 1;
        }
        Detector {
            nprocs,
            vc,
            shadows: sizes
                .iter()
                .map(|&size| ArrayShadow { cells: vec![EMPTY_CELL; size], size, per_proc: false })
                .collect(),
            pools: Vec::new(),
            free_pools: Vec::new(),
            sites: vec![Site { nest: Some(0), name: "t".to_string(), line: Some(1) }],
            cur_site: 0,
            array_names: (0..sizes.len()).map(|x| format!("A{x}")).collect(),
            seen: Vec::new(),
            races: Vec::new(),
            race_count: 0,
            checked: 0,
            sync_edges: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_accesses_are_silent() {
        let mut d = Detector::synthetic(4, &[16]);
        d.access(0, 0, 3, true);
        d.global_sync();
        d.access(1, 0, 3, false); // write hb read via barrier
        d.access(1, 0, 3, true); // read hb write on same proc
        let rep = d.report_snapshot();
        assert!(rep.is_race_free(), "{rep}");
        assert_eq!(rep.sync_edges, 1);
    }

    #[test]
    fn unordered_write_read_is_a_race() {
        let mut d = Detector::synthetic(4, &[16]);
        d.access(0, 0, 3, true);
        d.access(1, 0, 3, false); // no sync edge: race
        let rep = d.report_snapshot();
        assert_eq!(rep.race_count, 1, "{rep}");
        assert_eq!(rep.races.len(), 1);
        assert_eq!(rep.races[0].kind, RaceKind::WriteRead);
        assert_eq!(rep.races[0].first.proc, 0);
        assert_eq!(rep.races[0].second.proc, 1);
        assert_eq!(rep.races[0].element, 3);
    }

    #[test]
    fn unordered_writes_are_a_race() {
        let mut d = Detector::synthetic(4, &[16]);
        d.access(0, 0, 5, true);
        d.access(2, 0, 5, true);
        let rep = d.report_snapshot();
        assert_eq!(rep.race_count, 1);
        assert_eq!(rep.races[0].kind, RaceKind::WriteWrite);
    }

    #[test]
    fn shared_readers_then_write_races_each_unordered_reader() {
        let mut d = Detector::synthetic(4, &[16]);
        d.access(0, 0, 2, false);
        d.access(1, 0, 2, false);
        d.access(2, 0, 2, false);
        d.access(3, 0, 2, true); // unordered with all three readers
        let rep = d.report_snapshot();
        assert_eq!(rep.race_count, 3, "{rep}");
    }

    #[test]
    fn barrier_orders_shared_readers() {
        let mut d = Detector::synthetic(4, &[16]);
        d.access(0, 0, 2, false);
        d.access(1, 0, 2, false);
        d.global_sync();
        d.access(3, 0, 2, true);
        assert!(d.report_snapshot().is_race_free());
    }

    #[test]
    fn release_acquire_orders_pipeline_tiles() {
        let mut d = Detector::synthetic(4, &[16]);
        d.access(0, 0, 1, true);
        let snap = d.release(0);
        d.access(0, 0, 2, true); // after release: next tile
        d.acquire(1, &snap);
        d.access(1, 0, 1, false); // covered by the handoff
        let rep = d.report_snapshot();
        assert!(rep.is_race_free(), "{rep}");
        d.access(1, 0, 2, false); // slot 2 written after the release: race
        let rep = d.report_snapshot();
        assert_eq!(rep.race_count, 1);
        assert_eq!(rep.races[0].kind, RaceKind::WriteRead);
    }

    #[test]
    fn replicated_shadow_is_per_processor() {
        let mut d = Detector::synthetic(4, &[16]);
        d.shadows[0].per_proc = true;
        d.shadows[0].cells = Vec::new();
        d.access(0, 0, 3, true);
        d.access(1, 0, 3, true); // different replica: not a race
        d.range_access(2, 0, 1, 2, 3, false);
        d.range_access(2, 0, 3, 0, 4, true);
        d.access(2, 0, 16, true); // out of bounds: skipped, as for a shadowed array
        let rep = d.report_snapshot();
        assert!(rep.is_race_free());
        assert_eq!(rep.checked, 2 + 3 + 4, "counted like shadowed accesses");
        assert_eq!(d.shadow_bytes(), 0);
    }

    #[test]
    fn range_access_matches_element_accesses() {
        let mut a = Detector::synthetic(4, &[16]);
        let mut b = Detector::synthetic(4, &[16]);
        a.range_access(0, 0, 1, 2, 3, true); // slots 1,3,5
        for s in [1, 3, 5] {
            b.access(0, 0, s, true);
        }
        a.global_sync();
        b.global_sync();
        a.range_access(1, 0, 3, 0, 4, false);
        for _ in 0..4 {
            b.access(1, 0, 3, false);
        }
        a.access(2, 0, 5, true); // races with proc 0's write in both
        b.access(2, 0, 5, true);
        let (ra, rb) = (a.report_snapshot(), b.report_snapshot());
        assert_eq!(ra.races, rb.races);
        assert_eq!(ra.race_count, rb.race_count);
        assert_eq!(ra.checked, rb.checked);
    }

    #[test]
    fn dedup_caps_distinct_races_but_counts_all() {
        let mut d = Detector::synthetic(2, &[16]);
        for s in 0..8 {
            d.access(0, 0, s, true);
        }
        for s in 0..8 {
            d.access(1, 0, s, true); // 8 dynamic races, one site pair
        }
        let rep = d.report_snapshot();
        assert_eq!(rep.race_count, 8);
        assert_eq!(rep.races.len(), 1, "deduped by site pair");
    }

    #[test]
    fn out_of_range_access_is_ignored() {
        let mut d = Detector::synthetic(2, &[4]);
        d.access(0, 0, 100, true); // out of bounds: skipped, no panic
        d.access(0, 9, 0, true); // unknown array: skipped
        d.range_access(0, 0, 3, -2, 3, false); // runs below 0: skipped
        assert!(d.report_snapshot().is_race_free());
    }
}
