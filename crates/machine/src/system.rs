//! The full machine: per-processor two-level caches, a directory-based
//! invalidation protocol, and first-touch NUMA page placement — the
//! measurable effects the paper's evaluation depends on (true/false
//! sharing, conflict misses, local/remote latency).
//!
//! The machine models *timing only*: program values live in the SPMD
//! interpreter. Every `access` returns its cost in cycles; the caller
//! accumulates per-processor clocks.

use crate::cache::{direct_lookup, Cache, LineState};
use crate::config::MachineConfig;
use crate::probe::{AccessLevel, MemProbe};

/// Directory entry for one cache line.
#[derive(Clone, Copy, Default, Debug)]
struct DirEntry {
    /// Bitmask of processors holding the line (any state).
    sharers: u64,
    /// Processor holding the line Modified, if any.
    dirty: Option<u8>,
}

/// No-owner sentinel in [`DirTable::dirty`] (processor ids are < 64).
const NO_OWNER: u8 = u8::MAX;

/// Directory keyed by line number, stored as two flat growable arrays
/// (sharer bitmask and dirty-owner byte). Line numbers are dense small
/// integers — the program's address space is packed from page 1 upward —
/// so flat indexing beats both the hash map and a paged table this
/// replaces: one load per operation, contiguous memory that the host
/// TLB and prefetchers handle well, and 9 bytes per line instead of 16.
/// Lines beyond the grown region read as default (no sharers, clean),
/// matching the old `get(..).unwrap_or_default()` semantics.
struct DirTable {
    sharers: Vec<u64>,
    dirty: Vec<u8>,
}

impl DirTable {
    fn new() -> DirTable {
        DirTable { sharers: Vec::new(), dirty: Vec::new() }
    }

    #[inline]
    fn get(&self, line: u64) -> DirEntry {
        let l = line as usize;
        match self.sharers.get(l) {
            Some(&s) => {
                let d = self.dirty[l];
                DirEntry { sharers: s, dirty: (d != NO_OWNER).then_some(d) }
            }
            None => DirEntry::default(),
        }
    }

    /// Amortised growth to cover `line` (doubles; floor 64K lines = 1 MB
    /// of simulated address space).
    #[cold]
    fn grow(&mut self, l: usize) {
        let n = (l + 1).next_power_of_two().max(1 << 16);
        self.sharers.resize(n, 0);
        self.dirty.resize(n, NO_OWNER);
    }

    #[inline]
    fn set(&mut self, line: u64, sharers: u64, dirty: Option<usize>) {
        let l = line as usize;
        if l >= self.sharers.len() {
            self.grow(l);
        }
        self.sharers[l] = sharers;
        self.dirty[l] = dirty.map_or(NO_OWNER, |p| p as u8);
    }

    /// Clear `proc`'s sharer bit (and dirty ownership) for an evicted
    /// line. Untouched lines (beyond the grown region) have no bits to
    /// clear.
    #[inline]
    fn drop_sharer(&mut self, proc: usize, line: u64) {
        let l = line as usize;
        if let Some(s) = self.sharers.get_mut(l) {
            *s &= !(1u64 << proc);
            if self.dirty[l] == proc as u8 {
                self.dirty[l] = NO_OWNER;
            }
        }
    }

}

/// First-touch page homes as a growable flat array keyed by page number
/// (`u32::MAX` = unassigned). Page numbers are small dense integers, so
/// direct indexing beats hashing for the same reason as [`DirTable`].
struct PageHomes {
    homes: Vec<u32>,
}

const HOME_NONE: u32 = u32::MAX;

impl PageHomes {
    fn new() -> PageHomes {
        PageHomes { homes: Vec::new() }
    }

    /// Home of `page`, assigning `cluster` on first touch.
    #[inline]
    fn get_or_assign(&mut self, page: u64, cluster: u32) -> u32 {
        let p = page as usize;
        if p >= self.homes.len() {
            self.homes.resize(p + 1, HOME_NONE);
        }
        if self.homes[p] == HOME_NONE {
            self.homes[p] = cluster;
        }
        self.homes[p]
    }
}

/// Per-processor event counters.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct ProcStats {
    pub accesses: u64,
    pub l1_hits: u64,
    /// Subset of `l1_hits` resolved by the one-entry last-line cache
    /// without a full L1 probe. Deterministic for a given access stream,
    /// so it stays identical across executor modes.
    pub l1_fast_hits: u64,
    pub l2_hits: u64,
    pub local_mem: u64,
    pub remote_mem: u64,
    pub remote_dirty: u64,
    pub upgrades: u64,
    pub invalidations_received: u64,
    pub mem_cycles: u64,
}

impl ProcStats {
    /// Add `o`'s counters to `self`.
    pub fn add(&mut self, o: &ProcStats) {
        self.accesses += o.accesses;
        self.l1_hits += o.l1_hits;
        self.l1_fast_hits += o.l1_fast_hits;
        self.l2_hits += o.l2_hits;
        self.local_mem += o.local_mem;
        self.remote_mem += o.remote_mem;
        self.remote_dirty += o.remote_dirty;
        self.upgrades += o.upgrades;
        self.invalidations_received += o.invalidations_received;
        self.mem_cycles += o.mem_cycles;
    }

    /// The counters accrued since `base`, an earlier reading of the same
    /// processor.
    pub fn since(&self, base: &ProcStats) -> ProcStats {
        ProcStats {
            accesses: self.accesses - base.accesses,
            l1_hits: self.l1_hits - base.l1_hits,
            l1_fast_hits: self.l1_fast_hits - base.l1_fast_hits,
            l2_hits: self.l2_hits - base.l2_hits,
            local_mem: self.local_mem - base.local_mem,
            remote_mem: self.remote_mem - base.remote_mem,
            remote_dirty: self.remote_dirty - base.remote_dirty,
            upgrades: self.upgrades - base.upgrades,
            invalidations_received: self.invalidations_received - base.invalidations_received,
            mem_cycles: self.mem_cycles - base.mem_cycles,
        }
    }
}

/// Synchronization events routed through [`Machine::sync`]. These count
/// *schedule structure* (how many barriers and handoffs the generated
/// code executed), so they are identical across executor modes for a
/// given schedule, like the access stream itself.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct SyncStats {
    /// Global barrier joins.
    pub barriers: u64,
    /// Whole-nest producer/consumer lock handoffs (`SyncKind::ProducerWait`).
    pub lock_handoffs: u64,
    /// Per-tile doacross pipeline handoffs (`PipelineSpec` chains).
    pub pipeline_handoffs: u64,
}

impl SyncStats {
    pub fn total(&self) -> u64 {
        self.barriers + self.lock_handoffs + self.pipeline_handoffs
    }
}

/// A synchronization event the executor reports to the machine model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SyncOp {
    /// Global barrier among `active` processors.
    Barrier { active: usize },
    /// Whole-nest lock handoff (producer signals, consumers wait).
    LockHandoff,
    /// One per-tile handoff along a doacross pipeline chain.
    PipelineHandoff,
}

/// Aggregated machine statistics.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct Stats {
    pub per_proc: Vec<ProcStats>,
    /// Synchronization events (see [`SyncStats`]).
    pub sync: SyncStats,
}

impl Stats {
    pub fn total(&self) -> ProcStats {
        let mut t = ProcStats::default();
        for p in &self.per_proc {
            t.add(p);
        }
        t
    }

    /// Fraction of accesses that miss both cache levels.
    pub fn memory_miss_rate(&self) -> f64 {
        let t = self.total();
        if t.accesses == 0 {
            return 0.0;
        }
        (t.local_mem + t.remote_mem + t.remote_dirty) as f64 / t.accesses as f64
    }
}

/// One-entry record of the line a processor touched last. When the next
/// access lands on the same line, the full L1 probe (hash of the set, tag
/// compare, LRU touch) can be skipped: the line is by construction the
/// most-recently-used entry of its set, so re-touching it cannot change
/// any later eviction decision and relative LRU order is preserved.
#[derive(Clone, Copy)]
struct LastLine {
    /// `u64::MAX` = invalid (no line can reach that number: addresses are
    /// divided by the line size).
    line: u64,
    state: LineState,
}

impl LastLine {
    const NONE: LastLine = LastLine { line: u64::MAX, state: LineState::Shared };
}

/// What [`l1_front`] saw in the first-level cache when it could not
/// resolve an access; the miss path is handed this and looks nothing up a
/// second time.
#[derive(Clone, Copy)]
enum L1Look {
    /// Direct-mapped: the line is resident Shared and the access writes.
    SharedWrite,
    /// Direct-mapped: the line is not resident.
    Absent,
    /// Associative: not looked at. Its probe ticks the LRU clock, so it
    /// runs exactly once per access, in the miss path.
    Unprobed,
}

/// Answer of [`l1_front`].
enum Front {
    /// The processor's last-touched line, in a sufficient state.
    Memo,
    /// Resident in the direct-mapped L1 in this, sufficient, state.
    Hit(LineState),
    Miss(L1Look),
}

/// The L1-hit leg of every access: the last-line memo, then the
/// direct-mapped slot compare, a state being sufficient when the access
/// reads or the line is Modified (a write to a Shared line must take the
/// upgrade). Reads only what it is given, so a loop can hold `memo` and
/// `slots` (`l1[proc]`'s; empty when it is associative) in locals across a
/// streak of hits: a hit changes no slot.
#[inline(always)]
fn l1_front(memo: LastLine, slots: &[u64], line: u64, write: bool) -> Front {
    // `&` and `|`, not `&&` and `||`: one branch per question.
    if (memo.line == line) & (!write | (memo.state == LineState::Modified)) {
        return Front::Memo;
    }
    if slots.is_empty() {
        return Front::Miss(L1Look::Unprobed);
    }
    let (modified, shared) = direct_lookup(slots, line);
    if modified | (shared & !write) {
        return Front::Hit(if modified { LineState::Modified } else { LineState::Shared });
    }
    Front::Miss(if shared { L1Look::SharedWrite } else { L1Look::Absent })
}

/// The simulated machine.
pub struct Machine {
    pub cfg: MachineConfig,
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    dir: DirTable,
    /// First-touch page homes (page number -> cluster).
    page_home: PageHomes,
    /// Per-processor last-touched-line record (see [`LastLine`]).
    last_line: Vec<LastLine>,
    /// Per-processor `(page, home)` memo for the page-home lookup. Safe
    /// because first-touch homes are immutable once assigned.
    last_page: Vec<(u64, u32)>,
    /// `log2(line_bytes)`: the line number of every access is computed with
    /// a shift instead of a 64-bit divide (the divide sat at the head of
    /// the dependency chain of every simulated access).
    line_shift: u32,
    /// `log2(page_bytes)` when the page size is a power of two (both
    /// presets); `None` falls back to division.
    page_shift: Option<u32>,
    /// Memoised `cfg.cluster_of(proc)` (a divide by `procs_per_cluster`).
    cluster: Vec<u32>,
    pub stats: Stats,
}

impl Machine {
    pub fn new(cfg: MachineConfig) -> Machine {
        cfg.validate();
        assert!(
            cfg.nprocs <= MachineConfig::MAX_PROCS,
            "directory bitmask supports up to 64 processors"
        );
        let l1 = (0..cfg.nprocs)
            .map(|_| Cache::new(cfg.l1_bytes, cfg.line_bytes, cfg.l1_assoc))
            .collect();
        let l2 = (0..cfg.nprocs)
            .map(|_| Cache::new(cfg.l2_bytes, cfg.line_bytes, cfg.l2_assoc))
            .collect();
        Machine {
            stats: Stats {
                per_proc: vec![ProcStats::default(); cfg.nprocs],
                sync: SyncStats::default(),
            },
            last_line: vec![LastLine::NONE; cfg.nprocs],
            last_page: vec![(u64::MAX, 0); cfg.nprocs],
            line_shift: cfg.line_bytes.trailing_zeros(),
            page_shift: cfg.page_bytes.is_power_of_two().then(|| cfg.page_bytes.trailing_zeros()),
            cluster: (0..cfg.nprocs).map(|p| cfg.cluster_of(p) as u32).collect(),
            cfg,
            l1,
            l2,
            dir: DirTable::new(),
            page_home: PageHomes::new(),
        }
    }

    #[inline]
    fn page_of(&self, byte_addr: u64) -> u64 {
        match self.page_shift {
            Some(s) => byte_addr >> s,
            None => byte_addr / self.cfg.page_bytes as u64,
        }
    }

    /// Pre-assign the home cluster of the page containing `byte_addr`
    /// (models explicit placement; normally first touch does this).
    pub fn place_page(&mut self, byte_addr: u64, cluster: usize) {
        let page = self.page_of(byte_addr);
        self.page_home.get_or_assign(page, cluster as u32);
    }

    /// Home cluster of an address, assigning by first touch from `proc`.
    /// A one-entry per-processor memo short-circuits the hash lookup on
    /// the common same-page streak; first-touch homes never change once
    /// assigned, so the memo cannot go stale.
    fn home_of(&mut self, byte_addr: u64, proc: usize) -> usize {
        let page = self.page_of(byte_addr);
        let (cached_page, cached_home) = self.last_page[proc];
        if cached_page == page {
            return cached_home as usize;
        }
        let cluster = self.cluster[proc];
        let home = self.page_home.get_or_assign(page, cluster);
        self.last_page[proc] = (page, home);
        home as usize
    }

    /// Perform one memory access; returns its latency in cycles.
    #[inline(always)]
    pub fn access(&mut self, proc: usize, byte_addr: u64, write: bool) -> u64 {
        self.access_probed(proc, byte_addr, write, None)
    }

    /// [`Machine::access`] with an optional [`MemProbe`] observing the
    /// outcome. The probe sees which level resolved the access, the exact
    /// cost charged, and every invalidation the access caused; it can
    /// never alter timing, so probed and unprobed runs are cycle-identical.
    ///
    /// Inlined into its callers up to the L1 hit ([`l1_front`]); anything
    /// else is one call into the miss path. `always`, because left to
    /// itself the compiler keeps this a function in the larger callers, and
    /// a miss then pays for two calls where it used to pay for one.
    #[inline(always)]
    pub fn access_probed(
        &mut self,
        proc: usize,
        byte_addr: u64,
        write: bool,
        probe: Option<&mut dyn MemProbe>,
    ) -> u64 {
        debug_assert!(proc < self.cfg.nprocs);
        let line = byte_addr >> self.line_shift;
        let memo = self.last_line[proc];
        let (memo, fast) = match l1_front(memo, self.l1_slots(proc), line, write) {
            Front::Miss(look) => return self.access_miss(proc, byte_addr, write, look, probe).0,
            Front::Memo => (memo, 1),
            Front::Hit(state) => (LastLine { line, state }, 0),
        };
        let lat = self.note_hits(proc, memo, 1, fast);
        if let Some(p) = probe {
            p.access(proc, line, self.word_of(byte_addr), write, AccessLevel::L1, lat);
        }
        lat
    }

    /// `proc`'s direct-mapped L1 slots for [`l1_front`] (empty when the
    /// L1 is associative).
    #[inline]
    fn l1_slots(&self, proc: usize) -> &[u64] {
        self.l1[proc].direct_slots().unwrap_or(&[])
    }

    /// Byte offset within the line: the word identity that separates true
    /// from false sharing. Only computed into probe calls.
    #[inline]
    fn word_of(&self, byte_addr: u64) -> u32 {
        (byte_addr & (self.cfg.line_bytes as u64 - 1)) as u32
    }

    /// Write back a streak of `hits` front hits (`fast` of them on the
    /// memo) that left `memo` as the processor's last line; returns their
    /// cost. A sufficient state is never changed by the hit, so the memo
    /// is all the machine state a streak moves.
    #[inline]
    fn note_hits(&mut self, proc: usize, memo: LastLine, hits: u64, fast: u64) -> u64 {
        self.last_line[proc] = memo;
        let cost = hits * self.cfg.lat_l1;
        let st = &mut self.stats.per_proc[proc];
        st.accesses += hits;
        st.l1_hits += hits;
        st.l1_fast_hits += fast;
        st.mem_cycles += cost;
        cost
    }

    /// Everything behind the L1-hit leg: the upgrade of a Shared line, the
    /// associative L1 probe, L2, the directory and the fills. `look` is
    /// what the front found. Returns the cost and the state the line now
    /// has in `proc`'s L1: every path ends with the accessed line as the
    /// processor's last line, so a caller that holds the memo in a local
    /// has its new value without reading it back.
    #[inline(never)]
    fn access_miss(
        &mut self,
        proc: usize,
        byte_addr: u64,
        write: bool,
        look: L1Look,
        mut probe: Option<&mut dyn MemProbe>,
    ) -> (u64, LineState) {
        let line = byte_addr >> self.line_shift;
        let word = self.word_of(byte_addr);

        // L1.
        let in_l1 = match look {
            L1Look::SharedWrite => Some(LineState::Shared),
            L1Look::Absent => None,
            L1Look::Unprobed => self.l1[proc].probe(line),
        };
        if let Some(state) = in_l1 {
            let mut cost = self.cfg.lat_l1;
            if write && state == LineState::Shared {
                cost += self.upgrade(proc, line, word, &mut probe);
            }
            let new_state = if write { LineState::Modified } else { state };
            self.last_line[proc] = LastLine { line, state: new_state };
            let st = &mut self.stats.per_proc[proc];
            st.accesses += 1;
            st.l1_hits += 1;
            st.mem_cycles += cost;
            if let Some(p) = probe {
                p.access(proc, line, word, write, AccessLevel::L1, cost);
            }
            return (cost, new_state);
        }

        // L2.
        if let Some(state) = self.l2[proc].probe(line) {
            let mut cost = self.cfg.lat_l2;
            if write && state == LineState::Shared {
                cost += self.upgrade(proc, line, word, &mut probe);
            }
            // Fill L1 with the (possibly upgraded) state.
            let new_state = if write { LineState::Modified } else { state };
            self.fill_l1(proc, line, new_state);
            self.last_line[proc] = LastLine { line, state: new_state };
            let st = &mut self.stats.per_proc[proc];
            st.accesses += 1;
            st.l2_hits += 1;
            st.mem_cycles += cost;
            if let Some(p) = probe {
                p.access(proc, line, word, write, AccessLevel::L2, cost);
            }
            return (cost, new_state);
        }

        // Memory (through the directory).
        let mut cost;
        let level;
        let entry = self.dir.get(line);
        if let Some(owner) = entry.dirty {
            let owner = owner as usize;
            if owner != proc {
                // Dirty in another cache: 3-hop intervention.
                cost = self.cfg.lat_remote_dirty;
                level = AccessLevel::RemoteDirty;
                self.stats.per_proc[proc].remote_dirty += 1;
                if write {
                    // Transfer ownership: invalidate the previous owner.
                    self.l1[owner].invalidate(line);
                    self.l2[owner].invalidate(line);
                    if self.last_line[owner].line == line {
                        self.last_line[owner] = LastLine::NONE;
                    }
                    if let Some(p) = probe.as_deref_mut() {
                        p.invalidated(owner, line, proc, word);
                    }
                    self.stats.per_proc[owner].invalidations_received += 1;
                    self.set_dir(line, 1u64 << proc, Some(proc));
                } else {
                    // Downgrade the owner to Shared.
                    self.l1[owner].set_state(line, LineState::Shared);
                    self.l2[owner].set_state(line, LineState::Shared);
                    if self.last_line[owner].line == line {
                        self.last_line[owner].state = LineState::Shared;
                    }
                    let sharers = entry.sharers | (1 << proc);
                    self.set_dir(line, sharers, None);
                }
            } else {
                // We are the dirty owner but the line fell out of our
                // caches (silent eviction bookkeeping miss): local refill.
                let home = self.home_of(byte_addr, proc);
                if home == self.cluster[proc] as usize {
                    cost = self.cfg.lat_local;
                    level = AccessLevel::LocalMem;
                } else {
                    cost = self.cfg.lat_remote;
                    level = AccessLevel::RemoteMem;
                }
                self.count_mem(proc, home);
            }
        } else {
            let home = self.home_of(byte_addr, proc);
            if home == self.cluster[proc] as usize {
                cost = self.cfg.lat_local;
                level = AccessLevel::LocalMem;
            } else {
                cost = self.cfg.lat_remote;
                level = AccessLevel::RemoteMem;
            }
            self.count_mem(proc, home);
            if write {
                cost += self.invalidate_sharers(proc, line, entry.sharers, word, &mut probe);
                self.set_dir(line, 1u64 << proc, Some(proc));
            } else {
                self.set_dir(line, entry.sharers | (1 << proc), entry.dirty.map(|p| p as usize));
            }
        }

        let state = if write { LineState::Modified } else { LineState::Shared };
        self.fill_l2(proc, line, state);
        self.fill_l1(proc, line, state);
        self.last_line[proc] = LastLine { line, state };
        let st = &mut self.stats.per_proc[proc];
        st.accesses += 1;
        st.mem_cycles += cost;
        if let Some(p) = probe {
            p.access(proc, line, word, write, level, cost);
        }
        (cost, state)
    }

    fn count_mem(&mut self, proc: usize, home: usize) {
        if home == self.cluster[proc] as usize {
            self.stats.per_proc[proc].local_mem += 1;
        } else {
            self.stats.per_proc[proc].remote_mem += 1;
        }
    }

    fn set_dir(&mut self, line: u64, sharers: u64, dirty: Option<usize>) {
        self.dir.set(line, sharers, dirty);
    }

    /// Write to a Shared line: invalidate all other sharers and take
    /// ownership. Returns the extra cycles.
    fn upgrade(
        &mut self,
        proc: usize,
        line: u64,
        word: u32,
        probe: &mut Option<&mut dyn MemProbe>,
    ) -> u64 {
        self.stats.per_proc[proc].upgrades += 1;
        let entry = self.dir.get(line);
        let others = entry.sharers & !(1u64 << proc);
        let cost = self.invalidate_sharers(proc, line, others, word, probe);
        self.l1[proc].set_state(line, LineState::Modified);
        self.l2[proc].set_state(line, LineState::Modified);
        if self.last_line[proc].line == line {
            self.last_line[proc].state = LineState::Modified;
        }
        self.set_dir(line, 1u64 << proc, Some(proc));
        cost
    }

    fn invalidate_sharers(
        &mut self,
        proc: usize,
        line: u64,
        sharers: u64,
        word: u32,
        probe: &mut Option<&mut dyn MemProbe>,
    ) -> u64 {
        let others = sharers & !(1u64 << proc);
        if others == 0 {
            return 0;
        }
        let mut n = 0;
        for q in 0..self.cfg.nprocs {
            if others & (1 << q) != 0 {
                self.l1[q].invalidate(line);
                self.l2[q].invalidate(line);
                if self.last_line[q].line == line {
                    self.last_line[q] = LastLine::NONE;
                }
                if let Some(p) = probe.as_deref_mut() {
                    p.invalidated(q, line, proc, word);
                }
                self.stats.per_proc[q].invalidations_received += 1;
                n += 1;
            }
        }
        // Invalidations overlap; charge a base plus a small per-sharer term.
        self.cfg.lat_invalidate + 2 * n
    }

    /// Fill L1, maintaining directory bits on eviction (inclusion is kept
    /// loose: an L1 eviction leaves the L2 copy in place).
    fn fill_l1(&mut self, proc: usize, line: u64, state: LineState) {
        if let Some((old, _)) = self.l1[proc].insert(line, state) {
            if self.last_line[proc].line == old {
                self.last_line[proc] = LastLine::NONE;
            }
            // Old line may still live in L2: sharer bit stays unless gone
            // from both.
            if !self.l2[proc].contains(old) {
                self.drop_sharer(proc, old);
            }
        }
    }

    /// Fill L2; enforce inclusion by invalidating L1 on L2 eviction.
    fn fill_l2(&mut self, proc: usize, line: u64, state: LineState) {
        if let Some((old, _old_state)) = self.l2[proc].insert(line, state) {
            self.l1[proc].invalidate(old);
            if self.last_line[proc].line == old {
                self.last_line[proc] = LastLine::NONE;
            }
            self.drop_sharer(proc, old);
        }
    }

    fn drop_sharer(&mut self, proc: usize, line: u64) {
        self.dir.drop_sharer(proc, line);
    }

    /// Cost of a barrier among `active` processors (the executor applies it
    /// to the clocks).
    pub fn barrier_cost(&self, active: usize) -> u64 {
        self.cfg.barrier_cost(active)
    }

    /// Record a synchronization event and return its cycle cost (the
    /// executor applies the cost to the clocks). This is the hook the
    /// race detector's happens-before edges are anchored to: every edge
    /// the detector installs corresponds to exactly one `sync` event.
    pub fn sync(&mut self, op: SyncOp) -> u64 {
        match op {
            SyncOp::Barrier { active } => {
                self.stats.sync.barriers += 1;
                self.cfg.barrier_cost(active)
            }
            SyncOp::LockHandoff => {
                self.stats.sync.lock_handoffs += 1;
                self.cfg.lock_cost
            }
            SyncOp::PipelineHandoff => {
                self.stats.sync.pipeline_handoffs += 1;
                self.cfg.lock_cost
            }
        }
    }
}

/// Multipliers of the two [`StateDigest`] lanes (odd, unrelated).
const DIGEST_K: (u64, u64) = (0x9E37_79B9_7F4A_7C15, 0xD6E8_FEB8_6659_FD93);

/// The 128-bit fold behind [`Machine::state_digest`], one word at a time
/// with no copy; an observer that adds its own state to a time-step
/// boundary digest (`dct-profile`) folds with the same two lanes. The low
/// lane is a bijection of its accumulator for a given word and of the word
/// for a given accumulator, so two sequences that differ in exactly one
/// word always differ in it; the high lane folds a full 64x64 product, so
/// high bits reach low ones.
#[derive(Clone, Copy)]
pub struct StateDigest {
    hi: u64,
    lo: u64,
}

impl Default for StateDigest {
    fn default() -> StateDigest {
        StateDigest { hi: DIGEST_K.1, lo: DIGEST_K.0 }
    }
}

impl StateDigest {
    #[inline]
    pub fn word(&mut self, w: u64) {
        let m = ((self.hi ^ w).wrapping_add(DIGEST_K.0) as u128) * DIGEST_K.1 as u128;
        self.hi = m as u64 ^ (m >> 64) as u64;
        self.lo = (self.lo ^ w).wrapping_mul(DIGEST_K.0).rotate_left(29);
    }

    pub fn finish(self) -> u128 {
        (self.hi as u128) << 64 | self.lo as u128
    }
}

impl Machine {
    /// Every word of state a later access can observe, in one fixed order:
    /// each L1 and L2 slot (tag and state bit), the directory's sharer masks
    /// and dirty owners, the page homes, and the last-line memos. Section
    /// lengths are part of the sequence, so content cannot slide from one
    /// section into the next. Left out, because they can never change an
    /// outcome: the counters in `stats`, and the `last_page` memos, which
    /// only repeat what `page_home` holds (a home never changes once
    /// assigned). `None` when a cache level is associative: its LRU ticks
    /// only grow, so such a machine never returns to an earlier state.
    fn state_words(&self, mut f: impl FnMut(u64)) -> Option<()> {
        for c in self.l1.iter().chain(&self.l2) {
            for &w in c.direct_slots()? {
                f(w);
            }
        }
        f(self.dir.sharers.len() as u64);
        for &w in &self.dir.sharers {
            f(w);
        }
        for ch in self.dir.dirty.chunks(8) {
            let mut owners = [NO_OWNER; 8];
            owners[..ch.len()].copy_from_slice(ch);
            f(u64::from_le_bytes(owners));
        }
        f(self.page_home.homes.len() as u64);
        for &h in &self.page_home.homes {
            f(h as u64);
        }
        for ll in &self.last_line {
            f(ll.line);
            f((ll.state == LineState::Modified) as u64);
        }
        Some(())
    }

    /// A 128-bit digest of the machine's complete state (see
    /// `state_words` for what that is, [`StateDigest`] for the fold): two
    /// machines with equal digests answer every later access stream with
    /// the same costs, counter changes and final state. `None` when a
    /// cache level is associative.
    pub fn state_digest(&self) -> Option<u128> {
        let mut d = StateDigest::default();
        self.state_words(|w| d.word(w))?;
        Some(d.finish())
    }

    /// The words [`Machine::state_digest`] hashes, copied out: debug builds
    /// compare these whenever two digests match, so that a replay taken
    /// under `cargo test` is proved a true recurrence of the state.
    #[cfg(debug_assertions)]
    pub fn state_image(&self) -> Option<Vec<u64>> {
        let mut v = Vec::new();
        self.state_words(|w| v.push(w))?;
        Some(v)
    }
}

/// One slot of a strided access vector executed by [`Machine::access_seg`]:
/// a starting byte address, its per-round delta, and the access kind.
/// The executor resolves each statement reference of a segment into one
/// slot (reads in evaluation order, then the write, per statement).
#[derive(Clone, Copy, Debug)]
pub struct SegAccess {
    /// Byte address of the current round; advanced in place by `dbyte`
    /// per round.
    pub byte: u64,
    /// Per-round address delta in bytes (constant within a segment).
    pub dbyte: i64,
    pub write: bool,
}

impl Machine {
    /// Execute `rounds` rounds of the access vector `accs` in round-major
    /// order (slot 0, slot 1, ..., then advance every slot by its delta
    /// and repeat). Bit-identical to issuing the same accesses one by one
    /// through [`Machine::access_probed`]; the returned cost is the sum
    /// of the per-access costs. An attached probe sees each access as it
    /// happens, one `access_probed` call apiece; without one the rounds
    /// run in `seg_rounds`.
    pub fn access_seg(
        &mut self,
        proc: usize,
        accs: &mut [SegAccess],
        rounds: u64,
        probe: Option<&mut dyn MemProbe>,
    ) -> u64 {
        let Some(probe) = probe else {
            return self.seg_rounds(proc, accs, rounds);
        };
        let mut busy = 0u64;
        for _ in 0..rounds {
            for a in accs.iter_mut() {
                busy += self.access_probed(proc, a.byte, a.write, Some(&mut *probe));
                a.byte = (a.byte as i64).wrapping_add(a.dbyte) as u64;
            }
        }
        busy
    }

    /// `rounds` rounds of `accs` in round-major order, one access at a
    /// time, unobserved. Each access runs [`l1_front`] on locals —
    /// `l1[proc]`'s slots (empty when the L1 is associative, so every
    /// non-memo access takes the miss path, as in `access_probed`), the
    /// last-line memo and the hit counts — which are written back before
    /// every call into the miss path (which hands the new memo back; the
    /// slots are borrowed again) and once at the end, so counters, memo
    /// chain and state are those of `rounds * accs.len()` calls of
    /// [`Machine::access`]. Each slot moves by its delta after its access.
    fn seg_rounds(&mut self, proc: usize, accs: &mut [SegAccess], rounds: u64) -> u64 {
        let shift = self.line_shift;
        let mut busy = 0u64;
        let mut slots = self.l1_slots(proc);
        let mut memo = self.last_line[proc];
        let (mut hits, mut fast) = (0u64, 0u64);
        for _ in 0..rounds {
            for a in accs.iter_mut() {
                let line = a.byte >> shift;
                match l1_front(memo, slots, line, a.write) {
                    Front::Memo => {
                        hits += 1;
                        fast += 1;
                    }
                    Front::Hit(state) => {
                        hits += 1;
                        memo = LastLine { line, state };
                    }
                    Front::Miss(look) => {
                        // A run of misses has nothing to write back.
                        if hits > 0 {
                            busy += self.note_hits(proc, memo, hits, fast);
                            (hits, fast) = (0, 0);
                        }
                        let (cost, state) = self.access_miss(proc, a.byte, a.write, look, None);
                        busy += cost;
                        slots = self.l1_slots(proc);
                        memo = LastLine { line, state };
                    }
                }
                a.byte = (a.byte as i64).wrapping_add(a.dbyte) as u64;
            }
        }
        busy + self.note_hits(proc, memo, hits, fast)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(nprocs: usize) -> Machine {
        Machine::new(MachineConfig::tiny(nprocs))
    }

    #[test]
    fn cold_then_hot() {
        let mut mach = m(2);
        let c0 = mach.access(0, 0, false);
        assert_eq!(c0, mach.cfg.lat_local, "cold miss goes to local memory (first touch)");
        let c1 = mach.access(0, 0, false);
        assert_eq!(c1, mach.cfg.lat_l1, "second access hits L1");
        assert_eq!(mach.stats.per_proc[0].l1_hits, 1);
    }

    #[test]
    fn first_touch_placement() {
        let mut mach = m(4); // clusters of 2
        // Proc 3 (cluster 1) touches page 0 first: home = cluster 1.
        mach.access(3, 0, false);
        // Proc 0 (cluster 0) then misses remotely.
        let c = mach.access(0, 1, false);
        assert_eq!(c, mach.cfg.lat_remote);
        assert_eq!(mach.stats.per_proc[0].remote_mem, 1);
    }

    #[test]
    fn true_sharing_invalidation() {
        let mut mach = m(2);
        mach.access(0, 0, false); // P0 caches the line Shared
        mach.access(1, 0, false); // P1 too
        mach.access(1, 0, true); // P1 writes: upgrade, invalidate P0
        assert_eq!(mach.stats.per_proc[1].upgrades, 1);
        assert_eq!(mach.stats.per_proc[0].invalidations_received, 1);
        // P0's next read must fetch the dirty line from P1.
        let c = mach.access(0, 0, false);
        assert_eq!(c, mach.cfg.lat_remote_dirty);
        assert_eq!(mach.stats.per_proc[0].remote_dirty, 1);
    }

    #[test]
    fn false_sharing_same_line() {
        let mut mach = m(2);
        // P0 writes byte 0, P1 writes byte 8: same 16-byte line.
        mach.access(0, 0, true);
        let c = mach.access(1, 8, true);
        // P1 must steal the dirty line from P0.
        assert_eq!(c, mach.cfg.lat_remote_dirty);
        assert_eq!(mach.stats.per_proc[0].invalidations_received, 1);
        // Ping-pong: P0 writes again, stealing back.
        let c = mach.access(0, 0, true);
        assert_eq!(c, mach.cfg.lat_remote_dirty);
    }

    #[test]
    fn distinct_lines_no_interference() {
        let mut mach = m(2);
        mach.access(0, 0, true);
        mach.access(1, 16, true); // next line
        assert_eq!(mach.stats.per_proc[0].invalidations_received, 0);
        assert_eq!(mach.stats.per_proc[1].invalidations_received, 0);
        assert_eq!(mach.access(0, 0, true), mach.cfg.lat_l1);
        assert_eq!(mach.access(1, 16, true), mach.cfg.lat_l1);
    }

    #[test]
    fn conflict_misses_direct_mapped() {
        let mut mach = m(1);
        // tiny: L1 256B/16B = 16 sets, L2 1024B/16B = 64 sets.
        // Lines 0 and 64 collide in both L1 (64 % 16 == 0) and L2.
        mach.access(0, 0, false);
        mach.access(0, 64 * 16, false);
        // Line 0 was evicted from both: next access misses to memory.
        let c = mach.access(0, 0, false);
        assert_eq!(c, mach.cfg.lat_local);
    }

    #[test]
    fn l2_hit_after_l1_conflict() {
        let mut mach = m(1);
        // Lines 0 and 16 collide in L1 (16 sets) but not L2 (64 sets).
        mach.access(0, 0, false);
        mach.access(0, 16 * 16, false);
        let c = mach.access(0, 0, false);
        assert_eq!(c, mach.cfg.lat_l2);
        assert_eq!(mach.stats.per_proc[0].l2_hits, 1);
    }

    #[test]
    fn write_read_same_proc_stays_cheap() {
        let mut mach = m(2);
        mach.access(0, 0, true);
        assert_eq!(mach.access(0, 0, false), mach.cfg.lat_l1);
        assert_eq!(mach.access(0, 0, true), mach.cfg.lat_l1);
        assert_eq!(mach.stats.per_proc[0].upgrades, 0, "modified line needs no upgrade");
    }

    #[test]
    fn read_after_remote_write_downgrades() {
        let mut mach = m(2);
        mach.access(1, 0, true);
        mach.access(0, 0, false); // 3-hop, downgrades P1 to Shared
        // P1 can still read its (now Shared) line at L1 cost.
        assert_eq!(mach.access(1, 0, false), mach.cfg.lat_l1);
        // But writing again requires an upgrade.
        mach.access(1, 0, true);
        assert_eq!(mach.stats.per_proc[1].upgrades, 1);
    }

    #[test]
    fn stats_aggregate() {
        let mut mach = m(2);
        mach.access(0, 0, false);
        mach.access(1, 64, true);
        let t = mach.stats.total();
        assert_eq!(t.accesses, 2);
        assert!(mach.stats.memory_miss_rate() > 0.99);
    }

    #[test]
    fn explicit_page_placement() {
        let mut mach = m(4);
        mach.place_page(0, 1);
        // Proc 0 (cluster 0) touches it: remote despite first touch.
        let c = mach.access(0, 0, false);
        assert_eq!(c, mach.cfg.lat_remote);
    }

    #[test]
    fn write_after_silent_eviction_reestablishes_ownership() {
        let mut mach = m(2);
        // P0 takes line 0 Modified.
        mach.access(0, 0, true);
        // A conflicting line (same set in both levels under the tiny
        // config) evicts line 0; the eviction writes back and clears the
        // directory's dirty owner.
        mach.access(0, 64 * 16, false);
        // Rewriting refills from local memory (P0 first-touched the page).
        let c = mach.access(0, 0, true);
        assert_eq!(c, mach.cfg.lat_local);
        assert_eq!(mach.stats.per_proc[0].local_mem, 3, "both lines plus the refill are local");
        // The directory again records P0 as dirty owner: a remote read
        // pays the 3-hop intervention.
        let c = mach.access(1, 0, false);
        assert_eq!(c, mach.cfg.lat_remote_dirty);
        assert_eq!(mach.stats.per_proc[1].remote_dirty, 1);
    }

    #[test]
    fn last_line_fast_path_counts_and_costs() {
        let mut mach = m(2);
        mach.access(0, 0, true); // line 0 Modified, becomes the last line
        for _ in 0..5 {
            assert_eq!(mach.access(0, 4, true), mach.cfg.lat_l1);
            assert_eq!(mach.access(0, 8, false), mach.cfg.lat_l1);
        }
        assert_eq!(mach.stats.per_proc[0].l1_hits, 10);
        assert_eq!(mach.stats.per_proc[0].l1_fast_hits, 10);
        // A write to a Shared line must still take the upgrade path even
        // when it is the processor's last-touched line.
        mach.access(1, 0, false); // downgrades P0 to Shared
        assert_eq!(mach.stats.per_proc[0].upgrades, 0);
        mach.access(0, 0, true);
        assert_eq!(mach.stats.per_proc[0].upgrades, 1);
        assert_eq!(mach.stats.per_proc[1].invalidations_received, 1);
    }

    /// Reference for `access_seg`: the same stream, one access at a time.
    fn seg_reference(m: &mut Machine, proc: usize, accs: &[SegAccess], rounds: u64) -> u64 {
        let mut accs = accs.to_vec();
        let mut busy = 0;
        for _ in 0..rounds {
            for a in accs.iter_mut() {
                busy += m.access(proc, a.byte, a.write);
                a.byte = (a.byte as i64 + a.dbyte) as u64;
            }
        }
        busy
    }

    fn assert_seg_matches(
        accs: &[SegAccess],
        rounds: u64,
        cfg: MachineConfig,
        warm: &[(usize, u64, bool)],
    ) {
        let mut a = Machine::new(cfg.clone());
        let mut b = Machine::new(cfg);
        for &(p, addr, w) in warm {
            a.access(p, addr, w);
            b.access(p, addr, w);
        }
        let ca = seg_reference(&mut a, 0, accs, rounds);
        let mut accs_b = accs.to_vec();
        let cb = b.access_seg(0, &mut accs_b, rounds, None);
        assert_eq!(ca, cb, "total cost");
        assert_eq!(a.stats, b.stats, "counters");
        assert_eq!(a.last_line[0].line, b.last_line[0].line, "memo line");
        assert_eq!(a.last_line[0].state, b.last_line[0].state, "memo state");
        // Post-segment accesses behave identically (cache + dir state).
        for addr in (0..2048u64).step_by(48) {
            assert_eq!(a.access(0, addr, addr % 96 == 0), b.access(0, addr, addr % 96 == 0));
        }
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn access_seg_unit_stride_matches_reference() {
        // Two 4-byte read streams + one write stream, unit stride: the
        // shape of a transformed-layout segment (tiny config: 64B pages,
        // 16B lines, so plenty of boundary crossings in 200 rounds).
        let accs = [
            SegAccess { byte: 4096, dbyte: 4, write: false },
            SegAccess { byte: 8192, dbyte: 4, write: false },
            SegAccess { byte: 0, dbyte: 4, write: true },
        ];
        assert_seg_matches(&accs, 200, MachineConfig::tiny(2), &[]);
    }

    #[test]
    fn access_seg_mixed_strides_and_broadcast() {
        // 8-byte elements, a negative stride, and a dbyte==0 broadcast
        // slot (the LU divisor pattern).
        let accs = [
            SegAccess { byte: 2048, dbyte: 0, write: false },
            SegAccess { byte: 4000, dbyte: -8, write: false },
            SegAccess { byte: 256, dbyte: 8, write: true },
        ];
        assert_seg_matches(&accs, 120, MachineConfig::tiny(2), &[]);
    }

    #[test]
    fn access_seg_conflicting_slots_stay_exact() {
        // tiny L1 = 16 sets: lines 0 and 16 collide, so the two streams
        // evict each other every round.
        let accs = [
            SegAccess { byte: 0, dbyte: 4, write: false },
            SegAccess { byte: 16 * 16, dbyte: 4, write: true },
        ];
        assert_seg_matches(&accs, 64, MachineConfig::tiny(1), &[]);
    }

    #[test]
    fn access_seg_associative_l1_matches_reference() {
        // 2-way L1 = 8 sets: lines 0, 8 and 16 share a set, so three
        // streams keep evicting the least recently used of each other;
        // every access that misses the memo probes (and ticks) the LRU.
        let cfg = MachineConfig { l1_assoc: 2, ..MachineConfig::tiny(2) };
        let accs = [
            SegAccess { byte: 0, dbyte: 4, write: false },
            SegAccess { byte: 8 * 16, dbyte: 4, write: false },
            SegAccess { byte: 16 * 16, dbyte: 4, write: true },
            SegAccess { byte: 16 * 16, dbyte: 0, write: false },
        ];
        assert_seg_matches(&accs, 100, cfg, &[(1, 0, false), (0, 4096, true)]);
    }

    #[test]
    fn access_seg_after_remote_sharing() {
        // Warm the line Shared at another processor: the first write
        // round takes the upgrade path, steady rounds stay Modified.
        let accs = [
            SegAccess { byte: 0, dbyte: 4, write: false },
            SegAccess { byte: 0, dbyte: 4, write: true },
        ];
        let warm = [(1, 0, false), (1, 64, false), (0, 0, false)];
        assert_seg_matches(&accs, 40, MachineConfig::tiny(2), &warm);
    }

    #[test]
    fn access_seg_single_read_slot_all_fast_hits() {
        let accs = [SegAccess { byte: 0, dbyte: 4, write: false }];
        assert_seg_matches(&accs, 16, MachineConfig::tiny(1), &[]);
        // Same line throughout (4 rounds x 4 bytes inside a 16B line):
        // rounds 2..4 must be memo fast hits, like the reference.
        let mut mach = m(1);
        let mut accs = [SegAccess { byte: 0, dbyte: 4, write: false }];
        mach.access_seg(0, &mut accs, 4, None);
        assert_eq!(mach.stats.per_proc[0].l1_fast_hits, 3);
        assert_eq!(mach.stats.per_proc[0].l1_hits, 3);
        assert_eq!(mach.stats.per_proc[0].accesses, 4);
    }

    /// Changing any single component of the state changes the digest; the
    /// same stream on a fresh machine reproduces it.
    #[test]
    fn state_digest_sees_every_component() {
        fn warmed() -> Machine {
            let mut mach = m(4);
            for (p, a, w) in [(0, 0, true), (1, 16, false), (2, 16, false), (3, 4096, true)] {
                mach.access(p, a, w);
            }
            mach
        }
        let base = warmed().state_digest();
        assert!(base.is_some());
        assert_eq!(warmed().state_digest(), base);
        type Poke = fn(&mut Machine);
        let pokes: [(&str, Poke); 10] = [
            ("l1 tag", |x| {
                x.l1[1].insert(77, LineState::Shared);
            }),
            ("l1 state bit", |x| x.l1[1].set_state(1, LineState::Modified)),
            ("l2 tag", |x| {
                x.l2[2].insert(77, LineState::Shared);
            }),
            ("l2 state bit", |x| x.l2[0].set_state(0, LineState::Shared)),
            ("sharer bit", |x| x.dir.sharers[1] ^= 1 << 3),
            ("dirty owner", |x| x.dir.dirty[0] = 2),
            ("clean to dirty", |x| x.dir.dirty[1] = 1),
            ("page home", |x| x.page_home.homes[0] ^= 1),
            ("last-line line", |x| x.last_line[2].line = 5),
            ("last-line state", |x| x.last_line[1].state = LineState::Modified),
        ];
        for (what, poke) in pokes {
            let mut mach = warmed();
            poke(&mut mach);
            assert_ne!(mach.state_digest(), base, "{what}");
        }
        let assoc = Machine::new(MachineConfig { l1_assoc: 2, ..MachineConfig::tiny(2) });
        assert_eq!(assoc.state_digest(), None);
    }

    #[test]
    fn fast_path_invalidation_coherence() {
        let mut mach = m(2);
        mach.access(0, 0, false); // P0 Shared, last line
        mach.access(1, 0, true); // P1 writes: upgrade invalidates P0
        // P0's repeat read must NOT fast-hit the stale record: the line is
        // dirty at P1 now.
        let c = mach.access(0, 0, false);
        assert_eq!(c, mach.cfg.lat_remote_dirty);
    }
}
