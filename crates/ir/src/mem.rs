//! Report types for the memory-behavior profiler (`dct-profile`).
//!
//! Like [`crate::race::RaceReport`], the *engine* lives downstream (woven
//! into the machine model and the SPMD executor) while the report lives
//! here so `dct-core`'s optimization report and the `dct-bench` harnesses
//! can consume it without depending on the simulator.
//!
//! A [`MemProfile`] is a sparse per-(site, array, processor) table: every
//! simulated memory reference is attributed to the nest that issued it
//! ("site": init nests first, then compute nests in program order), the
//! array it touched, and the issuing processor. Misses carry the 4-C
//! classification with coherence misses split into **true sharing** (the
//! missing word is the one the invalidating write stored) and **false
//! sharing** (a different word of the same line — the pure artifact of
//! line granularity the paper's data transformations eliminate).

/// One attribution cell: everything `proc` did to `array` inside `site`.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct MemRow {
    /// Index into [`MemProfile::sites`].
    pub site: usize,
    /// Index into [`MemProfile::arrays`].
    pub array: usize,
    pub proc: usize,
    pub accesses: u64,
    pub l1_hits: u64,
    pub l2_hits: u64,
    /// Misses filled from same-cluster memory.
    pub local_mem: u64,
    /// Misses filled from a remote cluster's memory.
    pub remote_mem: u64,
    /// Misses serviced by a 3-hop dirty-cache intervention.
    pub remote_dirty: u64,
    /// First touch of a line by this processor.
    pub cold: u64,
    /// A fully-associative LRU cache of L1 capacity would also have missed.
    pub capacity: u64,
    /// The shadow fully-associative cache still held the line: a
    /// direct-mapped/set-conflict artifact.
    pub conflict: u64,
    /// Coherence miss on the very word the invalidating write stored.
    pub coh_true: u64,
    /// Coherence miss on a *different* word of the invalidated line.
    pub coh_false: u64,
    /// Invalidations this processor received for lines of this array.
    pub invalidations: u64,
    /// Exact memory-stall cycles the machine charged these accesses.
    pub mem_cycles: u64,
}

impl MemRow {
    /// Total misses (both cache levels missed).
    pub fn misses(&self) -> u64 {
        self.local_mem + self.remote_mem + self.remote_dirty
    }

    /// Coherence misses (true + false sharing).
    pub fn coherence(&self) -> u64 {
        self.coh_true + self.coh_false
    }

    /// Classified misses; equals [`MemRow::misses`] by construction (the
    /// property tests pin this conservation law).
    pub fn classified(&self) -> u64 {
        self.cold + self.capacity + self.conflict + self.coherence()
    }

    /// Fraction of misses that crossed the cluster boundary.
    pub fn remote_fraction(&self) -> f64 {
        let m = self.misses();
        if m == 0 {
            0.0
        } else {
            (self.remote_mem + self.remote_dirty) as f64 / m as f64
        }
    }

    /// Fold another row's counters into this one (attribution indices are
    /// kept from `self`; used for aggregation over processors or arrays).
    pub fn absorb(&mut self, o: &MemRow) {
        self.accesses += o.accesses;
        self.l1_hits += o.l1_hits;
        self.l2_hits += o.l2_hits;
        self.local_mem += o.local_mem;
        self.remote_mem += o.remote_mem;
        self.remote_dirty += o.remote_dirty;
        self.cold += o.cold;
        self.capacity += o.capacity;
        self.conflict += o.conflict;
        self.coh_true += o.coh_true;
        self.coh_false += o.coh_false;
        self.invalidations += o.invalidations;
        self.mem_cycles += o.mem_cycles;
    }

    /// The counters accrued since `base`, an earlier reading of the same
    /// cell (attribution indices are kept from `self`).
    pub fn since(&self, base: &MemRow) -> MemRow {
        MemRow {
            accesses: self.accesses - base.accesses,
            l1_hits: self.l1_hits - base.l1_hits,
            l2_hits: self.l2_hits - base.l2_hits,
            local_mem: self.local_mem - base.local_mem,
            remote_mem: self.remote_mem - base.remote_mem,
            remote_dirty: self.remote_dirty - base.remote_dirty,
            cold: self.cold - base.cold,
            capacity: self.capacity - base.capacity,
            conflict: self.conflict - base.conflict,
            coh_true: self.coh_true - base.coh_true,
            coh_false: self.coh_false - base.coh_false,
            invalidations: self.invalidations - base.invalidations,
            mem_cycles: self.mem_cycles - base.mem_cycles,
            ..*self
        }
    }
}

/// The memory-behavior profile of one simulated run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MemProfile {
    /// Site labels: init nests first (in order), then compute nests.
    pub sites: Vec<String>,
    /// How many leading entries of `sites` are init nests.
    pub init_sites: usize,
    pub arrays: Vec<String>,
    pub nprocs: usize,
    /// Non-empty attribution cells, in (site, array, proc) order.
    pub rows: Vec<MemRow>,
}

impl MemProfile {
    /// Grand total over every cell.
    pub fn total(&self) -> MemRow {
        let mut t = MemRow::default();
        for r in &self.rows {
            t.absorb(r);
        }
        t
    }

    /// Aggregate over processors: one row per (site, array), ordered by
    /// descending memory-stall cycles — the "why is this slow" ranking.
    pub fn by_site_array(&self) -> Vec<MemRow> {
        let mut agg: Vec<MemRow> = Vec::new();
        for r in &self.rows {
            match agg.iter_mut().find(|a| a.site == r.site && a.array == r.array) {
                Some(a) => a.absorb(r),
                None => {
                    let mut a = *r;
                    a.proc = usize::MAX; // aggregated over processors
                    agg.push(a);
                }
            }
        }
        agg.sort_by(|a, b| b.mem_cycles.cmp(&a.mem_cycles).then(a.site.cmp(&b.site)));
        agg
    }

    /// Aggregate over sites and processors: one row per array.
    pub fn by_array(&self) -> Vec<MemRow> {
        let mut agg: Vec<MemRow> = Vec::new();
        for r in &self.rows {
            match agg.iter_mut().find(|a| a.array == r.array) {
                Some(a) => a.absorb(r),
                None => {
                    let mut a = *r;
                    a.site = usize::MAX;
                    a.proc = usize::MAX;
                    agg.push(a);
                }
            }
        }
        agg.sort_by(|a, b| b.mem_cycles.cmp(&a.mem_cycles).then(a.array.cmp(&b.array)));
        agg
    }

    /// Total over rows selected by predicate (e.g. one nest, one array).
    pub fn total_where(&self, mut pred: impl FnMut(&MemRow) -> bool) -> MemRow {
        let mut t = MemRow::default();
        for r in self.rows.iter().filter(|r| pred(r)) {
            t.absorb(r);
        }
        t
    }

    /// Index of the named site, if present.
    pub fn site_index(&self, name: &str) -> Option<usize> {
        self.sites.iter().position(|s| s == name)
    }

    /// Index of the named array, if present.
    pub fn array_index(&self, name: &str) -> Option<usize> {
        self.arrays.iter().position(|a| a == name)
    }

    /// Render the ranked attribution table: the top `limit` (site, array)
    /// cells by memory-stall cycles, with the miss classification and the
    /// sharing split spelled out.
    pub fn render_ranked(&self, limit: usize) -> String {
        let mut out = String::new();
        let total = self.total();
        out.push_str(&format!(
            "nest         array     stall-cyc  stall%  miss%  remote%   cold  capac  confl  true-sh  false-sh  inval\n"
        ));
        let _ = &total;
        for r in self.by_site_array().into_iter().take(limit) {
            let site = self.sites.get(r.site).map(|s| s.as_str()).unwrap_or("?");
            let array = self.arrays.get(r.array).map(|s| s.as_str()).unwrap_or("?");
            out.push_str(&format!(
                "{:<12} {:<9} {:>9} {:>6.1}% {:>5.1}% {:>7.1}% {:>6} {:>6} {:>6} {:>8} {:>9} {:>6}\n",
                site,
                array,
                r.mem_cycles,
                if total.mem_cycles == 0 {
                    0.0
                } else {
                    100.0 * r.mem_cycles as f64 / total.mem_cycles as f64
                },
                if r.accesses == 0 { 0.0 } else { 100.0 * r.misses() as f64 / r.accesses as f64 },
                100.0 * r.remote_fraction(),
                r.cold,
                r.capacity,
                r.conflict,
                r.coh_true,
                r.coh_false,
                r.invalidations,
            ));
        }
        out
    }

    fn json_escape(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }

    /// JSON encoding (hand-rolled, like the rest of the repo's artifacts:
    /// every field is a number or a plain string).
    pub fn to_json(&self, indent: &str) -> String {
        let mut out = String::new();
        let i1 = indent;
        out.push_str("{\n");
        out.push_str(&format!("{i1}  \"nprocs\": {},\n", self.nprocs));
        out.push_str(&format!(
            "{i1}  \"sites\": [{}],\n",
            self.sites
                .iter()
                .map(|s| format!("\"{}\"", Self::json_escape(s)))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!(
            "{i1}  \"arrays\": [{}],\n",
            self.arrays
                .iter()
                .map(|s| format!("\"{}\"", Self::json_escape(s)))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!("{i1}  \"rows\": [\n"));
        let rows = self.by_site_array();
        for (k, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "{i1}    {{\"site\": \"{}\", \"array\": \"{}\", \"accesses\": {}, \"l1_hits\": {}, \"l2_hits\": {}, \"local_mem\": {}, \"remote_mem\": {}, \"remote_dirty\": {}, \"cold\": {}, \"capacity\": {}, \"conflict\": {}, \"true_sharing\": {}, \"false_sharing\": {}, \"invalidations\": {}, \"mem_cycles\": {}}}{}\n",
                Self::json_escape(self.sites.get(r.site).map(|s| s.as_str()).unwrap_or("?")),
                Self::json_escape(self.arrays.get(r.array).map(|s| s.as_str()).unwrap_or("?")),
                r.accesses,
                r.l1_hits,
                r.l2_hits,
                r.local_mem,
                r.remote_mem,
                r.remote_dirty,
                r.cold,
                r.capacity,
                r.conflict,
                r.coh_true,
                r.coh_false,
                r.invalidations,
                r.mem_cycles,
                if k + 1 == rows.len() { "" } else { "," }
            ));
        }
        out.push_str(&format!("{i1}  ]\n"));
        out.push_str(&format!("{i1}}}"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> MemProfile {
        MemProfile {
            sites: vec!["init".into(), "sweep".into()],
            init_sites: 1,
            arrays: vec!["A".into(), "B".into()],
            nprocs: 2,
            rows: vec![
                MemRow {
                    site: 1,
                    array: 0,
                    proc: 0,
                    accesses: 100,
                    l1_hits: 80,
                    l2_hits: 5,
                    local_mem: 5,
                    remote_mem: 4,
                    remote_dirty: 6,
                    cold: 5,
                    capacity: 2,
                    conflict: 1,
                    coh_true: 3,
                    coh_false: 4,
                    invalidations: 7,
                    mem_cycles: 1500,
                },
                MemRow {
                    site: 1,
                    array: 0,
                    proc: 1,
                    accesses: 50,
                    l1_hits: 50,
                    mem_cycles: 50,
                    ..MemRow::default()
                },
            ],
        }
    }

    #[test]
    fn conservation_and_aggregation() {
        let p = profile();
        let t = p.total();
        assert_eq!(t.accesses, 150);
        assert_eq!(t.misses(), 15);
        assert_eq!(t.classified(), t.misses());
        let by = p.by_site_array();
        assert_eq!(by.len(), 1);
        assert_eq!(by[0].accesses, 150);
        assert!((by[0].remote_fraction() - 10.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn render_and_json_name_the_cells() {
        let p = profile();
        let txt = p.render_ranked(8);
        assert!(txt.contains("sweep"), "{txt}");
        assert!(txt.contains("false-sh"), "{txt}");
        let j = p.to_json("");
        assert!(j.contains("\"false_sharing\": 4"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn lookup_helpers() {
        let p = profile();
        assert_eq!(p.site_index("sweep"), Some(1));
        assert_eq!(p.array_index("B"), Some(1));
        assert_eq!(p.array_index("C"), None);
        let t = p.total_where(|r| r.proc == 1);
        assert_eq!(t.accesses, 50);
    }
}
