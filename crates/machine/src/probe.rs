//! Observer hooks for memory-behavior attribution.
//!
//! The machine model resolves every access to a level (L1, L2, local or
//! remote memory, dirty remote intervention) and drives the directory's
//! invalidations — exactly the events a miss classifier or sharing
//! attributor needs, but enriched with context (which nest, which array)
//! the machine does not have. [`MemProbe`] exposes those events to an
//! external observer owned by the executor; `dct-profile` implements it.
//!
//! Probes are pure observers: they receive the already-decided outcome
//! and cost of each access and can never feed back into timing, so a run
//! with a probe attached is cycle-identical to one without.

/// Where an access was resolved. Memory levels also carry the NUMA
/// locality the machine charged for the fill.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessLevel {
    /// First-level cache hit (including the last-line fast path).
    L1,
    /// Second-level cache hit.
    L2,
    /// Miss filled from the local cluster's memory.
    LocalMem,
    /// Miss filled from a remote cluster's memory.
    RemoteMem,
    /// Miss serviced by a 3-hop intervention on a dirty remote cache.
    RemoteDirty,
}

impl AccessLevel {
    /// True when the access missed both cache levels.
    pub fn is_miss(self) -> bool {
        !matches!(self, AccessLevel::L1 | AccessLevel::L2)
    }
}

/// Observer of the machine's per-access outcomes and coherence actions.
///
/// `line` is the line number (byte address / line size); `word` is the
/// byte offset of the access within its line, which is what separates
/// true sharing (same word as the invalidating write) from false sharing
/// (different word of the same line).
pub trait MemProbe {
    /// One access by `proc` resolved at `level`, costing `cost` cycles
    /// (the exact latency the machine charged, upgrades included).
    fn access(&mut self, proc: usize, line: u64, word: u32, write: bool, level: AccessLevel, cost: u64);

    /// `victim`'s cached copy of `line` was invalidated by `writer`'s
    /// store to `word` (upgrade, write miss, or dirty-ownership transfer).
    fn invalidated(&mut self, victim: usize, line: u64, writer: usize, word: u32);
}
