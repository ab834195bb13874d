//! Set-associative cache model with LRU replacement and a two-state
//! (Shared/Modified) line protocol driven by the directory in
//! [`crate::system`].
//!
//! Direct-mapped caches (the DASH configuration, and the hot case for
//! every probe the simulator performs) use a packed representation: one
//! `u64` per set holding the tag with the coherence state in the top bit,
//! `u64::MAX` meaning empty. A probe touches 8 bytes of host memory
//! instead of a 32-byte `Option<CacheLine>` way, which matters because
//! the simulated caches of 32 processors far exceed the host's own cache.

/// Coherence state of a cached line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LineState {
    Shared,
    Modified,
}

#[derive(Clone, Copy, Debug)]
struct CacheLine {
    tag: u64,
    state: LineState,
    /// Larger = more recently used.
    lru: u64,
}

/// Tag bit recording `LineState::Modified` in the packed representation.
const MOD_BIT: u64 = 1 << 63;
/// Empty-slot sentinel (no line number can reach it: addresses are divided
/// by the line size, so bit 63 is never set in a real tag).
const EMPTY: u64 = u64::MAX;

enum Repr {
    /// Direct-mapped: `slots[set]` = tag | state bit, or `EMPTY`.
    Direct { slots: Vec<u64> },
    /// General set-associative with LRU ticks.
    Assoc { ways: Vec<Option<CacheLine>>, assoc: usize, tick: u64 },
}

/// One cache level of one processor.
pub struct Cache {
    repr: Repr,
    /// `nsets - 1`; set count is a power of two, so `line & set_mask`
    /// replaces the modulo.
    set_mask: u64,
}

#[inline]
fn pack(line_addr: u64, state: LineState) -> u64 {
    line_addr | if state == LineState::Modified { MOD_BIT } else { 0 }
}

#[inline]
fn unpack(slot: u64) -> (u64, LineState) {
    (
        slot & !MOD_BIT,
        if slot & MOD_BIT != 0 { LineState::Modified } else { LineState::Shared },
    )
}

/// The direct-mapped look-up on borrowed [`Cache::direct_slots`]: is
/// `line_addr` resident `(Modified, Shared)`? At most one is true. A free
/// function so that a loop can keep the slots in a local across many
/// look-ups, and two whole-word compares instead of a tag compare and a
/// state test so that the caller can fold "resident in a state that
/// suffices" into one branch: the hit or miss of a simulated access is the
/// least predictable branch the host executes.
#[inline(always)]
pub(crate) fn direct_lookup(slots: &[u64], line_addr: u64) -> (bool, bool) {
    let slot = slots[line_addr as usize & (slots.len() - 1)];
    (slot == pack(line_addr, LineState::Modified), slot == line_addr)
}

impl Cache {
    /// `size`/`line` in bytes; `assoc` ways.
    pub fn new(size: usize, line: usize, assoc: usize) -> Cache {
        let nsets = size / line / assoc;
        assert!(nsets.is_power_of_two(), "set count must be a power of two");
        let repr = if assoc == 1 {
            Repr::Direct { slots: vec![EMPTY; nsets] }
        } else {
            Repr::Assoc { ways: vec![None; nsets * assoc], assoc, tick: 0 }
        };
        Cache { repr, set_mask: nsets as u64 - 1 }
    }

    /// Look up a line; returns its state if present (and touches LRU).
    #[inline]
    pub fn probe(&mut self, line_addr: u64) -> Option<LineState> {
        let set = (line_addr & self.set_mask) as usize;
        match &mut self.repr {
            Repr::Direct { slots } => {
                let (tag, state) = unpack(slots[set]);
                (tag == line_addr).then_some(state)
            }
            Repr::Assoc { ways, assoc, tick } => {
                *tick += 1;
                let t = *tick;
                for way in ways[set * *assoc..(set + 1) * *assoc].iter_mut().flatten() {
                    if way.tag == line_addr {
                        way.lru = t;
                        return Some(way.state);
                    }
                }
                None
            }
        }
    }

    /// Presence check without LRU update.
    pub fn contains(&self, line_addr: u64) -> bool {
        let set = (line_addr & self.set_mask) as usize;
        match &self.repr {
            Repr::Direct { slots } => unpack(slots[set]).0 == line_addr,
            Repr::Assoc { ways, assoc, .. } => ways[set * assoc..(set + 1) * assoc]
                .iter()
                .flatten()
                .any(|w| w.tag == line_addr),
        }
    }

    /// Upgrade a present line to Modified (no-op if absent).
    pub fn set_state(&mut self, line_addr: u64, state: LineState) {
        let set = (line_addr & self.set_mask) as usize;
        match &mut self.repr {
            Repr::Direct { slots } => {
                if unpack(slots[set]).0 == line_addr {
                    slots[set] = pack(line_addr, state);
                }
            }
            Repr::Assoc { ways, assoc, .. } => {
                for way in ways[set * *assoc..(set + 1) * *assoc].iter_mut().flatten() {
                    if way.tag == line_addr {
                        way.state = state;
                    }
                }
            }
        }
    }

    /// Insert a line, evicting LRU if needed. Returns the evicted line
    /// (address, state) if any.
    pub fn insert(&mut self, line_addr: u64, state: LineState) -> Option<(u64, LineState)> {
        let set = (line_addr & self.set_mask) as usize;
        match &mut self.repr {
            Repr::Direct { slots } => {
                let old = slots[set];
                slots[set] = pack(line_addr, state);
                if old == EMPTY {
                    return None;
                }
                let (tag, old_state) = unpack(old);
                (tag != line_addr).then_some((tag, old_state))
            }
            Repr::Assoc { ways, assoc, tick } => {
                *tick += 1;
                let t = *tick;
                let range = set * *assoc..(set + 1) * *assoc;
                // Already present: update.
                for way in ways[range.clone()].iter_mut().flatten() {
                    if way.tag == line_addr {
                        way.state = state;
                        way.lru = t;
                        return None;
                    }
                }
                // Free way?
                if let Some(slot) = ways[range.clone()].iter_mut().find(|w| w.is_none()) {
                    *slot = Some(CacheLine { tag: line_addr, state, lru: t });
                    return None;
                }
                // Evict LRU.
                let victim =
                    ways[range].iter_mut().min_by_key(|w| w.as_ref().unwrap().lru).unwrap();
                let old = victim.take().unwrap();
                *victim = Some(CacheLine { tag: line_addr, state, lru: t });
                Some((old.tag, old.state))
            }
        }
    }

    /// Remove a line (directory-initiated invalidation). Returns true if it
    /// was present.
    pub fn invalidate(&mut self, line_addr: u64) -> bool {
        let set = (line_addr & self.set_mask) as usize;
        match &mut self.repr {
            Repr::Direct { slots } => {
                if unpack(slots[set]).0 == line_addr {
                    slots[set] = EMPTY;
                    return true;
                }
                false
            }
            Repr::Assoc { ways, assoc, .. } => {
                for way in ways[set * *assoc..(set + 1) * *assoc].iter_mut() {
                    if way.is_some_and(|w| w.tag == line_addr) {
                        *way = None;
                        return true;
                    }
                }
                false
            }
        }
    }

    /// Drop everything (used between independent simulations).
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Direct { slots } => slots.fill(EMPTY),
            Repr::Assoc { ways, .. } => ways.fill(None),
        }
    }

    /// The packed slots of a direct-mapped cache (`None` when associative):
    /// its complete state, one word per set.
    pub fn direct_slots(&self) -> Option<&[u64]> {
        match &self.repr {
            Repr::Direct { slots } => Some(slots),
            Repr::Assoc { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss() {
        let mut c = Cache::new(256, 16, 1); // 16 sets
        assert_eq!(c.probe(5), None);
        assert_eq!(c.insert(5, LineState::Shared), None);
        assert_eq!(c.probe(5), Some(LineState::Shared));
    }

    #[test]
    fn direct_mapped_conflict() {
        let mut c = Cache::new(256, 16, 1); // 16 sets: lines 0 and 16 collide
        c.insert(0, LineState::Shared);
        let evicted = c.insert(16, LineState::Modified);
        assert_eq!(evicted, Some((0, LineState::Shared)));
        assert_eq!(c.probe(0), None);
        assert_eq!(c.probe(16), Some(LineState::Modified));
    }

    #[test]
    fn two_way_lru() {
        let mut c = Cache::new(256, 16, 2); // 8 sets, 2 ways: 0, 8, 16 collide
        c.insert(0, LineState::Shared);
        c.insert(8, LineState::Shared);
        // Touch 0 so 8 becomes LRU.
        c.probe(0);
        let evicted = c.insert(16, LineState::Shared);
        assert_eq!(evicted, Some((8, LineState::Shared)));
        assert!(c.contains(0) && c.contains(16));
    }

    #[test]
    fn invalidation() {
        let mut c = Cache::new(256, 16, 1);
        c.insert(3, LineState::Modified);
        assert!(c.invalidate(3));
        assert!(!c.invalidate(3));
        assert_eq!(c.probe(3), None);
    }

    #[test]
    fn state_upgrade() {
        let mut c = Cache::new(256, 16, 1);
        c.insert(3, LineState::Shared);
        c.set_state(3, LineState::Modified);
        assert_eq!(c.probe(3), Some(LineState::Modified));
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c = Cache::new(256, 16, 1);
        c.insert(3, LineState::Shared);
        assert_eq!(c.insert(3, LineState::Modified), None);
        assert_eq!(c.probe(3), Some(LineState::Modified));
    }

    #[test]
    fn direct_mapped_reinsert_same_line_no_eviction() {
        // Re-inserting the resident line with a new state must not report
        // an eviction (packed-slot representation edge case).
        let mut c = Cache::new(256, 16, 1);
        c.insert(3, LineState::Shared);
        assert_eq!(c.insert(3, LineState::Shared), None);
        assert_eq!(c.insert(3, LineState::Modified), None);
        assert_eq!(c.probe(3), Some(LineState::Modified));
        c.clear();
        assert_eq!(c.probe(3), None);
    }
}
