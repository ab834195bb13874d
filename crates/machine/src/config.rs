//! Machine configuration: cache geometry, NUMA latencies, and the Stanford
//! DASH preset the paper evaluates on.

/// Configuration of the simulated cache-coherent NUMA multiprocessor.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Total number of processors.
    pub nprocs: usize,
    /// Processors per cluster (DASH: 4; memory homes are per-cluster).
    pub procs_per_cluster: usize,
    /// First-level cache size in bytes (DASH: 64 KB).
    pub l1_bytes: usize,
    /// First-level associativity (DASH: direct-mapped).
    pub l1_assoc: usize,
    /// Second-level cache size in bytes (DASH: 256 KB).
    pub l2_bytes: usize,
    /// Second-level associativity (DASH: direct-mapped).
    pub l2_assoc: usize,
    /// Cache line size in bytes (DASH: 16).
    pub line_bytes: usize,
    /// Page size for first-touch placement (DASH OS: 4 KB).
    pub page_bytes: usize,
    /// Latency (cycles) of an L1 hit.
    pub lat_l1: u64,
    /// Latency of an L2 hit.
    pub lat_l2: u64,
    /// Latency of local (same-cluster) memory.
    pub lat_local: u64,
    /// Latency of remote memory.
    pub lat_remote: u64,
    /// Latency of a remote access that must fetch a dirty line from a
    /// third processor's cache.
    pub lat_remote_dirty: u64,
    /// Cost of invalidating sharers on a write (per remote sharer).
    pub lat_invalidate: u64,
    /// Barrier cost: `barrier_base + barrier_per_proc * P` cycles.
    pub barrier_base: u64,
    pub barrier_per_proc: u64,
    /// Cost of a lock acquire/release pair (pipelining synchronization).
    pub lock_cost: u64,
}

impl MachineConfig {
    /// Most processors a machine can have: the directory keeps sharers in a
    /// 64-bit mask. Input that names a processor count is checked against
    /// this where it enters (CLI, HTTP).
    pub const MAX_PROCS: usize = 64;

    /// The Stanford DASH prototype as described in Section 6.1: 33 MHz
    /// R3000s in clusters of 4, 64 KB direct-mapped L1 and 256 KB
    /// direct-mapped L2 with 16-byte lines, latency ratios roughly
    /// 1 : 10 : 30 : 100-130, 4 KB first-touch pages.
    pub fn dash(nprocs: usize) -> MachineConfig {
        assert!(nprocs >= 1);
        MachineConfig {
            nprocs,
            procs_per_cluster: 4,
            l1_bytes: 64 * 1024,
            l1_assoc: 1,
            l2_bytes: 256 * 1024,
            l2_assoc: 1,
            line_bytes: 16,
            page_bytes: 4096,
            lat_l1: 1,
            lat_l2: 10,
            lat_local: 30,
            lat_remote: 100,
            lat_remote_dirty: 130,
            lat_invalidate: 25,
            barrier_base: 200,
            barrier_per_proc: 30,
            lock_cost: 60,
        }
    }

    /// A tiny machine for fast unit tests: 2 clusters of 2, small caches.
    pub fn tiny(nprocs: usize) -> MachineConfig {
        MachineConfig {
            nprocs,
            procs_per_cluster: 2,
            l1_bytes: 256,
            l1_assoc: 1,
            l2_bytes: 1024,
            l2_assoc: 1,
            line_bytes: 16,
            page_bytes: 64,
            lat_l1: 1,
            lat_l2: 10,
            lat_local: 30,
            lat_remote: 100,
            lat_remote_dirty: 130,
            lat_invalidate: 25,
            barrier_base: 200,
            barrier_per_proc: 30,
            lock_cost: 60,
        }
    }

    pub fn nclusters(&self) -> usize {
        self.nprocs.div_ceil(self.procs_per_cluster)
    }

    pub fn cluster_of(&self, proc: usize) -> usize {
        proc / self.procs_per_cluster
    }

    /// Cost of a global barrier across `active` processors.
    pub fn barrier_cost(&self, active: usize) -> u64 {
        self.barrier_base + self.barrier_per_proc * active as u64
    }

    pub fn validate(&self) {
        assert!(self.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(self.page_bytes.is_multiple_of(self.line_bytes), "page must hold whole lines");
        assert!(self.l1_bytes.is_multiple_of(self.line_bytes * self.l1_assoc));
        assert!(self.l2_bytes.is_multiple_of(self.line_bytes * self.l2_assoc));
        assert!(self.l1_assoc >= 1 && self.l2_assoc >= 1);
        assert!(self.procs_per_cluster >= 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dash_preset() {
        let c = MachineConfig::dash(32);
        c.validate();
        assert_eq!(c.nclusters(), 8);
        assert_eq!(c.cluster_of(0), 0);
        assert_eq!(c.cluster_of(5), 1);
        assert_eq!(c.cluster_of(31), 7);
        // Latency ratios roughly 1:10:30:100.
        assert_eq!(c.lat_l1, 1);
        assert_eq!(c.lat_l2, 10);
        assert_eq!(c.lat_local, 30);
        assert!(c.lat_remote >= 100 && c.lat_remote_dirty <= 130);
    }

    #[test]
    fn odd_proc_counts() {
        let c = MachineConfig::dash(31);
        assert_eq!(c.nclusters(), 8);
        let c = MachineConfig::dash(1);
        assert_eq!(c.nclusters(), 1);
    }

    #[test]
    fn barrier_scales_with_procs() {
        let c = MachineConfig::dash(32);
        assert!(c.barrier_cost(32) > c.barrier_cost(2));
    }
}
