//! The three-level cache hierarchy of Table 1: private L1/L2 per core and a
//! shared LLC, all 8-way with 64 B lines, write-back / write-allocate.
//!
//! Latencies here are in **CPU cycles** (the crate is independent of the
//! DRAM time base); the simulator converts to ticks.

use crate::set_assoc::{CacheStats, SetAssocCache};

/// Which level serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheLevel {
    /// Private first-level cache.
    L1,
    /// Private second-level cache.
    L2,
    /// Shared last-level cache.
    Llc,
    /// Missed everywhere; main memory must service it.
    Memory,
}

/// Shape and latency of the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Cache line size in bytes (all levels).
    pub line_bytes: u64,
    /// Per-core L1 capacity in bytes.
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L1 lookup latency, CPU cycles.
    pub l1_latency: u64,
    /// Per-core L2 capacity in bytes.
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_ways: usize,
    /// L2 lookup latency, CPU cycles.
    pub l2_latency: u64,
    /// Shared LLC capacity in bytes.
    pub llc_bytes: u64,
    /// LLC associativity.
    pub llc_ways: usize,
    /// LLC lookup latency, CPU cycles.
    pub llc_latency: u64,
}

impl HierarchyConfig {
    /// Table 1: 64 KB 8-way L1 (4 cycles), 256 KB 8-way L2 (12 cycles),
    /// 4 MB 8-way shared LLC (20 cycles), 64 B lines.
    pub fn paper_default() -> Self {
        HierarchyConfig {
            line_bytes: 64,
            l1_bytes: 64 << 10,
            l1_ways: 8,
            l1_latency: 4,
            l2_bytes: 256 << 10,
            l2_ways: 8,
            l2_latency: 12,
            llc_bytes: 4 << 20,
            llc_ways: 8,
            llc_latency: 20,
        }
    }

    /// The paper configuration with the shared LLC scaled down by `factor`
    /// (used together with `DramGeometry::paper_scaled` so that
    /// footprint-to-capacity ratios match the paper's).
    ///
    /// # Panics
    ///
    /// Panics if `factor` does not divide the LLC capacity into valid sets.
    pub fn paper_scaled(factor: u64) -> Self {
        let mut c = Self::paper_default();
        assert!(factor > 0 && c.llc_bytes.is_multiple_of(factor));
        c.llc_bytes /= factor;
        c
    }

    /// Cumulative lookup latency down to (and including) `level`.
    pub fn latency_to(&self, level: CacheLevel) -> u64 {
        match level {
            CacheLevel::L1 => self.l1_latency,
            CacheLevel::L2 => self.l1_latency + self.l2_latency,
            CacheLevel::Llc | CacheLevel::Memory => {
                self.l1_latency + self.l2_latency + self.llc_latency
            }
        }
    }
}

/// Result of walking the hierarchy for one access. The dirty lines it
/// pushed out are in [`CacheHierarchy::dram_writebacks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The level that serviced (or will service) the access.
    pub level: CacheLevel,
    /// Cumulative lookup latency in CPU cycles (for `Memory`, the latency
    /// spent discovering the miss; DRAM time is added by the caller).
    pub lookup_cycles: u64,
}

/// Multi-core cache hierarchy with private L1/L2 and shared LLC.
///
/// # Examples
///
/// ```
/// use das_cache::hierarchy::{CacheHierarchy, CacheLevel, HierarchyConfig};
///
/// let mut h = CacheHierarchy::new(HierarchyConfig::paper_default(), 1);
/// let miss = h.access(0, 0x4000, false);
/// assert_eq!(miss.level, CacheLevel::Memory);
/// h.fill_from_memory(0, 0x4000, false);
/// let hit = h.access(0, 0x4000, false);
/// assert_eq!(hit.level, CacheLevel::L1);
/// ```
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    cfg: HierarchyConfig,
    l1: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    llc: SetAssocCache,
    /// Dirty lines the last access, fill or side access pushed out of the
    /// hierarchy entirely; one buffer, cleared by each of those calls.
    writebacks: Vec<u64>,
}

impl CacheHierarchy {
    /// Builds the hierarchy for `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or the configuration is malformed.
    pub fn new(cfg: HierarchyConfig, cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        CacheHierarchy {
            cfg,
            l1: (0..cores)
                .map(|_| SetAssocCache::new(cfg.l1_bytes, cfg.l1_ways, cfg.line_bytes))
                .collect(),
            l2: (0..cores)
                .map(|_| SetAssocCache::new(cfg.l2_bytes, cfg.l2_ways, cfg.line_bytes))
                .collect(),
            llc: SetAssocCache::new(cfg.llc_bytes, cfg.llc_ways, cfg.line_bytes),
            writebacks: Vec::new(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Number of cores served.
    pub fn cores(&self) -> usize {
        self.l1.len()
    }

    /// Walks the hierarchy for a demand access by `core`. On a `Memory`
    /// outcome the caller must fetch the line from DRAM and then call
    /// [`CacheHierarchy::fill_from_memory`].
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(&mut self, core: usize, addr: u64, is_write: bool) -> AccessOutcome {
        self.writebacks.clear();
        let level = if self.l1[core].lookup(addr, is_write) {
            CacheLevel::L1
        } else if self.l2[core].lookup(addr, false) {
            self.promote_to_l1(core, addr, is_write);
            CacheLevel::L2
        } else if self.llc.lookup(addr, false) {
            self.promote_to_l2(core, addr);
            self.promote_to_l1(core, addr, is_write);
            CacheLevel::Llc
        } else {
            CacheLevel::Memory
        };
        AccessOutcome {
            level,
            lookup_cycles: self.cfg.latency_to(level),
        }
    }

    /// Installs a line fetched from DRAM into all levels for `core`. The
    /// dirty lines it displaces out to DRAM are in
    /// [`CacheHierarchy::dram_writebacks`].
    pub fn fill_from_memory(&mut self, core: usize, addr: u64, is_write: bool) {
        self.writebacks.clear();
        if let Some(v) = self.llc.fill(addr, false) {
            if v.dirty {
                self.writebacks.push(v.addr);
            }
        }
        self.promote_to_l2(core, addr);
        self.promote_to_l1(core, addr, is_write);
    }

    /// An LLC-only access on behalf of the memory controller (used for
    /// translation-table lines, §5.2): looks up the LLC and fills it on a
    /// miss. Returns whether it hit; a displaced dirty line is in
    /// [`CacheHierarchy::dram_writebacks`].
    pub fn llc_side_access(&mut self, addr: u64) -> bool {
        self.writebacks.clear();
        if self.llc.lookup(addr, false) {
            return true;
        }
        if let Some(v) = self.llc.fill(addr, false) {
            if v.dirty {
                self.writebacks.push(v.addr);
            }
        }
        false
    }

    /// Dirty lines the last [`access`](CacheHierarchy::access),
    /// [`fill_from_memory`](CacheHierarchy::fill_from_memory) or
    /// [`llc_side_access`](CacheHierarchy::llc_side_access) pushed out of
    /// the hierarchy entirely, in eviction order: the caller must schedule
    /// DRAM writes for these before its next call.
    pub fn dram_writebacks(&self) -> &[u64] {
        &self.writebacks
    }

    /// Absorbs a dirty line written back from a cache level *above* the
    /// LLC (e.g. a coherent private-cache cluster mounted in front of the
    /// hierarchy). Returns `true` if the LLC held the line and took the
    /// data; on `false` the caller must write it to DRAM.
    pub fn llc_write_back(&mut self, addr: u64) -> bool {
        self.llc.write_back_into(addr)
    }

    fn promote_to_l1(&mut self, core: usize, addr: u64, dirty: bool) {
        if let Some(v) = self.l1[core].fill(addr, dirty) {
            if v.dirty {
                self.sink_below_l1(core, v.addr);
            }
        }
    }

    fn promote_to_l2(&mut self, core: usize, addr: u64) {
        if let Some(v) = self.l2[core].fill(addr, false) {
            if v.dirty {
                self.sink_below_l2(v.addr);
            }
        }
    }

    /// A dirty L1 victim is written back into L2 if resident, else pushed
    /// toward the LLC/DRAM.
    fn sink_below_l1(&mut self, core: usize, addr: u64) {
        if self.l2[core].write_back_into(addr) {
            return;
        }
        self.sink_below_l2(addr);
    }

    fn sink_below_l2(&mut self, addr: u64) {
        if self.llc.write_back_into(addr) {
            return;
        }
        self.writebacks.push(addr);
    }

    /// Statistics for one core's L1.
    pub fn l1_stats(&self, core: usize) -> CacheStats {
        self.l1[core].stats()
    }

    /// Shared LLC statistics.
    pub fn llc_stats(&self) -> CacheStats {
        self.llc.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> HierarchyConfig {
        HierarchyConfig {
            line_bytes: 64,
            l1_bytes: 1 << 10,
            l1_ways: 2,
            l1_latency: 4,
            l2_bytes: 4 << 10,
            l2_ways: 4,
            l2_latency: 12,
            llc_bytes: 16 << 10,
            llc_ways: 8,
            llc_latency: 20,
        }
    }

    #[test]
    fn paper_default_matches_table1() {
        let c = HierarchyConfig::paper_default();
        assert_eq!(c.l1_bytes, 65536);
        assert_eq!(c.llc_bytes, 4 << 20);
        assert_eq!(c.latency_to(CacheLevel::L1), 4);
        assert_eq!(c.latency_to(CacheLevel::L2), 16);
        assert_eq!(c.latency_to(CacheLevel::Llc), 36);
        assert_eq!(c.latency_to(CacheLevel::Memory), 36);
    }

    #[test]
    fn miss_fill_hit_cycle() {
        let mut h = CacheHierarchy::new(small_cfg(), 2);
        let out = h.access(0, 0x1000, false);
        assert_eq!(out.level, CacheLevel::Memory);
        assert_eq!(out.lookup_cycles, 36);
        h.fill_from_memory(0, 0x1000, false);
        assert_eq!(h.access(0, 0x1000, false).level, CacheLevel::L1);
        // Other core misses privately but hits the shared LLC.
        assert_eq!(h.access(1, 0x1000, false).level, CacheLevel::Llc);
        // And now core 1 has it in L1.
        assert_eq!(h.access(1, 0x1000, false).level, CacheLevel::L1);
    }

    #[test]
    fn l2_hit_promotes_to_l1() {
        let mut h = CacheHierarchy::new(small_cfg(), 1);
        h.fill_from_memory(0, 0, false);
        // Evict line 0 from tiny L1 (2 ways, 8 sets -> conflict stride 512).
        h.fill_from_memory(0, 512, false);
        h.fill_from_memory(0, 1024, false);
        let out = h.access(0, 0, false);
        assert_eq!(out.level, CacheLevel::L2);
        assert_eq!(h.access(0, 0, false).level, CacheLevel::L1);
    }

    #[test]
    fn dirty_data_survives_eviction_chain() {
        let mut h = CacheHierarchy::new(small_cfg(), 1);
        h.fill_from_memory(0, 0, true); // dirty in L1
                                        // Conflict-evict from L1; dirty data must land in L2 (resident).
        h.fill_from_memory(0, 512, false);
        h.fill_from_memory(0, 1024, false);
        // Re-access: L2 hit and the hierarchy still knows the line.
        assert_eq!(h.access(0, 0, false).level, CacheLevel::L2);
    }

    #[test]
    fn writeback_reaches_dram_when_caches_are_swept() {
        let mut h = CacheHierarchy::new(small_cfg(), 1);
        h.fill_from_memory(0, 0, true);
        // Sweep far more lines than total hierarchy capacity through the
        // same stacks; the dirty line must eventually emerge as a DRAM
        // writeback exactly once.
        let mut wbs = Vec::new();
        for i in 1..2048u64 {
            h.fill_from_memory(0, i * 64, false);
            wbs.extend_from_slice(h.dram_writebacks());
        }
        assert_eq!(wbs.iter().filter(|&&a| a == 0).count(), 1);
    }

    #[test]
    fn llc_side_access_fills_without_core_caches() {
        let mut h = CacheHierarchy::new(small_cfg(), 1);
        assert!(!h.llc_side_access(0x2000));
        assert!(h.llc_side_access(0x2000));
        // Core caches untouched.
        assert_eq!(h.l1_stats(0).accesses(), 0);
    }

    #[test]
    fn llc_is_shared_across_cores() {
        let mut h = CacheHierarchy::new(small_cfg(), 4);
        h.fill_from_memory(2, 0x3000, false);
        assert_eq!(h.access(3, 0x3000, false).level, CacheLevel::Llc);
    }

    #[test]
    fn stats_accumulate_per_level() {
        let mut h = CacheHierarchy::new(small_cfg(), 1);
        h.access(0, 0, false);
        h.fill_from_memory(0, 0, false);
        h.access(0, 0, false);
        assert_eq!(h.l1_stats(0).hits, 1);
        assert_eq!(h.l1_stats(0).misses, 1);
        assert_eq!(h.llc_stats().misses, 1);
    }
}
