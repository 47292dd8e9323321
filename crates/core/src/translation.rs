//! Address translation structures of §5.2.
//!
//! The authoritative translation table (one byte per row) lives in DRAM; a
//! small set-associative *translation cache* in the memory controller holds
//! the most recently used entries **for rows currently in the fast level
//! only** (§7.4: caching slow-level entries would waste the capacity that
//! makes the ≥90 % fast-level hit ratio cheap to exploit). On a translation
//! cache miss the controller looks the table line up in the LLC and, failing
//! that, reads it from memory — those timing consequences are modelled by
//! the memory controller; this module tracks contents and hit/miss truth.

use das_dram::geometry::GlobalRowId;

/// Where a translation lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslationSource {
    /// Hit in the controller's translation cache: no added latency (the
    /// lookup overlaps the LLC access, §5.2).
    Cache,
    /// Missed the translation cache; the table line must be fetched from
    /// the LLC or memory before the data access can be scheduled.
    TableFetch,
}

/// Statistics for the translation cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranslationStats {
    /// Lookups that hit the translation cache.
    pub hits: u64,
    /// Lookups that required a table fetch.
    pub misses: u64,
    /// Entries installed.
    pub fills: u64,
    /// Entries invalidated by demotions.
    pub invalidations: u64,
}

/// Set-associative cache of one-byte translation entries keyed by global
/// row id.
///
/// Capacity is expressed in bytes; with one-byte entries (group size ≤ 256,
/// §5.2) a capacity of `C` bytes holds `C` entries. At the paper's default
/// (8 GB DRAM, 1/8 fast level, 8 KB rows) 128 KB covers every fast-level
/// row, which is why Fig. 9a saturates there.
#[derive(Debug, Clone)]
pub struct TranslationCache {
    sets: usize,
    ways: usize,
    /// `(row id + 1)` tags; 0 = invalid. Stamps track LRU.
    tags: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
    stats: TranslationStats,
}

impl TranslationCache {
    /// Creates a cache holding `capacity_bytes` one-byte entries with the
    /// given associativity.
    ///
    /// # Panics
    ///
    /// Panics if the capacity does not divide into at least one full set.
    pub fn new(capacity_bytes: u64, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be positive");
        assert!(
            capacity_bytes >= ways as u64 && capacity_bytes.is_multiple_of(ways as u64),
            "capacity {capacity_bytes}B not divisible into {ways}-way sets"
        );
        let sets = (capacity_bytes / ways as u64) as usize;
        TranslationCache {
            sets,
            ways,
            tags: vec![0; sets * ways],
            stamps: vec![0; sets * ways],
            clock: 0,
            stats: TranslationStats::default(),
        }
    }

    /// Entry capacity (== capacity in bytes).
    pub fn capacity(&self) -> u64 {
        (self.sets * self.ways) as u64
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TranslationStats {
        self.stats
    }

    fn set_of(&self, row: GlobalRowId) -> usize {
        // Multiplicative hash spreads consecutive row ids across sets.
        ((row.0.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % self.sets as u64) as usize
    }

    /// Looks up `row`, updating LRU state and statistics.
    pub fn lookup(&mut self, row: GlobalRowId) -> TranslationSource {
        let set = self.set_of(row);
        self.clock += 1;
        let tag = row.0 + 1;
        for w in 0..self.ways {
            let i = set * self.ways + w;
            if self.tags[i] == tag {
                self.stamps[i] = self.clock;
                self.stats.hits += 1;
                return TranslationSource::Cache;
            }
        }
        self.stats.misses += 1;
        TranslationSource::TableFetch
    }

    /// Whether `row` is cached, without perturbing state.
    pub fn contains(&self, row: GlobalRowId) -> bool {
        let set = self.set_of(row);
        let tag = row.0 + 1;
        (0..self.ways).any(|w| self.tags[set * self.ways + w] == tag)
    }

    /// Installs an entry for `row` (a row now resident in the fast level),
    /// evicting the set's LRU entry if needed.
    pub fn insert(&mut self, row: GlobalRowId) {
        let set = self.set_of(row);
        self.clock += 1;
        let tag = row.0 + 1;
        let base = set * self.ways;
        // Refresh if present.
        for w in 0..self.ways {
            if self.tags[base + w] == tag {
                self.stamps[base + w] = self.clock;
                return;
            }
        }
        let mut victim = 0;
        for w in 0..self.ways {
            if self.tags[base + w] == 0 {
                victim = w;
                break;
            }
            if self.stamps[base + w] < self.stamps[base + victim] {
                victim = w;
            }
        }
        self.tags[base + victim] = tag;
        self.stamps[base + victim] = self.clock;
        self.stats.fills += 1;
    }

    /// Drops the entry for `row` (the row left the fast level).
    pub fn invalidate(&mut self, row: GlobalRowId) {
        let set = self.set_of(row);
        let tag = row.0 + 1;
        for w in 0..self.ways {
            let i = set * self.ways + w;
            if self.tags[i] == tag {
                self.tags[i] = 0;
                self.stats.invalidations += 1;
                return;
            }
        }
    }

    /// Rows with a valid entry, in storage order. Used by the
    /// management layer's cache↔device agreement sweep.
    pub fn resident_rows(&self) -> impl Iterator<Item = GlobalRowId> + '_ {
        self.tags
            .iter()
            .filter(|&&t| t != 0)
            .map(|&t| GlobalRowId(t - 1))
    }
}

/// Maps global row ids to the byte address of their in-memory translation
/// table entry, so table fetches can be timed as ordinary memory traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableAddressMap {
    base: u64,
}

impl TableAddressMap {
    /// Places the table at byte address `base` (conventionally the top of
    /// the physical address space, reserved from the OS).
    pub fn new(base: u64) -> Self {
        TableAddressMap { base }
    }

    /// Byte address of the entry for `row` (one byte per row, §5.2).
    pub fn entry_addr(&self, row: GlobalRowId) -> u64 {
        self.base + row.0
    }

    /// Cache-line address of the entry for `row`.
    pub fn entry_line(&self, row: GlobalRowId, line_bytes: u64) -> u64 {
        (self.entry_addr(row) / line_bytes) * line_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(n: u64) -> GlobalRowId {
        GlobalRowId(n)
    }

    #[test]
    fn paper_default_capacity_covers_fast_level() {
        // 8 GB / 8 KB rows = 1 Mi rows; 1/8 fast -> 128 Ki fast rows.
        let c = TranslationCache::new(128 << 10, 8);
        assert_eq!(c.capacity(), 131_072);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = TranslationCache::new(1024, 8);
        assert_eq!(c.lookup(row(5)), TranslationSource::TableFetch);
        c.insert(row(5));
        assert_eq!(c.lookup(row(5)), TranslationSource::Cache);
        assert!(c.contains(row(5)));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().fills, 1);
    }

    #[test]
    fn invalidate_removes_entry() {
        let mut c = TranslationCache::new(1024, 8);
        c.insert(row(9));
        c.invalidate(row(9));
        assert!(!c.contains(row(9)));
        assert_eq!(c.stats().invalidations, 1);
        // Invalidating a missing row is a no-op.
        c.invalidate(row(9));
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn capacity_pressure_evicts_lru() {
        // 16 entries, 8-way -> 2 sets.
        let mut c = TranslationCache::new(16, 8);
        for n in 0..64 {
            c.insert(row(n));
        }
        let resident = (0..64).filter(|&n| c.contains(row(n))).count();
        assert_eq!(resident, 16, "cache holds exactly its capacity");
    }

    #[test]
    fn reinsert_refreshes_rather_than_duplicates() {
        let mut c = TranslationCache::new(8, 8);
        c.insert(row(1));
        c.insert(row(1));
        assert_eq!(c.stats().fills, 1);
    }

    #[test]
    fn full_coverage_never_misses_after_warmup() {
        let mut c = TranslationCache::new(4096, 8);
        for n in 0..4096u64 {
            c.insert(row(n));
        }
        // A 1:1-capacity working set may still conflict-miss with hashing,
        // but the vast majority must hit.
        let hits = (0..4096u64)
            .filter(|&n| c.lookup(row(n)) == TranslationSource::Cache)
            .count();
        assert!(hits > 3500, "expected near-full coverage, got {hits}/4096");
    }

    #[test]
    fn table_addressing() {
        let m = TableAddressMap::new(1 << 30);
        assert_eq!(m.entry_addr(row(0)), 1 << 30);
        assert_eq!(m.entry_addr(row(100)), (1 << 30) + 100);
        assert_eq!(m.entry_line(row(100), 64), (1 << 30) + 64);
    }
}
