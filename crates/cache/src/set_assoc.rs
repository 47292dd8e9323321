//! A set-associative, write-back, write-allocate cache model.
//!
//! The model tracks tags, dirtiness and LRU order only — data values are
//! irrelevant to timing studies. Addresses are byte addresses; the cache
//! operates on aligned lines.

use core::fmt;

/// Replacement order bookkeeping uses a monotonically increasing counter;
/// the least-recently used way is the one with the smallest stamp.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    stamp: u64,
}

/// A victim line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Byte address of the first byte of the evicted line.
    pub addr: u64,
    /// Whether the line was dirty (must be written back).
    pub dirty: bool,
}

/// Hit/miss/eviction counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Valid lines evicted by fills.
    pub evictions: u64,
    /// Dirty lines evicted (write-back traffic).
    pub writebacks: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A set-associative cache.
///
/// # Examples
///
/// ```
/// use das_cache::set_assoc::SetAssocCache;
///
/// let mut l1 = SetAssocCache::new(64 * 1024, 8, 64);
/// assert!(!l1.lookup(0x1000, false));   // cold miss
/// l1.fill(0x1000, false);
/// assert!(l1.lookup(0x1000, false));    // now resident
/// ```
#[derive(Clone)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    line_bytes: u64,
    /// `log2(line_bytes)`: the line of an address is a shift away.
    line_shift: u32,
    /// `log2(sets)`: the set is the line's low bits, the tag the rest.
    set_bits: u32,
    lines: Vec<Line>,
    clock: u64,
    stats: CacheStats,
}

impl fmt::Debug for SetAssocCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SetAssocCache")
            .field("capacity_bytes", &self.capacity_bytes())
            .field("sets", &self.sets)
            .field("ways", &self.ways)
            .field("line_bytes", &self.line_bytes)
            .field("stats", &self.stats)
            .finish()
    }
}

impl SetAssocCache {
    /// Creates a cache of `capacity_bytes` with `ways` ways and
    /// `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are not powers-of-two compatible (capacity
    /// must be divisible by `ways * line_bytes` into a power-of-two number
    /// of sets).
    pub fn new(capacity_bytes: u64, ways: usize, line_bytes: u64) -> Self {
        assert!(ways > 0 && line_bytes > 0, "degenerate cache shape");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let set_bytes = ways as u64 * line_bytes;
        assert!(
            capacity_bytes >= set_bytes && capacity_bytes.is_multiple_of(set_bytes),
            "capacity {capacity_bytes} not divisible into {ways}-way sets of {line_bytes}B lines"
        );
        let sets = (capacity_bytes / set_bytes) as usize;
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        SetAssocCache {
            sets,
            ways,
            line_bytes,
            line_shift: line_bytes.trailing_zeros(),
            set_bits: sets.trailing_zeros(),
            lines: vec![Line::default(); sets * ways],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_bytes
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn index(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        (
            (line & (self.sets as u64 - 1)) as usize,
            line >> self.set_bits,
        )
    }

    fn set(&self, set: usize) -> &[Line] {
        &self.lines[set * self.ways..(set + 1) * self.ways]
    }

    fn set_mut(&mut self, set: usize) -> &mut [Line] {
        &mut self.lines[set * self.ways..(set + 1) * self.ways]
    }

    /// Looks up the line containing `addr`, updating LRU state and stats.
    /// A hit with `is_write` marks the line dirty. Returns whether it hit.
    pub fn lookup(&mut self, addr: u64, is_write: bool) -> bool {
        let (set, tag) = self.index(addr);
        self.clock += 1;
        let clock = self.clock;
        for line in self.set_mut(set) {
            if line.valid && line.tag == tag {
                line.stamp = clock;
                line.dirty |= is_write;
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Whether the line containing `addr` is resident, without perturbing
    /// LRU state or statistics.
    pub fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        self.set(set).iter().any(|l| l.valid && l.tag == tag)
    }

    /// Inserts the line containing `addr` (marking it dirty if requested),
    /// evicting the LRU way if the set is full. Returns the victim, if any.
    ///
    /// Filling an already-resident line refreshes it in place (no victim).
    pub fn fill(&mut self, addr: u64, dirty: bool) -> Option<Victim> {
        let (set, tag) = self.index(addr);
        self.clock += 1;
        let clock = self.clock;
        let sets = self.sets as u64;
        let line_bytes = self.line_bytes;
        let lines = self.set_mut(set);
        // One pass: refresh in place if already present, else pick the first
        // invalid way, else the first way with the smallest stamp. Valid
        // stamps are at least 1, so ranking an invalid way as 0 makes the
        // first strict minimum exactly that victim.
        let mut way = 0;
        let mut best = u64::MAX;
        for (i, l) in lines.iter_mut().enumerate() {
            let rank = if l.valid {
                if l.tag == tag {
                    l.stamp = clock;
                    l.dirty |= dirty;
                    return None;
                }
                l.stamp
            } else {
                0
            };
            if rank < best {
                best = rank;
                way = i;
            }
        }
        let slot = &mut lines[way];
        let victim = slot.valid.then(|| Victim {
            addr: (slot.tag * sets + set as u64) * line_bytes,
            dirty: slot.dirty,
        });
        *slot = Line {
            tag,
            valid: true,
            dirty,
            stamp: clock,
        };
        if let Some(v) = victim {
            self.stats.evictions += 1;
            if v.dirty {
                self.stats.writebacks += 1;
            }
        }
        victim
    }

    /// Marks the line containing `addr` dirty if resident (used to sink a
    /// write-back from an upper level). Returns whether it was resident.
    pub fn write_back_into(&mut self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        if let Some(line) = self
            .set_mut(set)
            .iter_mut()
            .find(|l| l.valid && l.tag == tag)
        {
            line.dirty = true;
            true
        } else {
            false
        }
    }

    /// Removes the line containing `addr` if resident, returning whether it
    /// was dirty.
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let (set, tag) = self.index(addr);
        for line in self.set_mut(set) {
            if line.valid && line.tag == tag {
                line.valid = false;
                return Some(line.dirty);
            }
        }
        None
    }

    /// Number of valid lines (for tests and occupancy studies).
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_is_derived_correctly() {
        let c = SetAssocCache::new(64 * 1024, 8, 64);
        assert_eq!(c.sets(), 128);
        assert_eq!(c.ways(), 8);
        assert_eq!(c.capacity_bytes(), 64 * 1024);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = SetAssocCache::new(4096, 4, 64);
        assert!(!c.lookup(0, false));
        c.fill(0, false);
        assert!(c.lookup(0, false));
        assert!(c.lookup(63, false), "same line");
        assert!(!c.lookup(64, false), "next line");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // One set: 4096 B, 4 ways, 64 B lines -> 16 sets; conflict by using
        // stride = sets * line = 1024.
        let mut c = SetAssocCache::new(4096, 4, 64);
        let stride = 16 * 64;
        for i in 0..4 {
            c.fill(i * stride, false);
        }
        // Touch line 0 so line 1*stride becomes LRU.
        assert!(c.lookup(0, false));
        let victim = c.fill(4 * stride, false).expect("set full");
        assert_eq!(victim.addr, stride);
        assert!(!victim.dirty);
        assert!(c.contains(0));
        assert!(!c.contains(stride));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = SetAssocCache::new(4096, 4, 64);
        let stride = 16 * 64;
        c.fill(0, true);
        for i in 1..4 {
            c.fill(i * stride, false);
        }
        let victim = c.fill(4 * stride, false).unwrap();
        assert_eq!(
            victim,
            Victim {
                addr: 0,
                dirty: true
            }
        );
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = SetAssocCache::new(4096, 4, 64);
        let stride = 16 * 64;
        c.fill(0, false);
        assert!(c.lookup(0, true));
        for i in 1..4 {
            c.fill(i * stride, false);
        }
        let victim = c.fill(4 * stride, false).unwrap();
        assert!(victim.dirty, "write hit must dirty the line");
    }

    #[test]
    fn refill_of_resident_line_has_no_victim() {
        let mut c = SetAssocCache::new(4096, 4, 64);
        c.fill(128, false);
        assert_eq!(c.fill(128, true), None);
        // Dirtiness is retained.
        c.fill(128, false);
        assert_eq!(c.invalidate(128), Some(true));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = SetAssocCache::new(4096, 4, 64);
        c.fill(0, false);
        assert_eq!(c.invalidate(0), Some(false));
        assert!(!c.contains(0));
        assert_eq!(c.invalidate(0), None);
    }

    #[test]
    fn write_back_into_dirties_resident_lines_only() {
        let mut c = SetAssocCache::new(4096, 4, 64);
        c.fill(0, false);
        assert!(c.write_back_into(0));
        assert!(!c.write_back_into(64));
        assert_eq!(c.invalidate(0), Some(true));
    }

    #[test]
    fn victim_address_reconstruction_roundtrips() {
        let mut c = SetAssocCache::new(8192, 2, 64);
        let sets = c.sets() as u64;
        for i in 0..3u64 {
            let addr = (i * sets + 5) * 64; // same set 5, distinct tags
            if let Some(v) = c.fill(addr, false) {
                assert_eq!(v.addr, 5 * 64, "first-filled tag evicted");
            }
        }
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn occupancy_counts_valid_lines() {
        let mut c = SetAssocCache::new(4096, 4, 64);
        assert_eq!(c.occupancy(), 0);
        for i in 0..10 {
            c.fill(i * 64, false);
        }
        assert_eq!(c.occupancy(), 10);
    }

    #[test]
    #[should_panic(expected = "set count 3 must be a power of two")]
    fn non_power_of_two_set_counts_are_rejected() {
        SetAssocCache::new(3 * 4 * 64, 4, 64);
    }

    /// The pre-rewrite algorithms, verbatim over the same fields: division
    /// indexing and a three-scan fill. The differential test replays one
    /// seeded operation sequence through these and through the cache's own
    /// methods and compares every result and the full way state.
    mod oracle {
        use super::super::{Line, SetAssocCache, Victim};

        fn index(c: &SetAssocCache, addr: u64) -> (usize, u64) {
            let line = addr / c.line_bytes;
            ((line % c.sets as u64) as usize, line / c.sets as u64)
        }

        pub(super) fn lookup(c: &mut SetAssocCache, addr: u64, is_write: bool) -> bool {
            let (set, tag) = index(c, addr);
            c.clock += 1;
            let clock = c.clock;
            for line in c.set_mut(set) {
                if line.valid && line.tag == tag {
                    line.stamp = clock;
                    line.dirty |= is_write;
                    c.stats.hits += 1;
                    return true;
                }
            }
            c.stats.misses += 1;
            false
        }

        pub(super) fn contains(c: &SetAssocCache, addr: u64) -> bool {
            let (set, tag) = index(c, addr);
            c.set(set).iter().any(|l| l.valid && l.tag == tag)
        }

        pub(super) fn fill(c: &mut SetAssocCache, addr: u64, dirty: bool) -> Option<Victim> {
            let (set, tag) = index(c, addr);
            c.clock += 1;
            let clock = c.clock;
            let sets = c.sets as u64;
            let line_bytes = c.line_bytes;
            if let Some(line) = c.set_mut(set).iter_mut().find(|l| l.valid && l.tag == tag) {
                line.stamp = clock;
                line.dirty |= dirty;
                return None;
            }
            let way = c.set(set).iter().position(|l| !l.valid).unwrap_or_else(|| {
                c.set(set)
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.stamp)
                    .map(|(i, _)| i)
                    .expect("nonempty set")
            });
            let slot = &mut c.set_mut(set)[way];
            let victim = if slot.valid {
                let victim_addr = (slot.tag * sets + set as u64) * line_bytes;
                Some(Victim {
                    addr: victim_addr,
                    dirty: slot.dirty,
                })
            } else {
                None
            };
            *slot = Line {
                tag,
                valid: true,
                dirty,
                stamp: clock,
            };
            if let Some(v) = victim {
                c.stats.evictions += 1;
                if v.dirty {
                    c.stats.writebacks += 1;
                }
            }
            victim
        }

        pub(super) fn write_back_into(c: &mut SetAssocCache, addr: u64) -> bool {
            let (set, tag) = index(c, addr);
            if let Some(line) = c.set_mut(set).iter_mut().find(|l| l.valid && l.tag == tag) {
                line.dirty = true;
                true
            } else {
                false
            }
        }

        pub(super) fn invalidate(c: &mut SetAssocCache, addr: u64) -> Option<bool> {
            let (set, tag) = index(c, addr);
            for line in c.set_mut(set) {
                if line.valid && line.tag == tag {
                    line.valid = false;
                    return Some(line.dirty);
                }
            }
            None
        }
    }

    #[test]
    fn matches_the_pre_rewrite_algorithms_step_by_step() {
        // (capacity, ways, line bytes): 16, 1 and 8 sets.
        let shapes = [(4096, 4, 64), (512, 8, 64), (8 * 2 * 32, 2, 32)];
        for (seed, &(capacity, ways, line_bytes)) in shapes.iter().enumerate() {
            let mut rng = das_faults::Prng::new(0xcac4e + seed as u64);
            let mut got = SetAssocCache::new(capacity, ways, line_bytes);
            let mut want = got.clone();
            // Four times the capacity in distinct lines keeps every set
            // under conflict pressure.
            let lines = (got.sets() * ways * 4) as u64;
            for step in 0..20_000 {
                let addr = rng.bounded_u64(lines) * line_bytes + rng.bounded_u64(line_bytes);
                let ctx =
                    format!("shape {capacity}/{ways}/{line_bytes} step {step} addr {addr:#x}");
                match rng.bounded_u64(8) {
                    0..=2 => {
                        let w = rng.gen_bool(0.3);
                        assert_eq!(
                            got.lookup(addr, w),
                            oracle::lookup(&mut want, addr, w),
                            "{ctx}"
                        );
                    }
                    3..=5 => {
                        let d = rng.gen_bool(0.3);
                        assert_eq!(got.fill(addr, d), oracle::fill(&mut want, addr, d), "{ctx}");
                    }
                    6 => assert_eq!(
                        got.write_back_into(addr),
                        oracle::write_back_into(&mut want, addr),
                        "{ctx}"
                    ),
                    _ => assert_eq!(
                        got.invalidate(addr),
                        oracle::invalidate(&mut want, addr),
                        "{ctx}"
                    ),
                }
                assert_eq!(got.contains(addr), oracle::contains(&want, addr), "{ctx}");
                assert_eq!(got.stats(), want.stats(), "{ctx}");
                assert_eq!(got.clock, want.clock, "{ctx}");
                assert!(got.lines == want.lines, "way state diverged at {ctx}");
            }
            assert!(got.stats().evictions > 0 && got.stats().writebacks > 0);
        }
    }
}
