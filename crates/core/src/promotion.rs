//! Promotion filtering (§5.3, evaluated in §7.3 / Fig. 8).
//!
//! The first policy promotes on every slow-level hit (threshold 1). The
//! second counts accesses per row in a small file of hardware counters
//! (1024 in the paper's experiment) and promotes only rows that reach a
//! threshold; counters for the least recently touched rows are recycled
//! when the file is full.

use std::collections::{HashMap, VecDeque};

use das_dram::geometry::GlobalRowId;

/// Statistics for the promotion filter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Slow-level accesses observed.
    pub observed: u64,
    /// Promotions granted.
    pub granted: u64,
    /// Accesses suppressed (count below threshold).
    pub suppressed: u64,
    /// Counter-file evictions (recycled rows).
    pub recycled: u64,
}

/// Threshold-based promotion filter with a bounded counter file.
#[derive(Debug, Clone)]
pub struct PromotionFilter {
    threshold: u32,
    capacity: usize,
    /// row -> (access count, recency stamp)
    counters: HashMap<GlobalRowId, (u32, u64)>,
    /// `(stamp, row)` of every bump, oldest first. An entry is live while
    /// `counters[row]` still carries its stamp; stale ones are skipped when
    /// recycling and dropped whenever the queue outgrows twice `capacity`,
    /// so each bump costs amortized O(1). Stamps are unique (`clock`
    /// advances once per note), so the oldest live entry is the least
    /// recently touched counter.
    recency: VecDeque<(u64, GlobalRowId)>,
    clock: u64,
    stats: FilterStats,
}

impl PromotionFilter {
    /// Creates a filter promoting after `threshold` slow-level accesses,
    /// tracked in `capacity` counters (the paper uses 1024).
    ///
    /// # Panics
    ///
    /// Panics if `threshold == 0` or `capacity == 0`.
    pub fn new(threshold: u32, capacity: usize) -> Self {
        assert!(threshold > 0, "threshold must be at least 1");
        assert!(capacity > 0, "counter file must be nonempty");
        PromotionFilter {
            threshold,
            capacity,
            counters: HashMap::new(),
            recency: VecDeque::new(),
            clock: 0,
            stats: FilterStats::default(),
        }
    }

    /// The paper's default configuration: threshold 1 (promote on every
    /// slow hit — the configuration DAS-DRAM finally adopts) with 1024
    /// counters.
    pub fn paper_default() -> Self {
        Self::new(1, 1024)
    }

    /// The threshold in force.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Reprograms the threshold at runtime (adaptive policies), clamped
    /// into `[THRESHOLD_MIN, THRESHOLD_MAX]` so a policy can never drive
    /// the filter into the panicking zero configuration. Returns the
    /// threshold actually installed.
    pub fn set_threshold(&mut self, raw: i64) -> u32 {
        self.threshold = das_policy::clamp_threshold(raw);
        self.threshold
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> FilterStats {
        self.stats
    }

    /// Records a slow-level access to `row`; returns `true` when the row
    /// should be promoted (its counter reached the threshold, and is reset).
    pub fn observe(&mut self, row: GlobalRowId) -> bool {
        let count = self.note(row);
        let grant = count >= self.threshold;
        self.resolve(row, grant);
        grant
    }

    /// Tallies a slow-level access and returns the row's counter value
    /// including this access, without deciding; pair with [`resolve`].
    ///
    /// Keeps the paper's exact counter-file semantics: at threshold 1 no
    /// counters are tracked at all (the returned count is 1), above it
    /// the LRU counter is recycled when the file is full.
    ///
    /// [`resolve`]: PromotionFilter::resolve
    pub fn note(&mut self, row: GlobalRowId) -> u32 {
        self.stats.observed += 1;
        self.clock += 1;
        if self.threshold == 1 {
            return 1;
        }
        self.bump(row)
    }

    /// Like [`note`], but tracks counters even at threshold 1, so
    /// policies that reason about reuse depth (cost-aware promotion) see
    /// real counts under the paper's default threshold.
    ///
    /// [`note`]: PromotionFilter::note
    pub fn note_counted(&mut self, row: GlobalRowId) -> u32 {
        self.stats.observed += 1;
        self.clock += 1;
        self.bump(row)
    }

    /// Applies a promotion decision for a previously [`note`]d access:
    /// grants reset the row's counter, denials count as suppressed.
    ///
    /// [`note`]: PromotionFilter::note
    pub fn resolve(&mut self, row: GlobalRowId, grant: bool) {
        if grant {
            self.counters.remove(&row);
            self.stats.granted += 1;
        } else {
            self.stats.suppressed += 1;
        }
    }

    fn bump(&mut self, row: GlobalRowId) -> u32 {
        let clock = self.clock;
        if self.counters.len() >= self.capacity && !self.counters.contains_key(&row) {
            // Recycle the least recently touched counter.
            while let Some((stamp, old)) = self.recency.pop_front() {
                if is_live(&self.counters, stamp, old) {
                    self.counters.remove(&old);
                    self.stats.recycled += 1;
                    break;
                }
            }
        }
        let entry = self.counters.entry(row).or_insert((0, clock));
        entry.0 += 1;
        entry.1 = clock;
        let count = entry.0;
        self.recency.push_back((clock, row));
        if self.recency.len() > 2 * self.capacity {
            let counters = &self.counters;
            self.recency
                .retain(|&(stamp, row)| is_live(counters, stamp, row));
        }
        count
    }

    /// Forgets any counter for `row` (e.g. because it was promoted through
    /// another path).
    pub fn forget(&mut self, row: GlobalRowId) {
        self.counters.remove(&row);
    }
}

/// Whether the recency entry `(stamp, row)` is `row`'s latest bump.
fn is_live(counters: &HashMap<GlobalRowId, (u32, u64)>, stamp: u64, row: GlobalRowId) -> bool {
    counters.get(&row).is_some_and(|&(_, s)| s == stamp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(n: u64) -> GlobalRowId {
        GlobalRowId(n)
    }

    #[test]
    fn threshold_one_always_promotes() {
        let mut f = PromotionFilter::paper_default();
        assert_eq!(f.threshold(), 1);
        for n in 0..100 {
            assert!(f.observe(row(n)));
        }
        assert_eq!(f.stats().granted, 100);
        assert_eq!(f.stats().suppressed, 0);
    }

    #[test]
    fn threshold_four_requires_four_touches() {
        let mut f = PromotionFilter::new(4, 16);
        for _ in 0..3 {
            assert!(!f.observe(row(7)));
        }
        assert!(f.observe(row(7)));
        // Counter reset after promotion: four more touches needed.
        assert!(!f.observe(row(7)));
        assert_eq!(f.stats().granted, 1);
        assert_eq!(f.stats().suppressed, 4);
    }

    #[test]
    fn counter_file_recycles_lru_rows() {
        let mut f = PromotionFilter::new(2, 2);
        f.observe(row(1));
        f.observe(row(2));
        // Touch row 1 again so row 2 is LRU, then bring in row 3.
        f.observe(row(1)); // promotes row 1 (2 touches) and frees a slot
        f.observe(row(3));
        f.observe(row(4)); // evicts row 2
        assert!(f.stats().recycled >= 1);
        // Row 2 lost its progress: one touch no longer promotes at thr 2.
        assert!(!f.observe(row(2)));
    }

    #[test]
    fn forget_clears_progress() {
        let mut f = PromotionFilter::new(3, 8);
        f.observe(row(9));
        f.observe(row(9));
        f.forget(row(9));
        assert!(!f.observe(row(9)), "progress was cleared");
    }

    #[test]
    #[should_panic(expected = "threshold must be at least 1")]
    fn zero_threshold_rejected() {
        let _ = PromotionFilter::new(0, 8);
    }

    #[test]
    fn runtime_threshold_adjustment_clamps_at_both_rails() {
        let mut f = PromotionFilter::new(4, 8);
        // A policy asking for 0 (or below) lands on the floor instead of
        // tripping the constructor's panic condition.
        assert_eq!(f.set_threshold(0), das_policy::THRESHOLD_MIN);
        assert_eq!(f.threshold(), 1);
        assert_eq!(f.set_threshold(-3), das_policy::THRESHOLD_MIN);
        assert_eq!(f.set_threshold(7), 7);
        assert_eq!(
            f.set_threshold(das_policy::THRESHOLD_MAX as i64 + 500),
            das_policy::THRESHOLD_MAX
        );
        assert_eq!(f.threshold(), das_policy::THRESHOLD_MAX);
    }

    #[test]
    fn note_resolve_split_matches_observe() {
        // Two filters fed the same access stream — one through observe(),
        // one through the note()/resolve() pair a policy runtime uses —
        // must agree on every decision and on final stats.
        let stream: Vec<u64> = (0..40).map(|i| (i * 7) % 5).collect();
        for threshold in [1, 3] {
            let mut legacy = PromotionFilter::new(threshold, 4);
            let mut split = PromotionFilter::new(threshold, 4);
            for &n in &stream {
                let want = legacy.observe(row(n));
                let count = split.note(row(n));
                let grant = count >= split.threshold();
                split.resolve(row(n), grant);
                assert_eq!(grant, want, "threshold {threshold}, row {n}");
            }
            assert_eq!(legacy.stats(), split.stats());
        }
    }

    /// Oracle: the counter file that recycled by scanning every counter
    /// for the oldest stamp.
    struct ScanFile {
        capacity: usize,
        counters: HashMap<GlobalRowId, (u32, u64)>,
        recycled: u64,
    }

    impl ScanFile {
        fn bump(&mut self, row: GlobalRowId, clock: u64) -> u32 {
            if self.counters.len() >= self.capacity && !self.counters.contains_key(&row) {
                if let Some((&old, _)) = self.counters.iter().min_by_key(|(_, &(_, stamp))| stamp) {
                    self.counters.remove(&old);
                    self.recycled += 1;
                }
            }
            let entry = self.counters.entry(row).or_insert((0, clock));
            entry.0 += 1;
            entry.1 = clock;
            entry.0
        }
    }

    #[test]
    fn recency_queue_recycles_like_a_stamp_scan() {
        for case in 0..24u64 {
            // xorshift64, seeded per case.
            let mut x = 0x2545_f491_4f6c_dd1d ^ (case + 1).wrapping_mul(0x9e37_79b9);
            let mut below = |n: u64| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % n
            };
            let capacity = 1 + below(12) as usize;
            let threshold = 2 + below(4) as u32;
            let mut f = PromotionFilter::new(threshold, capacity);
            let mut oracle = ScanFile {
                capacity,
                counters: HashMap::new(),
                recycled: 0,
            };
            let rows = capacity as u64 * 2 + 1;
            for step in 0..4000 {
                let r = row(below(rows));
                match below(10) {
                    0 => {
                        f.forget(r);
                        oracle.counters.remove(&r);
                    }
                    _ => {
                        let count = f.note(r);
                        assert_eq!(count, oracle.bump(r, f.clock), "case {case} step {step}");
                        let grant = count >= threshold || below(8) == 0;
                        f.resolve(r, grant);
                        if grant {
                            oracle.counters.remove(&r);
                        }
                    }
                }
                assert_eq!(f.counters, oracle.counters, "case {case} step {step}");
                assert_eq!(f.stats().recycled, oracle.recycled);
                assert!(f.recency.len() <= 2 * capacity);
            }
            assert!(oracle.recycled > 100, "case {case}: the file rarely filled");
        }
    }

    #[test]
    fn note_counted_tracks_reuse_at_threshold_one() {
        let mut f = PromotionFilter::new(1, 8);
        assert_eq!(f.note_counted(row(3)), 1);
        f.resolve(row(3), false);
        assert_eq!(f.note_counted(row(3)), 2);
        f.resolve(row(3), false);
        assert_eq!(f.note_counted(row(3)), 3);
        // Granting resets the row's progress.
        f.resolve(row(3), true);
        assert_eq!(f.note_counted(row(3)), 1);
    }
}
