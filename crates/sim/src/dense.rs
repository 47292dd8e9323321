//! Containers for dense integer keys, replacing hash maps on the
//! simulator's request path.

use std::collections::VecDeque;

use das_cache::{FastMap, FastSet};
use das_dram::geometry::BankCoord;

/// Per-request values keyed by request id. Ids are handed out in increasing
/// order and mostly retire within a short window, so live ids are stored in
/// a deque offset by the oldest live id instead of a hash map. A request
/// that outlives [`WINDOW`] younger ids (a write-back parked behind reads)
/// moves to a side map, which keeps the deque at a fixed size.
#[derive(Debug)]
pub(crate) struct IdSlab<T> {
    /// Id of `slots[0]`.
    base: u64,
    slots: VecDeque<Option<T>>,
    stragglers: FastMap<u64, T>,
}

/// Ids spanned by the deque.
const WINDOW: usize = 1024;

impl<T> IdSlab<T> {
    pub(crate) fn new() -> Self {
        IdSlab {
            base: 0,
            slots: VecDeque::with_capacity(WINDOW),
            stragglers: FastMap::default(),
        }
    }

    /// Stores `value` for `id`.
    pub(crate) fn insert(&mut self, id: u64, value: T) {
        if self.slots.is_empty() {
            self.base = id;
        }
        if id < self.base {
            self.stragglers.insert(id, value);
            return;
        }
        while id - self.base >= WINDOW as u64 {
            match self.slots.pop_front() {
                Some(front) => {
                    if let Some(v) = front {
                        self.stragglers.insert(self.base, v);
                    }
                    self.base += 1;
                }
                None => self.base = id,
            }
        }
        let idx = (id - self.base) as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        self.slots[idx] = Some(value);
        self.trim();
    }

    /// Takes the value stored for `id`, if any.
    pub(crate) fn remove(&mut self, id: u64) -> Option<T> {
        let slot = id
            .checked_sub(self.base)
            .and_then(|i| self.slots.get_mut(usize::try_from(i).ok()?));
        if let Some(value) = slot.and_then(Option::take) {
            self.trim();
            return Some(value);
        }
        if self.stragglers.is_empty() {
            return None;
        }
        self.stragglers.remove(&id)
    }

    /// Drops retired ids from the front of the deque.
    fn trim(&mut self) {
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
    }
}

/// A set of small non-negative integers (row or subarray indices) as a
/// bitmap; only membership and the count are kept.
#[derive(Debug, Default)]
pub(crate) struct DenseSet {
    words: Vec<u64>,
    len: usize,
}

impl DenseSet {
    /// Adds `i` to the set.
    pub(crate) fn insert(&mut self, i: usize) {
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        if self.words[word] & bit == 0 {
            self.words[word] |= bit;
            self.len += 1;
        }
    }

    /// Number of distinct members.
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

/// The controller's recently-translated-row registers: a FIFO of at most
/// `cap` distinct `(bank, logical row)` keys with O(1) membership. The hash
/// set mirrors the FIFO, which keeps the eviction order.
#[derive(Debug)]
pub(crate) struct RecentRows {
    cap: usize,
    order: VecDeque<u64>,
    members: FastSet<u64>,
}

/// One register key as a single word, hashed with one multiply.
fn row_key(bank: BankCoord, row: u32) -> u64 {
    u64::from(bank.channel) << 48
        | u64::from(bank.rank) << 40
        | u64::from(bank.bank) << 32
        | u64::from(row)
}

impl RecentRows {
    pub(crate) fn new(cap: usize) -> Self {
        RecentRows {
            cap,
            order: VecDeque::with_capacity(cap + 1),
            members: FastSet::default(),
        }
    }

    /// Whether `(bank, row)` is held.
    pub(crate) fn contains(&self, bank: BankCoord, row: u32) -> bool {
        self.members.contains(&row_key(bank, row))
    }

    /// Holds `(bank, row)`, which must not be held yet, evicting the oldest
    /// key beyond the capacity.
    pub(crate) fn note(&mut self, bank: BankCoord, row: u32) {
        let key = row_key(bank, row);
        let fresh = self.members.insert(key);
        debug_assert!(fresh, "translation register noted twice");
        self.order.push_back(key);
        if self.order.len() > self.cap {
            if let Some(old) = self.order.pop_front() {
                self.members.remove(&old);
            }
        }
    }

    /// Drops `(bank, row)` if held, keeping the order of the rest.
    pub(crate) fn forget(&mut self, bank: BankCoord, row: u32) {
        let key = row_key(bank, row);
        if self.members.remove(&key) {
            if let Some(i) = self.order.iter().position(|&k| k == key) {
                self.order.remove(i);
            }
        }
    }

    /// Drops every key.
    pub(crate) fn clear(&mut self) {
        self.order.clear();
        self.members.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_slab_tracks_out_of_order_retirement() {
        let mut slab = IdSlab::new();
        for id in 1..=5u64 {
            slab.insert(id, id * 10);
        }
        assert_eq!(slab.remove(3), Some(30));
        assert_eq!(slab.remove(3), None);
        assert_eq!(slab.remove(1), Some(10));
        // Inserting ahead of the window and out of order is fine.
        slab.insert(7, 70);
        slab.insert(6, 60);
        assert_eq!(slab.remove(2), Some(20));
        assert_eq!(slab.slots.len(), 4, "retired prefix is trimmed");
        assert_eq!(slab.remove(99), None);
        assert_eq!(slab.remove(0), None);
        for id in [4, 5, 6, 7] {
            assert_eq!(slab.remove(id), Some(id * 10));
        }
        assert!(slab.slots.is_empty());
        let mut fresh = IdSlab::new();
        fresh.insert(9, 90);
        fresh.insert(8, 80);
        assert_eq!((fresh.remove(8), fresh.remove(9)), (Some(80), Some(90)));
    }

    #[test]
    fn id_slab_moves_long_lived_ids_aside() {
        let mut slab = IdSlab::new();
        slab.insert(1, 1u64);
        for id in 2..=10 * WINDOW as u64 {
            slab.insert(id, id);
            if id > 2 {
                assert_eq!(slab.remove(id - 1), Some(id - 1));
            }
            assert!(slab.slots.len() <= WINDOW);
        }
        assert_eq!(slab.stragglers.len(), 1, "only id 1 outlived the window");
        assert_eq!(slab.remove(1), Some(1));
        assert_eq!(slab.remove(1), None);
        let last = 10 * WINDOW as u64;
        assert_eq!(slab.remove(last), Some(last));
        assert!(slab.slots.is_empty() && slab.stragglers.is_empty());
    }

    #[test]
    fn recent_rows_match_the_linear_scan_registers() {
        // The pre-rewrite registers, verbatim: a deque scanned on every
        // membership test.
        let cap = 8;
        let mut model: VecDeque<(BankCoord, u32)> = VecDeque::with_capacity(cap + 1);
        let mut regs = RecentRows::new(cap);
        let mut rng = das_faults::Prng::new(0x7e9);
        for step in 0..50_000 {
            let bank = BankCoord::new(
                rng.range_u32(0, 2) as u8,
                rng.range_u32(0, 2) as u8,
                rng.range_u32(0, 3) as u8,
            );
            let row = rng.range_u32(0, 6) << (8 * rng.range_u32(0, 4));
            let held = model.contains(&(bank, row));
            assert_eq!(regs.contains(bank, row), held, "step {step}");
            match rng.bounded_u64(100) {
                // The system notes a key only after a membership miss.
                0..=59 if !held => {
                    model.push_back((bank, row));
                    if model.len() > cap {
                        model.pop_front();
                    }
                    regs.note(bank, row);
                }
                60..=97 => {
                    model.retain(|&e| e != (bank, row));
                    regs.forget(bank, row);
                }
                98 | 99 => {
                    model.clear();
                    regs.clear();
                }
                _ => {}
            }
            let keys: Vec<u64> = model.iter().map(|&(b, r)| row_key(b, r)).collect();
            assert!(regs.order.iter().eq(&keys), "order diverged at step {step}");
            assert_eq!(regs.members.len(), model.len(), "step {step}");
            for &(b, r) in &model {
                assert!(regs.contains(b, r), "step {step}");
            }
        }
    }

    #[test]
    fn dense_set_counts_distinct_members() {
        let mut set = DenseSet::default();
        for i in [5, 64, 5, 1000, 0, 64, 63] {
            set.insert(i);
        }
        assert_eq!(set.len(), 5);
    }
}
