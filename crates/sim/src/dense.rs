//! Containers for dense integer keys, replacing hash maps on the
//! simulator's request path.

use std::collections::VecDeque;

use das_cache::FastMap;

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
    fn dense_set_counts_distinct_members() {
        let mut set = DenseSet::default();
        for i in [5, 64, 5, 1000, 0, 64, 63] {
            set.insert(i);
        }
        assert_eq!(set.len(), 5);
    }
}
