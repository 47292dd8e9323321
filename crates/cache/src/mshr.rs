//! Miss-status holding registers: merge concurrent misses to the same line
//! so only one DRAM fetch is outstanding per line.

use crate::fast_hash::FastMap;

/// An MSHR file tracking outstanding line fetches and the waiters merged
/// onto each.
///
/// `T` is the caller's waiter token (e.g. a request id).
///
/// # Examples
///
/// ```
/// use das_cache::mshr::Mshr;
///
/// let mut mshr: Mshr<u32> = Mshr::new(4);
/// assert!(mshr.register(0x40, 1).expect("capacity"));  // primary miss
/// assert!(!mshr.register(0x40, 2).expect("merged"));   // secondary, merged
/// assert_eq!(mshr.complete(0x40), vec![1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct Mshr<T> {
    capacity: usize,
    pending: FastMap<u64, Vec<T>>,
}

impl<T> Mshr<T> {
    /// Creates an MSHR file with room for `capacity` distinct lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be positive");
        Mshr {
            capacity,
            pending: FastMap::default(),
        }
    }

    /// Registers a waiter for `line`. Returns `Some(true)` if this is the
    /// primary miss (the caller must start the fetch), `Some(false)` if it
    /// merged onto an outstanding fetch, and `None` if the file is full and
    /// the line is not already tracked (the caller must stall).
    pub fn register(&mut self, line: u64, waiter: T) -> Option<bool> {
        if let Some(waiters) = self.pending.get_mut(&line) {
            waiters.push(waiter);
            return Some(false);
        }
        if self.pending.len() >= self.capacity {
            return None;
        }
        self.pending.insert(line, vec![waiter]);
        Some(true)
    }

    /// Completes the fetch of `line`, draining its waiters (in registration
    /// order). Returns an empty vec if the line was not tracked.
    pub fn complete(&mut self, line: u64) -> Vec<T> {
        self.pending.remove(&line).unwrap_or_default()
    }

    /// Whether `line` has an outstanding fetch.
    pub fn is_pending(&self, line: u64) -> bool {
        self.pending.contains_key(&line)
    }

    /// Number of outstanding lines.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Whether no new primary miss can be accepted.
    pub fn is_full(&self) -> bool {
        self.pending.len() >= self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_and_secondary_misses() {
        let mut m: Mshr<&str> = Mshr::new(2);
        assert_eq!(m.register(64, "a"), Some(true));
        assert_eq!(m.register(64, "b"), Some(false));
        assert_eq!(m.outstanding(), 1);
        assert!(m.is_pending(64));
        assert_eq!(m.complete(64), vec!["a", "b"]);
        assert!(!m.is_pending(64));
    }

    #[test]
    fn capacity_limits_distinct_lines_not_merges() {
        let mut m: Mshr<u8> = Mshr::new(1);
        assert_eq!(m.register(0, 1), Some(true));
        assert!(m.is_full());
        assert_eq!(m.register(64, 2), None, "full for new lines");
        assert_eq!(m.register(0, 3), Some(false), "merge still allowed");
        assert_eq!(m.complete(0), vec![1, 3]);
        assert!(!m.is_full());
    }

    #[test]
    fn complete_unknown_line_is_empty() {
        let mut m: Mshr<u8> = Mshr::new(1);
        assert!(m.complete(123).is_empty());
    }
}
