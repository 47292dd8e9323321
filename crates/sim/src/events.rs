//! The simulator's event queue.
//!
//! [`EventQueue`] is a binary min-heap of compact `(at, seq, slot)` keys
//! over a payload slab: heap moves shuffle 24-byte keys instead of whole
//! events, and payloads never move once stored. Events pop in `(at, seq)`
//! order, where `seq` is the push order, so equal-tick events run
//! first-in first-out.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use das_dram::tick::Tick;

/// A heap key; the derived order is `(at, seq)` (`seq` is unique, so
/// `slot` never decides).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: Tick,
    seq: u64,
    slot: u32,
}

/// A min-queue of timed events. See the [module docs](self).
#[derive(Debug)]
pub(crate) struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Key>>,
    payloads: Vec<T>,
    free: Vec<u32>,
    seq: u64,
}

impl<T: Copy> EventQueue<T> {
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            payloads: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }

    /// Schedules `payload` at `at`, after every event already queued for
    /// the same tick.
    pub(crate) fn push(&mut self, at: Tick, payload: T) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.payloads[slot as usize] = payload;
                slot
            }
            None => {
                self.payloads.push(payload);
                u32::try_from(self.payloads.len() - 1).expect("event slab overflow")
            }
        };
        self.seq += 1;
        self.heap.push(Reverse(Key {
            at,
            seq: self.seq,
            slot,
        }));
    }

    /// Removes and returns the earliest event.
    pub(crate) fn pop(&mut self) -> Option<(Tick, T)> {
        let Reverse(key) = self.heap.pop()?;
        self.free.push(key.slot);
        Some((key.at, self.payloads[key.slot as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The event representation the queue replaced: whole events in the
    /// heap, ordered by `(at, seq)`.
    #[derive(Debug, Clone, Copy)]
    struct Ev {
        at: Tick,
        seq: u64,
        payload: u32,
    }

    impl PartialEq for Ev {
        fn eq(&self, other: &Self) -> bool {
            (self.at, self.seq) == (other.at, other.seq)
        }
    }
    impl Eq for Ev {}
    impl PartialOrd for Ev {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Ev {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (self.at, self.seq).cmp(&(other.at, other.seq))
        }
    }

    #[test]
    fn pops_in_the_same_order_as_a_heap_of_whole_events() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut rand = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for case in 0..50 {
            let mut queue = EventQueue::new();
            let mut oracle = BinaryHeap::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            for step in 0..2000u32 {
                if rand(3) > 0 {
                    // Many equal ticks: the tie-break is what matters.
                    let at = Tick::new(now + rand(4) * rand(50));
                    seq += 1;
                    queue.push(at, step);
                    oracle.push(Reverse(Ev {
                        at,
                        seq,
                        payload: step,
                    }));
                } else {
                    let got = queue.pop();
                    let want = oracle.pop().map(|Reverse(e)| (e.at, e.payload));
                    assert_eq!(got, want, "case {case} step {step}");
                    if let Some((at, _)) = got {
                        now = at.raw();
                    }
                }
            }
            while let Some(Reverse(e)) = oracle.pop() {
                assert_eq!(queue.pop(), Some((e.at, e.payload)), "case {case} drain");
            }
            assert_eq!(queue.pop(), None);
        }
    }
}
