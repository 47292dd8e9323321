//! The simulator's event queue.
//!
//! [`EventQueue`] is a two-tier calendar queue keyed on DRAM ticks. Let
//! `now` be the tick of the last pop; no push is earlier (the system
//! clamps every push to its clock).
//!
//! * **Near tier:** `WINDOW` one-tick buckets cover `[now, now +
//!   WINDOW)`. Bucket `at % WINDOW` is a first-in first-out list of the
//!   events due at `at`, threaded through the payload slab. An occupancy
//!   bitmap, one bit per bucket plus one summary bit per 64-bucket word,
//!   finds the first non-empty bucket in two word scans.
//! * **Far tier:** a binary min-heap of compact `(at, seq, slot)` keys for
//!   events at or beyond `now + WINDOW`.
//!
//! Nothing migrates between tiers. A near event stays in the window
//! because `now` never passes a queued tick, so each bucket names one
//! tick. Pop takes the earlier of the first near event and the far top.
//! At equal ticks the far event goes first: it was pushed while `now` was
//! at most `at - WINDOW`, before any near event for that tick. Events
//! therefore pop in exactly `(at, seq)` order, where `seq` is the push
//! order.
//!
//! Nine in ten events are due within 4096 ticks (a few tRC) and take the
//! O(1) near path; most far ones are refresh-deadline wakes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use das_dram::tick::Tick;

/// Words of the near tier's occupancy bitmap (one summary bit each).
const WORDS: usize = 64;

/// Ticks covered by the near tier, one bucket each.
const WINDOW: u64 = (WORDS * 64) as u64;

/// The end of a slab list.
const NIL: u32 = u32::MAX;

/// A far-tier heap key; the derived order is `(at, seq)` (`seq` is
/// unique, so `slot` never decides).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: Tick,
    seq: u64,
    slot: u32,
}

/// A payload and the next slot of its bucket list (or of the free list).
#[derive(Debug, Clone, Copy)]
struct Slot<T> {
    payload: T,
    next: u32,
}

/// A near-tier bucket: the slots of its list, oldest first.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

/// A min-queue of timed events. See the [module docs](self).
#[derive(Debug)]
pub(crate) struct EventQueue<T> {
    /// The tick of the last pop.
    now: u64,
    buckets: Box<[Bucket; WINDOW as usize]>,
    /// Bit `b % 64` of word `b / 64` is set iff bucket `b` is non-empty.
    words: [u64; WORDS],
    /// Bit `w` is set iff `words[w]` is non-zero.
    summary: u64,
    far: BinaryHeap<Reverse<Key>>,
    slots: Vec<Slot<T>>,
    /// Head of the free-slot list.
    free: u32,
    seq: u64,
}

impl<T: Copy> EventQueue<T> {
    pub(crate) fn new() -> Self {
        let empty = Bucket {
            head: NIL,
            tail: NIL,
        };
        EventQueue {
            now: 0,
            buckets: vec![empty; WINDOW as usize]
                .into_boxed_slice()
                .try_into()
                .expect("WINDOW buckets"),
            words: [0; WORDS],
            summary: 0,
            far: BinaryHeap::new(),
            slots: Vec::new(),
            free: NIL,
            seq: 0,
        }
    }

    /// Schedules `payload` at `at`, after every event already queued for
    /// the same tick. `at` must not be earlier than the last pop.
    pub(crate) fn push(&mut self, at: Tick, payload: T) {
        debug_assert!(
            at.raw() >= self.now,
            "event at {at} is before the last pop at {}",
            self.now
        );
        let slot = self.alloc(payload);
        if at.raw() - self.now < WINDOW {
            let b = (at.raw() % WINDOW) as usize;
            let bucket = &mut self.buckets[b];
            if bucket.head == NIL {
                bucket.head = slot;
                self.words[b / 64] |= 1 << (b % 64);
                self.summary |= 1 << (b / 64);
            } else {
                self.slots[bucket.tail as usize].next = slot;
            }
            bucket.tail = slot;
        } else {
            self.seq += 1;
            self.far.push(Reverse(Key {
                at,
                seq: self.seq,
                slot,
            }));
        }
    }

    /// Removes and returns the earliest event.
    pub(crate) fn pop(&mut self) -> Option<(Tick, T)> {
        let near = self.first_bucket().map(|b| {
            let ahead = (b as u64).wrapping_sub(self.now) % WINDOW;
            (self.now + ahead, b)
        });
        let far_at = self.far.peek().map(|Reverse(k)| k.at.raw());
        let (at, slot) = match (near, far_at) {
            (Some((at, b)), far) if far.is_none_or(|f| at < f) => {
                let bucket = &mut self.buckets[b];
                let slot = bucket.head;
                bucket.head = self.slots[slot as usize].next;
                if bucket.head == NIL {
                    self.words[b / 64] &= !(1 << (b % 64));
                    if self.words[b / 64] == 0 {
                        self.summary &= !(1 << (b / 64));
                    }
                }
                (at, slot)
            }
            _ => {
                let Reverse(key) = self.far.pop()?;
                (key.at.raw(), key.slot)
            }
        };
        self.now = at;
        let entry = &mut self.slots[slot as usize];
        entry.next = self.free;
        self.free = slot;
        Some((Tick::new(at), entry.payload))
    }

    /// Stores `payload` in a free slot, growing the slab if none is free.
    fn alloc(&mut self, payload: T) -> u32 {
        let entry = Slot { payload, next: NIL };
        if self.free == NIL {
            self.slots.push(entry);
            u32::try_from(self.slots.len() - 1).expect("event slab overflow")
        } else {
            let slot = self.free;
            self.free = self.slots[slot as usize].next;
            self.slots[slot as usize] = entry;
            slot
        }
    }

    /// The first non-empty bucket in tick order from `now`: bucket
    /// `now % WINDOW` onwards, wrapping round once.
    fn first_bucket(&self) -> Option<usize> {
        if self.summary == 0 {
            return None;
        }
        let start = (self.now % WINDOW) as usize;
        let w = start / 64;
        let here = self.words[w] & (u64::MAX << (start % 64));
        if here != 0 {
            return Some(w * 64 + here.trailing_zeros() as usize);
        }
        // Later words first; else wrap to the lowest word, which may be
        // `w` itself (its bits below `start`, the window's last ticks).
        let later = self.summary & ((u64::MAX << w) << 1);
        let next = if later != 0 { later } else { self.summary };
        let word = next.trailing_zeros() as usize;
        Some(word * 64 + self.words[word].trailing_zeros() as usize)
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

    /// xorshift64: `rand(n)` draws from `0..n`.
    fn rng(mut state: u64) -> impl FnMut(u64) -> u64 {
        move |n| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        }
    }

    /// The queue under test beside the heap-of-whole-events oracle; every
    /// pop is compared.
    struct Pair {
        queue: EventQueue<u32>,
        oracle: BinaryHeap<Reverse<Ev>>,
        seq: u64,
        now: u64,
        pushed: u32,
    }

    impl Pair {
        fn new() -> Self {
            Pair {
                queue: EventQueue::new(),
                oracle: BinaryHeap::new(),
                seq: 0,
                now: 0,
                pushed: 0,
            }
        }

        /// Pushes an event `delay` ticks after the last pop.
        fn push(&mut self, delay: u64) {
            let at = Tick::new(self.now + delay);
            self.seq += 1;
            self.pushed += 1;
            self.queue.push(at, self.pushed);
            self.oracle.push(Reverse(Ev {
                at,
                seq: self.seq,
                payload: self.pushed,
            }));
        }

        /// Pops from both and asserts they agree; returns the tick.
        fn pop(&mut self, what: &str) -> Option<u64> {
            let got = self.queue.pop();
            let want = self.oracle.pop().map(|Reverse(e)| (e.at, e.payload));
            assert_eq!(got, want, "{what}");
            let at = got?.0.raw();
            self.now = at;
            Some(at)
        }

        fn drain(&mut self, what: &str) {
            while self.pop(what).is_some() {}
        }
    }

    /// Random push/pop interleavings, two pushes per pop on average, with
    /// push delays drawn by `delay`.
    fn random_runs(
        seed: u64,
        cases: u32,
        mut delay: impl FnMut(&mut dyn FnMut(u64) -> u64) -> u64,
    ) {
        let mut rand = rng(seed);
        for case in 0..cases {
            let mut pair = Pair::new();
            for step in 0..2000u32 {
                if rand(3) > 0 {
                    let d = delay(&mut rand);
                    pair.push(d);
                } else {
                    pair.pop(&format!("case {case} step {step}"));
                }
            }
            pair.drain(&format!("case {case} drain"));
        }
    }

    #[test]
    fn pops_in_the_same_order_as_a_heap_of_whole_events() {
        // Many equal ticks: the tie-break is what matters.
        random_runs(0x2545_f491_4f6c_dd1d, 50, |rand| rand(4) * rand(50));
    }

    #[test]
    fn far_and_wrapping_events_pop_in_heap_order() {
        // Same tick, short (a few tRC), straddling the window, and
        // refresh-deadline far (tREFI is 187,200 ticks).
        random_runs(0x9e37_79b9_7f4a_7c15, 50, |rand| match rand(4) {
            0 => 0,
            1 => rand(300),
            2 => rand(8192),
            _ => 150_000 + rand(40_001),
        });
    }

    #[test]
    fn window_edges_split_between_tiers_in_order() {
        let mut pair = Pair::new();
        for gap in [0, 1, 62, 64, 4095, 4096, 10_000] {
            // Advance `now` by `gap` through one event.
            pair.push(gap);
            let now = pair.pop("advance");
            for delay in [4096, 4095, 4096, 0, 4095, 4097, 1, 4094] {
                pair.push(delay);
            }
            assert_eq!(pair.pop("same tick"), now);
            // The last near bucket and the first far tick, with ties.
            for _ in 0..3 {
                pair.pop("window edge");
            }
            pair.push(4095);
            pair.push(4096);
            pair.drain("window edge drain");
        }
    }

    #[test]
    fn near_pushes_after_a_far_pop_use_the_new_now() {
        let mut pair = Pair::new();
        pair.push(10);
        pair.push(190_000);
        pair.push(190_000);
        assert_eq!(pair.pop("near"), Some(10));
        // The near tier is empty: the far top pops and becomes `now`.
        assert_eq!(pair.pop("far"), Some(190_000));
        // Relative to the new `now`: the same tick as the remaining far
        // event (which goes first), near, the window's last tick, far.
        for delay in [0, 5, 4095, 4096, 3] {
            pair.push(delay);
        }
        assert_eq!(pair.pop("older far event at the same tick"), Some(190_000));
        pair.drain("after far pop");
        assert_eq!(pair.now, 190_000 + 4096);
        // Once more after a far pop wrapped the window several times.
        pair.push(1_000_000);
        pair.pop("far again");
        pair.push(4095);
        pair.push(0);
        pair.drain("near after second far pop");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "before the last pop")]
    fn pushing_before_the_last_pop_is_caught() {
        let mut queue = EventQueue::new();
        queue.push(Tick::new(100), 0u32);
        queue.pop();
        queue.push(Tick::new(99), 1);
    }
}
