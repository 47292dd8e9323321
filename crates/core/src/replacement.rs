//! Fast-level replacement policies (§5.3 / §7.6).
//!
//! When a promotion needs a victim among a group's fast slots, one of four
//! policies chooses it: LRU, uniform random, sequential (round-robin per
//! group), or the paper's cheap pseudo-random scheme driven by one global
//! increasing counter. Fig. 9c/9d show the choice barely matters at the
//! paper's fast-level size — a result the reproduction confirms.

use std::collections::HashMap;

use das_faults::Prng;

use crate::groups::GroupId;

/// Which victim-selection policy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-accessed fast slot of the group.
    #[default]
    Lru,
    /// Evict a uniformly random fast slot.
    Random,
    /// Round-robin over the group's fast slots.
    Sequential,
    /// The paper's pseudo-random policy: a single global increasing counter
    /// indexes the victim slot (`counter % fast_slots`).
    GlobalCounter,
}

impl ReplacementPolicy {
    /// Parses a policy key: `lru`, `random`, `seq` or `counter`.
    pub fn parse(key: &str) -> Option<Self> {
        Some(match key {
            "lru" => ReplacementPolicy::Lru,
            "random" => ReplacementPolicy::Random,
            "seq" => ReplacementPolicy::Sequential,
            "counter" => ReplacementPolicy::GlobalCounter,
            _ => return None,
        })
    }
}

#[derive(Debug, Clone, Default)]
struct GroupState {
    /// Last-access stamp per fast slot (LRU).
    last_access: Vec<u64>,
    /// Next victim cursor (Sequential).
    cursor: u8,
}

/// Stateful victim selector.
#[derive(Debug, Clone)]
pub struct Replacer {
    policy: ReplacementPolicy,
    rng: Prng,
    global_counter: u64,
    groups: HashMap<GroupId, GroupState>,
}

impl Replacer {
    /// Creates a selector for `policy`; `seed` drives the Random policy.
    pub fn new(policy: ReplacementPolicy, seed: u64) -> Self {
        Replacer {
            policy,
            rng: Prng::new(seed ^ 0x72_6570_6c61_6365),
            global_counter: 0,
            groups: HashMap::new(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Records an access that hit fast slot `phys_slot` of `group` at
    /// logical time `now` (feeds LRU).
    pub fn note_fast_access(&mut self, group: GroupId, phys_slot: u8, fast_slots: u32, now: u64) {
        if self.policy != ReplacementPolicy::Lru {
            return;
        }
        let st = self.groups.entry(group).or_default();
        if st.last_access.len() < fast_slots as usize {
            st.last_access.resize(fast_slots as usize, 0);
        }
        st.last_access[phys_slot as usize] = now;
    }

    /// Chooses the victim fast slot (`0..fast_slots`) for a promotion into
    /// `group`.
    ///
    /// # Panics
    ///
    /// Panics if `fast_slots == 0`.
    pub fn choose_victim(&mut self, group: GroupId, fast_slots: u32) -> u8 {
        assert!(fast_slots > 0, "no fast slots to replace");
        match self.policy {
            ReplacementPolicy::Lru => {
                let st = self.groups.entry(group).or_default();
                if st.last_access.len() < fast_slots as usize {
                    st.last_access.resize(fast_slots as usize, 0);
                }
                st.last_access[..fast_slots as usize]
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &t)| t)
                    .map(|(i, _)| i as u8)
                    .expect("nonempty")
            }
            ReplacementPolicy::Random => self.rng.range_u32(0, fast_slots) as u8,
            ReplacementPolicy::Sequential => {
                let st = self.groups.entry(group).or_default();
                let v = st.cursor % fast_slots as u8;
                st.cursor = (v + 1) % fast_slots as u8;
                v
            }
            ReplacementPolicy::GlobalCounter => {
                self.global_counter = self.global_counter.wrapping_add(1);
                (self.global_counter % fast_slots as u64) as u8
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gid(g: u32) -> GroupId {
        GroupId { bank: 0, group: g }
    }

    #[test]
    fn keys_parse() {
        assert_eq!(
            ReplacementPolicy::parse("lru"),
            Some(ReplacementPolicy::Lru)
        );
        assert_eq!(
            ReplacementPolicy::parse("random"),
            Some(ReplacementPolicy::Random)
        );
        assert_eq!(
            ReplacementPolicy::parse("seq"),
            Some(ReplacementPolicy::Sequential)
        );
        assert_eq!(
            ReplacementPolicy::parse("counter"),
            Some(ReplacementPolicy::GlobalCounter)
        );
        assert_eq!(ReplacementPolicy::parse("fifo"), None);
    }

    #[test]
    fn lru_picks_least_recent() {
        let mut r = Replacer::new(ReplacementPolicy::Lru, 0);
        for (slot, t) in [(0u8, 30u64), (1, 10), (2, 20), (3, 40)] {
            r.note_fast_access(gid(0), slot, 4, t);
        }
        assert_eq!(r.choose_victim(gid(0), 4), 1);
        r.note_fast_access(gid(0), 1, 4, 50);
        assert_eq!(r.choose_victim(gid(0), 4), 2);
    }

    #[test]
    fn lru_state_is_per_group() {
        let mut r = Replacer::new(ReplacementPolicy::Lru, 0);
        r.note_fast_access(gid(0), 0, 2, 100);
        // Group 1 untouched: victim is slot 0 (stamp 0).
        assert_eq!(r.choose_victim(gid(1), 2), 0);
        assert_eq!(r.choose_victim(gid(0), 2), 1);
    }

    #[test]
    fn sequential_cycles() {
        let mut r = Replacer::new(ReplacementPolicy::Sequential, 0);
        let picks: Vec<u8> = (0..6).map(|_| r.choose_victim(gid(3), 4)).collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn global_counter_is_group_agnostic() {
        let mut r = Replacer::new(ReplacementPolicy::GlobalCounter, 0);
        let a = r.choose_victim(gid(0), 4);
        let b = r.choose_victim(gid(7), 4);
        let c = r.choose_victim(gid(0), 4);
        assert_eq!((a, b, c), (1, 2, 3), "one shared counter");
    }

    #[test]
    fn random_covers_all_slots() {
        let mut r = Replacer::new(ReplacementPolicy::Random, 42);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[r.choose_victim(gid(0), 4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let seq = |seed| {
            let mut r = Replacer::new(ReplacementPolicy::Random, seed);
            (0..20)
                .map(|_| r.choose_victim(gid(0), 4))
                .collect::<Vec<_>>()
        };
        assert_eq!(seq(1), seq(1));
        assert_ne!(seq(1), seq(2));
    }

    #[test]
    fn victims_always_in_range() {
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Random,
            ReplacementPolicy::Sequential,
            ReplacementPolicy::GlobalCounter,
        ] {
            let mut r = Replacer::new(policy, 9);
            for fast_slots in [1u32, 2, 4, 8] {
                for _ in 0..50 {
                    assert!((r.choose_victim(gid(fast_slots), fast_slots) as u32) < fast_slots);
                }
            }
        }
    }
}
