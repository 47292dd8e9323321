//! The inclusive placement of §5: the tag store behind
//! [`DasManager::inclusive`](crate::management::DasManager::inclusive).
//!
//! The paper weighs two ways to manage the asymmetric DRAM: treating the
//! fast subarrays as a hardware-managed **inclusive** cache of the slow
//! level, or forming one uniform space managed as an **exclusive** cache.
//! It adopts exclusive for capacity (inclusive duplicates 1/8 of memory)
//! but credits inclusive with simpler translation and faster replacement
//! when the victim is clean. Both placements share the manager's
//! translation cache, promotion filter, policy and replacer; only where a
//! row lives differs, and that is all this module holds.
//!
//! Semantics: the OS-visible address space covers **slow rows only**; every
//! logical row has a fixed home slow row. Each migration group's fast slots
//! hold copies of up to `fast_slots` of its rows, tagged and dirty-tracked.
//! A fill over a clean victim is one row copy (1.5 tRC); over a dirty
//! victim, the victim is first written back to its home row (two serial
//! migrations, 3 tRC).

use das_dram::geometry::BankLayout;

#[derive(Debug, Clone, Copy, Default)]
struct Tag {
    /// Cached row's slot within its group + 1; 0 = empty.
    resident: u16,
    dirty: bool,
}

/// Which row of its group each fast slot of every bank caches.
#[derive(Debug, Clone)]
pub(crate) struct InclusiveTags {
    /// `tags[bank][group * fast_slots + slot]`.
    tags: Vec<Vec<Tag>>,
    fast_slots: u32,
    slow_per_group: u32,
}

impl InclusiveTags {
    /// Empty tags for `banks` banks of `layout`, grouping each bank's slow
    /// rows `group_size - fast_slots` at a time.
    ///
    /// # Panics
    ///
    /// Panics if the slow rows do not divide into groups or the fast rows
    /// cannot give every group its slots.
    pub(crate) fn new(banks: usize, group_size: u32, fast_slots: u32, layout: &BankLayout) -> Self {
        let slow_per_group = group_size - fast_slots;
        assert!(fast_slots > 0 && slow_per_group > 0);
        assert!(
            layout.slow_rows().is_multiple_of(slow_per_group),
            "slow rows {} not divisible into groups of {slow_per_group}",
            layout.slow_rows()
        );
        let groups = layout.slow_rows() / slow_per_group;
        assert!(
            groups * fast_slots <= layout.fast_rows(),
            "not enough fast rows for {groups} groups"
        );
        InclusiveTags {
            tags: vec![vec![Tag::default(); (groups * fast_slots) as usize]; banks],
            fast_slots,
            slow_per_group,
        }
    }

    /// The migration group of `logical_row`.
    pub(crate) fn group_of(&self, logical_row: u32) -> u32 {
        logical_row / self.slow_per_group
    }

    fn tag_index(&self, group: u32, slot: u8) -> usize {
        (group * self.fast_slots) as usize + slot as usize
    }

    /// The fast slot caching `logical_row` of `bank`, if any.
    pub(crate) fn cached_slot(&self, bank: usize, logical_row: u32) -> Option<u8> {
        let group = self.group_of(logical_row);
        let want = (logical_row % self.slow_per_group) as u16 + 1;
        let base = self.tag_index(group, 0);
        let tags = self
            .tags
            .get(bank)?
            .get(base..base + self.fast_slots as usize)?;
        tags.iter()
            .position(|t| t.resident == want)
            .map(|s| s as u8)
    }

    /// Physical row serving `logical_row` (its fast copy when cached, else
    /// its home row) and whether that is a fast copy.
    pub(crate) fn peek(&self, bank: usize, logical_row: u32, layout: &BankLayout) -> (u32, bool) {
        match self.cached_slot(bank, logical_row) {
            Some(s) => (self.slot_phys(self.group_of(logical_row), s, layout), true),
            None => (layout.slow_to_phys(logical_row), false),
        }
    }

    /// Physical row of fast slot `slot` of `group`.
    pub(crate) fn slot_phys(&self, group: u32, slot: u8, layout: &BankLayout) -> u32 {
        layout.fast_to_phys(group * self.fast_slots + slot as u32)
    }

    /// The row `(group, slot)` of `bank` caches and whether its copy is
    /// dirty; `None` for an empty slot.
    pub(crate) fn occupant(&self, bank: usize, group: u32, slot: u8) -> Option<(u32, bool)> {
        let t = self.tags[bank][self.tag_index(group, slot)];
        (t.resident != 0).then(|| {
            (
                group * self.slow_per_group + (t.resident as u32 - 1),
                t.dirty,
            )
        })
    }

    /// Marks the copy in `(group, slot)` of `bank` dirty.
    pub(crate) fn mark_dirty(&mut self, bank: usize, group: u32, slot: u8) {
        let idx = self.tag_index(group, slot);
        self.tags[bank][idx].dirty = true;
    }

    /// Retags `(group, slot)` of `bank` to a clean copy of `logical_row`
    /// (a completed fill) and returns the row it evicted, if any.
    pub(crate) fn fill(
        &mut self,
        bank: usize,
        group: u32,
        slot: u8,
        logical_row: u32,
    ) -> Option<u32> {
        let evicted = self.occupant(bank, group, slot).map(|(row, _)| row);
        let idx = self.tag_index(group, slot);
        self.tags[bank][idx] = Tag {
            resident: (logical_row % self.slow_per_group) as u16 + 1,
            dirty: false,
        };
        evicted
    }

    /// Checks that each group's tags name distinct rows of that group;
    /// returns the first offending `(bank, group, slot)`.
    pub(crate) fn verify(&self) -> Result<(), (usize, u32, u8)> {
        for (bank, groups) in self.tags.iter().enumerate() {
            for (group, tags) in groups.chunks(self.fast_slots as usize).enumerate() {
                for (slot, t) in tags.iter().enumerate() {
                    let bad = t.resident as u32 > self.slow_per_group
                        || (t.resident != 0
                            && tags[..slot].iter().any(|p| p.resident == t.resident));
                    if bad {
                        return Err((bank, group as u32, slot as u8));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_dram::geometry::{Arrangement, FastRatio};

    #[test]
    fn verify_catches_a_row_cached_twice() {
        let layout = BankLayout::build(
            512,
            FastRatio::new(1, 8),
            Arrangement::ReducedInterleaving,
            128,
            512,
        );
        let mut t = InclusiveTags::new(2, 32, 4, &layout);
        t.fill(0, 0, 0, 5);
        t.fill(0, 0, 1, 6);
        t.fill(1, 0, 2, 5);
        assert_eq!(t.verify(), Ok(()), "banks are independent");
        t.fill(0, 0, 3, 5);
        assert_eq!(t.verify(), Err((0, 0, 3)));
    }
}
