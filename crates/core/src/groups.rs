//! Migration groups: the bounded-freedom translation domains of §5.2.
//!
//! Each bank's logical row space is partitioned into groups of `group_size`
//! consecutive rows. A group owns `fast_slots` physical rows in fast
//! subarrays and `group_size - fast_slots` in slow subarrays; management may
//! permute logical rows across the physical slots *of their own group only*,
//! which caps each translation entry at one byte (group_size ≤ 256).

use das_dram::geometry::{BankLayout, FastRatio};

/// Identifies one migration group: `(flat bank index, group index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId {
    /// Flat bank index (see `DramGeometry::bank_index`).
    pub bank: usize,
    /// Group index within the bank.
    pub group: u32,
}

/// The permutation state of every group in one bank.
///
/// Slot numbering inside a group: physical slots `0..fast_slots` are the
/// group's fast rows (in fast-space order) and `fast_slots..group_size` its
/// slow rows. Logical slot `s` of group `g` is logical row
/// `g * group_size + s`.
#[derive(Debug, Clone)]
pub struct BankGroups {
    group_size: u32,
    fast_slots: u32,
    /// `to_phys[g * group_size + s]` = physical slot of logical slot `s`.
    to_phys: Vec<u8>,
    /// Inverse permutation.
    to_logical: Vec<u8>,
}

impl BankGroups {
    /// Creates identity-mapped groups for a bank of `rows_per_bank` rows.
    ///
    /// # Panics
    ///
    /// Panics if `group_size` is 0, exceeds 256, does not divide
    /// `rows_per_bank`, or the ratio does not yield an exact integer number
    /// of fast slots per group.
    pub fn new(rows_per_bank: u32, group_size: u32, ratio: FastRatio) -> Self {
        let mut g = Self::with_rotation(rows_per_bank, group_size, ratio, 0);
        // Pure identity: undo the per-group spread of `with_rotation`.
        let gs = group_size as usize;
        for (i, p) in g.to_phys.iter_mut().enumerate() {
            *p = (i % gs) as u8;
        }
        g.to_logical = g.to_phys.clone();
        g
    }

    /// Like [`BankGroups::new`] but rotates the initial permutation of
    /// group `g` by `stride + 7 g` slots.
    ///
    /// The rotation decorrelates the initial fast-slot placement from low
    /// logical row numbers: without it, a small footprint packed at the
    /// bottom of memory would start entirely inside the fast level, which
    /// no real allocation would guarantee. With a per-bank `stride`, any
    /// contiguous footprint starts with ≈ the configured ratio of its rows
    /// fast.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`BankGroups::new`].
    pub fn with_rotation(
        rows_per_bank: u32,
        group_size: u32,
        ratio: FastRatio,
        stride: u32,
    ) -> Self {
        assert!(
            group_size > 0 && group_size <= 256,
            "group size must be 1..=256"
        );
        assert!(
            rows_per_bank.is_multiple_of(group_size),
            "group size {group_size} does not divide {rows_per_bank} rows"
        );
        let fast_slots = ratio.apply(group_size);
        assert!(fast_slots > 0, "groups must contain at least one fast slot");
        assert!(
            fast_slots < group_size,
            "groups must contain at least one slow slot"
        );
        let n = rows_per_bank as usize;
        let gs = group_size as usize;
        let mut to_phys = vec![0u8; n];
        let mut to_logical = vec![0u8; n];
        for g in 0..(n / gs) {
            let rot = (stride as usize + 7 * g) % gs;
            for s in 0..gs {
                let p = (s + rot) % gs;
                to_phys[g * gs + s] = p as u8;
                to_logical[g * gs + p] = s as u8;
            }
        }
        BankGroups {
            group_size,
            fast_slots,
            to_phys,
            to_logical,
        }
    }

    /// Rows per group.
    pub fn group_size(&self) -> u32 {
        self.group_size
    }

    /// Fast physical slots per group.
    pub fn fast_slots(&self) -> u32 {
        self.fast_slots
    }

    /// Number of groups in the bank.
    pub fn groups(&self) -> u32 {
        (self.to_phys.len() as u32) / self.group_size
    }

    /// The group and logical slot of a logical row.
    pub fn locate(&self, logical_row: u32) -> (u32, u32) {
        (logical_row / self.group_size, logical_row % self.group_size)
    }

    /// Physical slot currently holding logical row `logical_row`.
    pub fn phys_slot(&self, logical_row: u32) -> u8 {
        self.to_phys[logical_row as usize]
    }

    /// Logical slot currently stored in `(group, phys_slot)`.
    pub fn logical_slot(&self, group: u32, phys_slot: u8) -> u8 {
        self.to_logical[(group * self.group_size) as usize + phys_slot as usize]
    }

    /// Whether logical row `logical_row` currently resides in a fast slot.
    pub fn is_fast(&self, logical_row: u32) -> bool {
        (self.phys_slot(logical_row) as u32) < self.fast_slots
    }

    /// The physical DRAM row of a `(group, phys_slot)` pair under `layout`.
    ///
    /// Fast slots map through the bank's fast row space, slow slots through
    /// the slow space, both at group-strided offsets.
    pub fn phys_row(&self, group: u32, phys_slot: u8, layout: &BankLayout) -> u32 {
        let slot = phys_slot as u32;
        if slot < self.fast_slots {
            layout.fast_to_phys(group * self.fast_slots + slot)
        } else {
            let slow_per_group = self.group_size - self.fast_slots;
            layout.slow_to_phys(group * slow_per_group + (slot - self.fast_slots))
        }
    }

    /// Physical DRAM row currently holding logical row `logical_row`.
    pub fn phys_row_of_logical(&self, logical_row: u32, layout: &BankLayout) -> u32 {
        let (group, _) = self.locate(logical_row);
        self.phys_row(group, self.phys_slot(logical_row), layout)
    }

    /// Swaps the physical slots of two logical rows of the same group
    /// (the state change committed after a completed row swap).
    ///
    /// # Panics
    ///
    /// Panics if the rows belong to different groups.
    pub fn swap_logical(&mut self, row_a: u32, row_b: u32) {
        let (ga, sa) = self.locate(row_a);
        let (gb, _) = self.locate(row_b);
        assert_eq!(ga, gb, "swap across groups: {row_a} vs {row_b}");
        let pa = self.to_phys[row_a as usize];
        let pb = self.to_phys[row_b as usize];
        self.to_phys[row_a as usize] = pb;
        self.to_phys[row_b as usize] = pa;
        let base = (ga * self.group_size) as usize;
        self.to_logical[base + pa as usize] = (row_b % self.group_size) as u8;
        self.to_logical[base + pb as usize] = (row_a % self.group_size) as u8;
        debug_assert_eq!(sa as u8, self.to_logical[base + pb as usize]);
    }

    /// Mean subarray hop distance between the fast and slow slots of each
    /// group under `layout` — the actual average migration path length
    /// (§4.3/Fig. 5). Partitioned layouts place a group's fast slots far
    /// from its slow slots; reduced interleaving keeps them adjacent.
    pub fn mean_intra_group_hops(&self, layout: &BankLayout) -> f64 {
        let mut total = 0u64;
        let mut n = 0u64;
        for g in 0..self.groups() {
            for f in 0..self.fast_slots as u8 {
                let pf = self.phys_row(g, f, layout);
                for s in self.fast_slots as u8..self.group_size as u8 {
                    let ps = self.phys_row(g, s, layout);
                    total += layout.migration_hops(pf, ps) as u64;
                    n += 1;
                }
            }
        }
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64
        }
    }

    /// Verifies the permutation invariant for every group, returning the
    /// first violation instead of panicking: each logical row maps to
    /// exactly one physical slot and the inverse map agrees.
    pub fn verify(&self) -> Result<(), GroupInvariantError> {
        for g in 0..self.groups() {
            let base = (g * self.group_size) as usize;
            let mut seen = vec![false; self.group_size as usize];
            for s in 0..self.group_size as usize {
                let p = self.to_phys[base + s] as usize;
                if p >= seen.len() || seen[p] {
                    return Err(GroupInvariantError::DuplicatePhysicalSlot {
                        group: g,
                        slot: p as u32,
                    });
                }
                seen[p] = true;
                if self.to_logical[base + p] as usize != s {
                    return Err(GroupInvariantError::InverseMismatch {
                        group: g,
                        logical_slot: s as u32,
                    });
                }
            }
        }
        Ok(())
    }

    /// Verifies the permutation invariant for every group (test support;
    /// panicking wrapper over [`BankGroups::verify`]).
    pub fn check_invariants(&self) {
        if let Err(e) = self.verify() {
            panic!("{e}");
        }
    }
}

/// A violation of the group-permutation invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupInvariantError {
    /// Two logical rows of a group claim the same physical slot — the
    /// exclusive-cache "one logical row per physical location" rule broke.
    DuplicatePhysicalSlot {
        /// Offending group.
        group: u32,
        /// Physical slot claimed twice (or out of range).
        slot: u32,
    },
    /// The forward and inverse permutations disagree.
    InverseMismatch {
        /// Offending group.
        group: u32,
        /// Logical slot whose round-trip failed.
        logical_slot: u32,
    },
}

impl core::fmt::Display for GroupInvariantError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GroupInvariantError::DuplicatePhysicalSlot { group, slot } => {
                write!(f, "group {group}: duplicate physical slot {slot}")
            }
            GroupInvariantError::InverseMismatch {
                group,
                logical_slot,
            } => {
                write!(
                    f,
                    "group {group}: inverse mismatch at logical slot {logical_slot}"
                )
            }
        }
    }
}

impl std::error::Error for GroupInvariantError {}

#[cfg(test)]
mod tests {
    use super::*;
    use das_dram::geometry::Arrangement;

    fn groups() -> BankGroups {
        BankGroups::new(4096, 32, FastRatio::new(1, 8))
    }

    fn layout() -> BankLayout {
        BankLayout::build(
            4096,
            FastRatio::new(1, 8),
            Arrangement::ReducedInterleaving,
            128,
            512,
        )
    }

    #[test]
    fn identity_initialisation() {
        let g = groups();
        assert_eq!(g.group_size(), 32);
        assert_eq!(g.fast_slots(), 4);
        assert_eq!(g.groups(), 128);
        assert!(g.is_fast(0) && g.is_fast(3));
        assert!(!g.is_fast(4) && !g.is_fast(31));
        assert!(g.is_fast(32), "slot pattern repeats per group");
        g.check_invariants();
    }

    #[test]
    fn swap_moves_row_to_fast() {
        let mut g = groups();
        assert!(!g.is_fast(10));
        g.swap_logical(10, 0); // promote logical 10 into logical 0's fast slot
        assert!(g.is_fast(10));
        assert!(!g.is_fast(0));
        g.check_invariants();
        // Swap back restores.
        g.swap_logical(10, 0);
        assert!(g.is_fast(0) && !g.is_fast(10));
        g.check_invariants();
    }

    #[test]
    #[should_panic(expected = "swap across groups")]
    fn cross_group_swap_rejected() {
        groups().swap_logical(0, 40);
    }

    #[test]
    fn phys_rows_are_disjoint_and_kind_correct() {
        let g = groups();
        let l = layout();
        let mut seen = std::collections::HashSet::new();
        for grp in 0..g.groups() {
            for slot in 0..g.group_size() as u8 {
                let pr = g.phys_row(grp, slot, &l);
                assert!(seen.insert(pr), "physical row {pr} reused");
                let kind = l.row_kind(pr);
                if (slot as u32) < g.fast_slots() {
                    assert_eq!(kind, das_dram::SubarrayKind::Fast);
                } else {
                    assert_eq!(kind, das_dram::SubarrayKind::Slow);
                }
            }
        }
        assert_eq!(seen.len(), 4096);
    }

    #[test]
    fn phys_row_tracks_swaps() {
        let mut g = groups();
        let l = layout();
        let before = g.phys_row_of_logical(10, &l);
        let target = g.phys_row_of_logical(0, &l);
        g.swap_logical(10, 0);
        assert_eq!(g.phys_row_of_logical(10, &l), target);
        assert_eq!(g.phys_row_of_logical(0, &l), before);
    }

    #[test]
    fn rotation_scatters_initial_fast_rows() {
        let g = BankGroups::with_rotation(4096, 32, FastRatio::new(1, 8), 13);
        g.check_invariants();
        // Group 0 is rotated by 13: logical slot 0 is not fast.
        assert!(!g.is_fast(0));
        // Exactly fast_slots logical rows of every group are fast.
        for grp in 0..g.groups() {
            let fast = (0..32).filter(|s| g.is_fast(grp * 32 + s)).count();
            assert_eq!(fast, 4, "group {grp}");
        }
        // Different groups rotate differently.
        let fast_of =
            |grp: u32| -> Vec<u32> { (0..32).filter(|&s| g.is_fast(grp * 32 + s)).collect() };
        assert_ne!(fast_of(0), fast_of(1));
    }

    #[test]
    fn intra_group_hops_favour_reduced_interleaving() {
        let g = BankGroups::new(32768, 32, FastRatio::new(1, 8));
        let ri = BankLayout::build(
            32768,
            FastRatio::new(1, 8),
            Arrangement::ReducedInterleaving,
            128,
            512,
        );
        let part = BankLayout::build(
            32768,
            FastRatio::new(1, 8),
            Arrangement::Partitioning,
            128,
            512,
        );
        let h_ri = g.mean_intra_group_hops(&ri);
        let h_part = g.mean_intra_group_hops(&part);
        assert!(
            h_ri * 3.0 < h_part,
            "reduced interleaving ({h_ri:.1}) should be much shorter than partitioning ({h_part:.1})"
        );
    }

    #[test]
    fn group_size_sweep_constructs() {
        for gs in [8u32, 16, 32, 64] {
            let g = BankGroups::new(4096, gs, FastRatio::new(1, 8));
            assert_eq!(g.fast_slots(), gs / 8);
            g.check_invariants();
        }
        for den in [4u32, 16, 32] {
            let g = BankGroups::new(4096, 32, FastRatio::new(1, den));
            assert_eq!(g.fast_slots(), 32 / den);
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn too_small_group_for_ratio_rejected() {
        // 1/32 ratio with 16-row groups -> 0.5 fast slots.
        let _ = BankGroups::new(4096, 16, FastRatio::new(1, 32));
    }
}
