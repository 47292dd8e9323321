//! The inclusive-cache management alternative of §5.
//!
//! The paper weighs two ways to manage the asymmetric DRAM: treating the
//! fast subarrays as a hardware-managed **inclusive** cache of the slow
//! level, or forming one uniform space managed as an **exclusive** cache.
//! It adopts exclusive for capacity (inclusive duplicates 1/8 of memory)
//! but credits inclusive with simpler translation and faster replacement
//! when the victim is clean. This module implements the inclusive
//! alternative so that the trade-off is reproducible (see the
//! `ablation_inclusive` bench).
//!
//! Semantics: the OS-visible address space covers **slow rows only**; every
//! logical row has a fixed home slow row. Each migration group's fast slots
//! hold copies of up to `fast_slots` of its rows, tagged and dirty-tracked.
//! A fill over a clean victim is one row copy (1.5 tRC); over a dirty
//! victim, the victim is first written back to its home row (two serial
//! migrations, 3 tRC).

use das_dram::command::MigrationKind;
use das_dram::geometry::{BankCoord, BankLayout, DramGeometry, FastRatio};

use crate::groups::GroupId;
use crate::management::{ManagementConfig, ManagementStats, Translation};
use crate::promotion::{FilterStats, PromotionFilter};
use crate::replacement::Replacer;
use crate::translation::{TableAddressMap, TranslationCache, TranslationSource, TranslationStats};

/// A fill the controller should perform for the inclusive cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillRequest {
    /// Bank holding the group.
    pub bank: BankCoord,
    /// Migration group.
    pub group: u32,
    /// Logical row being cached.
    pub promotee: u32,
    /// Fast slot index within the group receiving the copy.
    pub slot: u8,
    /// Physical row of the promotee's home (copy source).
    pub promotee_phys: u32,
    /// Physical row of the fast slot (copy destination).
    pub slot_phys: u32,
    /// `Copy` for a clean victim, `CopyWithWriteback` for a dirty one.
    pub kind: MigrationKind,
}

#[derive(Debug, Clone, Copy, Default)]
struct Tag {
    /// Cached logical slot + 1; 0 = empty.
    resident: u16,
    dirty: bool,
}

/// Hardware-managed inclusive cache over the fast subarrays.
#[derive(Debug, Clone)]
pub struct InclusiveManager {
    cfg: ManagementConfig,
    geometry: DramGeometry,
    layout: BankLayout,
    /// `tags[bank][group * fast_slots + slot]`.
    tags: Vec<Vec<Tag>>,
    fast_slots: u32,
    slow_per_group: u32,
    tcache: TranslationCache,
    table_map: TableAddressMap,
    replacer: Replacer,
    filter: PromotionFilter,
    busy_groups: std::collections::HashSet<GroupId>,
    stats: ManagementStats,
    dirty_fills: u64,
}

impl InclusiveManager {
    /// Creates the manager. The logical row space per bank is the **slow**
    /// row count (`usable_rows_per_bank`); fast rows are cache only.
    ///
    /// # Panics
    ///
    /// Panics if group geometry does not divide evenly.
    pub fn new(cfg: ManagementConfig, geometry: DramGeometry, layout: BankLayout) -> Self {
        let fast_slots = cfg.fast_ratio.apply(cfg.group_size);
        let slow_per_group = cfg.group_size - fast_slots;
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
        let banks = geometry.total_banks() as usize;
        let table_map = TableAddressMap::new(geometry.total_bytes() - geometry.total_rows());
        InclusiveManager {
            cfg,
            geometry: geometry.clone(),
            layout,
            tags: vec![vec![Tag::default(); (groups * fast_slots) as usize]; banks],
            fast_slots,
            slow_per_group,
            tcache: TranslationCache::new(cfg.tcache_bytes, cfg.tcache_ways),
            table_map,
            replacer: Replacer::new(cfg.replacement, cfg.seed),
            filter: PromotionFilter::new(cfg.promotion_threshold, cfg.filter_counters),
            busy_groups: std::collections::HashSet::new(),
            stats: ManagementStats::default(),
            dirty_fills: 0,
        }
    }

    /// Usable (OS-visible) logical rows per bank: the slow rows.
    pub fn usable_rows_per_bank(&self) -> u32 {
        self.layout.slow_rows()
    }

    fn locate(&self, logical_row: u32) -> (u32, u32) {
        (
            logical_row / self.slow_per_group,
            logical_row % self.slow_per_group,
        )
    }

    fn tag_index(&self, group: u32, slot: u8) -> usize {
        (group * self.fast_slots) as usize + slot as usize
    }

    /// The fast slot caching `logical_row`, if any.
    fn cached_slot(&self, bank_idx: usize, logical_row: u32) -> Option<u8> {
        let (group, slot_in_group) = self.locate(logical_row);
        for s in 0..self.fast_slots as u8 {
            let t = self.tags[bank_idx][self.tag_index(group, s)];
            if t.resident == slot_in_group as u16 + 1 {
                return Some(s);
            }
        }
        None
    }

    /// Home physical row of a logical row (its slow slot).
    pub fn home_phys(&self, logical_row: u32) -> u32 {
        self.layout.slow_to_phys(logical_row)
    }

    fn slot_phys(&self, group: u32, slot: u8) -> u32 {
        self.layout
            .fast_to_phys(group * self.fast_slots + slot as u32)
    }

    /// Current physical location and cached-ness of a logical row.
    pub fn peek(&self, bank: BankCoord, logical_row: u32) -> (u32, bool) {
        let bank_idx = self.geometry.bank_index(bank);
        match self.cached_slot(bank_idx, logical_row) {
            Some(s) => {
                let (group, _) = self.locate(logical_row);
                (self.slot_phys(group, s), true)
            }
            None => (self.home_phys(logical_row), false),
        }
    }

    /// Translates a request: cached rows are served from their fast copy.
    ///
    /// The inclusive tag store covers only the fast level, so (as the paper
    /// notes) the translation structures are smaller; the lookup path is
    /// modelled identically to the exclusive design for comparability.
    pub fn translate(&mut self, bank: BankCoord, logical_row: u32) -> Translation {
        let (phys_row, in_fast) = self.peek(bank, logical_row);
        let row_id = self.geometry.global_row_id(bank, logical_row);
        let source = if self.cfg.static_mapping {
            TranslationSource::Cache
        } else {
            let src = self.tcache.lookup(row_id);
            if src == TranslationSource::TableFetch && in_fast {
                self.tcache.insert(row_id);
            }
            src
        };
        Translation {
            phys_row,
            in_fast,
            source,
            table_line: self
                .table_map
                .entry_line(row_id, self.geometry.line_bytes as u64),
        }
    }

    /// Records a serviced access; slow-level demand hits may trigger a fill.
    pub fn on_data_access(
        &mut self,
        bank: BankCoord,
        logical_row: u32,
        is_write: bool,
        now: u64,
    ) -> Option<FillRequest> {
        let bank_idx = self.geometry.bank_index(bank);
        let (group, _) = self.locate(logical_row);
        let gid = GroupId {
            bank: bank_idx,
            group,
        };
        if let Some(slot) = self.cached_slot(bank_idx, logical_row) {
            self.stats.fast_hits += 1;
            let idx = self.tag_index(group, slot);
            self.tags[bank_idx][idx].dirty |= is_write;
            self.replacer
                .note_fast_access(gid, slot, self.fast_slots, now);
            return None;
        }
        self.stats.slow_hits += 1;
        // A write to an uncached row updates its home copy; it does not
        // allocate (write-no-allocate at the row level — allocating on
        // write-backs would churn streams).
        if is_write {
            return None;
        }
        let row_id = self.geometry.global_row_id(bank, logical_row);
        if !self.filter.observe(row_id) {
            return None;
        }
        if self.busy_groups.contains(&gid) {
            self.stats.deferred_busy += 1;
            return None;
        }
        let slot = self.replacer.choose_victim(gid, self.fast_slots);
        let idx = self.tag_index(group, slot);
        let victim = self.tags[bank_idx][idx];
        let kind = if victim.resident != 0 && victim.dirty {
            self.dirty_fills += 1;
            MigrationKind::CopyWithWriteback
        } else {
            MigrationKind::Copy
        };
        self.busy_groups.insert(gid);
        Some(FillRequest {
            bank,
            group,
            promotee: logical_row,
            slot,
            promotee_phys: self.home_phys(logical_row),
            slot_phys: self.slot_phys(group, slot),
            kind,
        })
    }

    /// Commits a completed fill: retags the slot, keeps the translation
    /// cache coherent, and marks the slot most-recently-used so the next
    /// fill does not immediately evict it.
    pub fn commit_fill(&mut self, req: &FillRequest, now: u64) {
        let bank_idx = self.geometry.bank_index(req.bank);
        let idx = self.tag_index(req.group, req.slot);
        let old = self.tags[bank_idx][idx];
        if old.resident != 0 {
            let victim_row = req.group * self.slow_per_group + (old.resident as u32 - 1);
            let victim_id = self.geometry.global_row_id(req.bank, victim_row);
            self.tcache.invalidate(victim_id);
        }
        let (_, slot_in_group) = self.locate(req.promotee);
        self.tags[bank_idx][idx] = Tag {
            resident: slot_in_group as u16 + 1,
            dirty: false,
        };
        let id = self.geometry.global_row_id(req.bank, req.promotee);
        self.tcache.insert(id);
        self.filter.forget(id);
        let gid = GroupId {
            bank: bank_idx,
            group: req.group,
        };
        self.replacer
            .note_fast_access(gid, req.slot, self.fast_slots, now);
        self.busy_groups.remove(&gid);
        self.stats.promotions += 1;
    }

    /// Management statistics (promotions = fills).
    pub fn stats(&self) -> ManagementStats {
        self.stats
    }

    /// Fills that required a dirty-victim write-back.
    pub fn dirty_fills(&self) -> u64 {
        self.dirty_fills
    }

    /// Translation-cache statistics.
    pub fn translation_stats(&self) -> TranslationStats {
        self.tcache.stats()
    }

    /// Promotion-filter statistics.
    pub fn filter_stats(&self) -> FilterStats {
        self.filter.stats()
    }

    /// Capacity lost to duplication, in bytes (the exclusive design's §5
    /// argument against inclusive).
    pub fn duplicated_bytes(&self) -> u64 {
        self.geometry.total_banks() as u64
            * self.layout.fast_rows() as u64
            * self.geometry.row_bytes as u64
    }
}

/// Convenience: the fast ratio's slots per group, shared with tests.
pub fn fast_slots_per_group(group_size: u32, ratio: FastRatio) -> u32 {
    ratio.apply(group_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_dram::geometry::Arrangement;

    fn manager() -> InclusiveManager {
        let geometry = DramGeometry::paper_scaled(64);
        let layout = BankLayout::build(
            geometry.rows_per_bank,
            FastRatio::new(1, 8),
            Arrangement::ReducedInterleaving,
            128,
            512,
        );
        let cfg = ManagementConfig {
            tcache_bytes: 2 << 10,
            ..ManagementConfig::paper_default()
        };
        InclusiveManager::new(cfg, geometry, layout)
    }

    fn bank0() -> BankCoord {
        BankCoord::new(0, 0, 0)
    }

    #[test]
    fn usable_space_is_slow_rows_only() {
        let m = manager();
        assert_eq!(m.usable_rows_per_bank(), 448, "512 rows - 64 fast");
        assert!(m.duplicated_bytes() > 0);
    }

    #[test]
    fn first_read_fills_with_clean_copy() {
        let mut m = manager();
        let (phys, cached) = m.peek(bank0(), 10);
        assert!(!cached);
        assert_eq!(phys, m.home_phys(10));
        let fill = m
            .on_data_access(bank0(), 10, false, 1)
            .expect("threshold 1 fills");
        assert_eq!(fill.kind, MigrationKind::Copy, "empty slot: clean fill");
        assert_eq!(fill.promotee_phys, m.home_phys(10));
        m.commit_fill(&fill, 2);
        let (phys, cached) = m.peek(bank0(), 10);
        assert!(cached);
        assert_eq!(phys, fill.slot_phys);
    }

    #[test]
    fn dirty_victim_costs_a_writeback_copy() {
        let mut m = manager();
        // Fill several rows; fills may evict each other, so pick a row that
        // is actually resident afterwards and dirty it.
        for row in 0..8u32 {
            if let Some(f) = m.on_data_access(bank0(), row, false, row as u64) {
                m.commit_fill(&f, row as u64);
            }
        }
        let dirty_row = (0..8u32)
            .find(|&r| m.peek(bank0(), r).1)
            .expect("something cached");
        assert!(
            m.on_data_access(bank0(), dirty_row, true, 100).is_none(),
            "cached write"
        );
        // Make the dirty row the LRU resident by touching all others later.
        for row in 0..8u32 {
            if row != dirty_row && m.peek(bank0(), row).1 {
                assert!(m
                    .on_data_access(bank0(), row, false, 200 + row as u64)
                    .is_none());
            }
        }
        let fill = m.on_data_access(bank0(), 20, false, 300).expect("fills");
        assert_eq!(fill.kind, MigrationKind::CopyWithWriteback);
        m.commit_fill(&fill, 301);
        assert_eq!(m.dirty_fills(), 1);
        // The dirty victim reverted to its home row.
        let (phys, cached) = m.peek(bank0(), dirty_row);
        assert!(!cached);
        assert_eq!(phys, m.home_phys(dirty_row));
    }

    #[test]
    fn uncached_writes_do_not_allocate() {
        let mut m = manager();
        assert!(m.on_data_access(bank0(), 5, true, 1).is_none());
        assert!(!m.peek(bank0(), 5).1);
    }

    #[test]
    fn busy_group_defers() {
        let mut m = manager();
        let f = m.on_data_access(bank0(), 1, false, 1).unwrap();
        assert!(m.on_data_access(bank0(), 2, false, 2).is_none());
        m.commit_fill(&f, 2);
        assert!(m.on_data_access(bank0(), 2, false, 3).is_some());
    }

    #[test]
    fn translation_tracks_fills() {
        let mut m = manager();
        let t = m.translate(bank0(), 3);
        assert!(!t.in_fast);
        assert_eq!(t.source, TranslationSource::TableFetch);
        let fill = m.on_data_access(bank0(), 3, false, 1).unwrap();
        m.commit_fill(&fill, 2);
        let t = m.translate(bank0(), 3);
        assert!(t.in_fast);
        assert_eq!(t.source, TranslationSource::Cache);
    }

    #[test]
    fn helper_matches_ratio() {
        assert_eq!(fast_slots_per_group(32, FastRatio::new(1, 8)), 4);
    }
}
