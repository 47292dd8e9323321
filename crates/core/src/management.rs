//! The hardware exclusive-cache management mechanism of §5: translation,
//! promotion triggering/filtering, and replacement, packaged as the state
//! machine the memory controller consults on every request.
//!
//! The manager is authoritative for *where every logical row currently
//! lives*; the translation cache only affects **timing** (whether a lookup
//! costs a table fetch), never correctness.

use core::fmt;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasher;

use das_dram::geometry::{BankCoord, BankLayout, DramGeometry, FastRatio, GlobalRowId};
use das_policy::{AccessStats, EpochStats, MigrationPolicy, PolicyAction, PolicyEvent, PolicyKind};

use crate::groups::{BankGroups, GroupId, GroupInvariantError};
use crate::promotion::{FilterStats, PromotionFilter};
use crate::replacement::{ReplacementPolicy, Replacer};
use crate::translation::{TableAddressMap, TranslationCache, TranslationSource, TranslationStats};

/// A violation of the exclusive-cache consistency contract, found by
/// [`DasManager::check_invariants`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsistencyError {
    /// A bank's group permutation is no longer a bijection (some logical
    /// row lost its unique physical location).
    BrokenPermutation {
        /// Flat bank index.
        bank: usize,
        /// The underlying permutation violation.
        source: GroupInvariantError,
    },
    /// A translation-cache entry disagrees with the device state: the
    /// cached row is not actually resident in the fast level (or does not
    /// exist at all).
    CacheDeviceDisagreement {
        /// The row the cache claims is fast.
        row: GlobalRowId,
    },
}

impl fmt::Display for ConsistencyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsistencyError::BrokenPermutation { bank, source } => {
                write!(f, "bank {bank}: {source}")
            }
            ConsistencyError::CacheDeviceDisagreement { row } => {
                write!(
                    f,
                    "translation cache claims {row} is fast but the device disagrees"
                )
            }
        }
    }
}

impl std::error::Error for ConsistencyError {}

/// Configuration of the management mechanism (§5, Table 1 defaults).
#[derive(Debug, Clone, Copy)]
pub struct ManagementConfig {
    /// Rows per migration group (Table 1: 32).
    pub group_size: u32,
    /// Fast-level capacity share (Table 1: 1/8).
    pub fast_ratio: FastRatio,
    /// Translation cache capacity in bytes (§7.4 default: 128 KB full
    /// scale; callers scale it with the system).
    pub tcache_bytes: u64,
    /// Translation cache associativity.
    pub tcache_ways: usize,
    /// Promotion threshold (§7.3; the adopted DAS-DRAM uses 1).
    pub promotion_threshold: u32,
    /// Promotion-filter counter file size (§7.3: 1024).
    pub filter_counters: usize,
    /// Fast-level replacement policy (§5.3).
    pub replacement: ReplacementPolicy,
    /// Seed for randomized policies.
    pub seed: u64,
    /// Static mode: translation is fixed at initialisation (SAS/CHARM), so
    /// lookups never pay a table fetch and no promotions occur.
    pub static_mapping: bool,
}

impl ManagementConfig {
    /// The paper's DAS-DRAM defaults.
    pub fn paper_default() -> Self {
        ManagementConfig {
            group_size: 32,
            fast_ratio: FastRatio::PAPER_DEFAULT,
            tcache_bytes: 128 << 10,
            tcache_ways: 8,
            promotion_threshold: 1,
            filter_counters: 1024,
            replacement: ReplacementPolicy::Lru,
            seed: 1,
            static_mapping: false,
        }
    }

    /// The static-profiled variant used by the SAS-DRAM / CHARM baselines.
    pub fn static_profiled() -> Self {
        ManagementConfig {
            static_mapping: true,
            ..Self::paper_default()
        }
    }
}

/// Result of translating one request's logical row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Physical DRAM row within the bank.
    pub phys_row: u32,
    /// Whether the row currently resides in the fast level.
    pub in_fast: bool,
    /// Whether the lookup hit the translation cache (timing-free) or needs
    /// a table fetch.
    pub source: TranslationSource,
    /// Byte address of the table line to fetch when `source` is
    /// `TableFetch` (already line-aligned).
    pub table_line: u64,
}

/// A promotion the controller should perform: swap the promotee's and
/// victim's rows through the migration mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapRequest {
    /// Bank holding the group.
    pub bank: BankCoord,
    /// Migration group.
    pub group: u32,
    /// Logical row being promoted (currently slow).
    pub promotee: u32,
    /// Logical row being demoted (currently fast).
    pub victim: u32,
    /// Physical row of the promotee.
    pub promotee_phys: u32,
    /// Physical row of the victim.
    pub victim_phys: u32,
}

/// Aggregate management statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManagementStats {
    /// Data accesses that found their row in the fast level.
    pub fast_hits: u64,
    /// Data accesses serviced from the slow level.
    pub slow_hits: u64,
    /// Swaps committed.
    pub promotions: u64,
    /// Promotions skipped because the group already had one in flight.
    pub deferred_busy: u64,
}

/// Backend-specific promotion economics fed to cost-aware policies.
///
/// Computed once at assembly from the design's timing set: the benefit
/// is the per-hit activation-cycle saving of the fast level, the swap
/// cost is what the backend charges for one promotion (146.25 ns for a
/// DAS 3-step swap, 48.75 ns for a LISA RBM swap, 97.5 ns = 2×tRC for a
/// CLR-DRAM morph-exchange).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyCosts {
    /// Latency saved per future fast-level hit, nanoseconds.
    pub benefit_ns: f64,
    /// Cost of one promotion on this backend, nanoseconds.
    pub swap_cost_ns: f64,
}

/// Tallies of the actions an installed policy has emitted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyStats {
    /// `Promote` actions (promotion requested; the controller may still
    /// defer on a busy group).
    pub promotes: u64,
    /// `Demote` actions (advisory demotion pressure).
    pub demotes: u64,
    /// `Hold` actions.
    pub holds: u64,
    /// `AdjustThreshold` actions applied (post-clamping).
    pub threshold_adjusts: u64,
    /// Policy epochs delivered.
    pub epochs: u64,
}

/// Data accesses per policy epoch. Access-count driven (not tick or
/// telemetry driven) so epoch boundaries are bit-deterministic and
/// independent of the telemetry configuration.
pub const POLICY_EPOCH_ACCESSES: u64 = 4096;

/// The [`MigrationPolicy`] in force plus the bookkeeping the manager
/// needs to drive it: epoch accounting and action tallies.
#[derive(Debug, Clone)]
struct PolicyRuntime {
    policy: Box<dyn MigrationPolicy>,
    kind: PolicyKind,
    costs: PolicyCosts,
    /// Accesses since the last epoch boundary.
    epoch_fill: u64,
    /// Index of the next epoch to deliver.
    epoch_index: u64,
    /// Stats snapshot at the previous epoch boundary (for deltas).
    last: ManagementStats,
    stats: PolicyStats,
}

impl PolicyRuntime {
    fn new(policy: Box<dyn MigrationPolicy>, costs: PolicyCosts, last: ManagementStats) -> Self {
        PolicyRuntime {
            kind: policy.kind(),
            policy,
            costs,
            epoch_fill: 0,
            epoch_index: 0,
            last,
            stats: PolicyStats::default(),
        }
    }
}

/// The §5 management mechanism. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct DasManager {
    cfg: ManagementConfig,
    geometry: DramGeometry,
    layout: BankLayout,
    groups: Vec<BankGroups>,
    tcache: TranslationCache,
    table_map: TableAddressMap,
    replacer: Replacer,
    filter: PromotionFilter,
    /// Groups with a swap in flight (no second promotion may start).
    busy_groups: HashSet<GroupId>,
    stats: ManagementStats,
    /// The migration policy deciding every promotion: the paper's
    /// [`PaperFixed`](das_policy::PaperFixed) rule unless
    /// [`DasManager::install_policy`] replaced it.
    policy: PolicyRuntime,
}

impl DasManager {
    /// Creates the manager for a system of `geometry` with bank `layout`.
    ///
    /// # Panics
    ///
    /// Panics if the group size / ratio do not divide the geometry exactly.
    pub fn new(cfg: ManagementConfig, geometry: DramGeometry, layout: BankLayout) -> Self {
        let banks = geometry.total_banks() as usize;
        let groups = (0..banks)
            .map(|b| {
                BankGroups::with_rotation(
                    geometry.rows_per_bank,
                    cfg.group_size,
                    cfg.fast_ratio,
                    b as u32 * 13,
                )
            })
            .collect();
        // The table occupies a reserved region at the top of DRAM (one byte
        // per row), hidden from the OS; demand regions must stay below it.
        let table_map = TableAddressMap::new(geometry.total_bytes() - geometry.total_rows());
        DasManager {
            cfg,
            geometry,
            layout,
            groups,
            tcache: TranslationCache::new(cfg.tcache_bytes, cfg.tcache_ways),
            table_map,
            replacer: Replacer::new(cfg.replacement, cfg.seed),
            filter: PromotionFilter::new(cfg.promotion_threshold, cfg.filter_counters),
            busy_groups: HashSet::new(),
            stats: ManagementStats::default(),
            // `PaperFixed` ignores the promotion economics.
            policy: PolicyRuntime::new(
                Box::new(das_policy::PaperFixed),
                PolicyCosts {
                    benefit_ns: 0.0,
                    swap_cost_ns: 0.0,
                },
                ManagementStats::default(),
            ),
        }
    }

    /// Replaces the migration policy (the paper's `PaperFixed` rule by
    /// default) with `policy` and the backend's promotion economics.
    pub fn install_policy(&mut self, policy: Box<dyn MigrationPolicy>, costs: PolicyCosts) {
        self.policy = PolicyRuntime::new(policy, costs, self.stats);
    }

    /// The policy's kind, action tallies and the threshold it has steered
    /// the filter to.
    pub fn policy_stats(&self) -> (PolicyKind, PolicyStats, u32) {
        let rt = &self.policy;
        (rt.kind, rt.stats, self.filter.threshold())
    }

    /// The configuration in force.
    pub fn config(&self) -> &ManagementConfig {
        &self.cfg
    }

    /// The bank layout the manager was built against.
    pub fn layout(&self) -> &BankLayout {
        &self.layout
    }

    /// Reads the current mapping of a logical row without modelling any
    /// lookup (used when the controller already holds the translation,
    /// e.g. from a just-translated request to the same row).
    pub fn peek(&self, bank: BankCoord, logical_row: u32) -> (u32, bool) {
        let bank_idx = self.geometry.bank_index(bank);
        let g = &self.groups[bank_idx];
        (
            g.phys_row_of_logical(logical_row, &self.layout),
            g.is_fast(logical_row),
        )
    }

    /// Translates the logical row of a request.
    pub fn translate(&mut self, bank: BankCoord, logical_row: u32) -> Translation {
        let bank_idx = self.geometry.bank_index(bank);
        let g = &self.groups[bank_idx];
        let in_fast = g.is_fast(logical_row);
        let phys_row = g.phys_row_of_logical(logical_row, &self.layout);
        let row_id = self.geometry.global_row_id(bank, logical_row);
        let source = if self.cfg.static_mapping {
            // Static designs hard-wire the mapping: no lookup cost.
            TranslationSource::Cache
        } else {
            let src = self.tcache.lookup(row_id);
            if src == TranslationSource::TableFetch && in_fast {
                // The fetched entry maps to the fast level: cache it.
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

    /// Records a serviced data access and, for slow-level hits under a
    /// dynamic configuration, decides whether to trigger a promotion.
    ///
    /// `now` is any monotonically increasing stamp (ticks) used for LRU.
    pub fn on_data_access(
        &mut self,
        bank: BankCoord,
        logical_row: u32,
        now: u64,
    ) -> Option<SwapRequest> {
        self.on_data_access_shared(bank, logical_row, now, 0)
    }

    /// [`on_data_access`] with the row's coherence sharing-induced access
    /// count, so cost-aware policies can weight sharing-hot rows. The
    /// count is advisory; the default `PaperFixed` rule ignores it.
    ///
    /// [`on_data_access`]: DasManager::on_data_access
    pub fn on_data_access_shared(
        &mut self,
        bank: BankCoord,
        logical_row: u32,
        now: u64,
        shared_count: u32,
    ) -> Option<SwapRequest> {
        self.policy_epoch_tick();
        let bank_idx = self.geometry.bank_index(bank);
        let (group, _) = self.groups[bank_idx].locate(logical_row);
        let gid = GroupId {
            bank: bank_idx,
            group,
        };
        if self.groups[bank_idx].is_fast(logical_row) {
            self.stats.fast_hits += 1;
            let slot = self.groups[bank_idx].phys_slot(logical_row);
            let fast_slots = self.groups[bank_idx].fast_slots();
            self.replacer.note_fast_access(gid, slot, fast_slots, now);
            return None;
        }
        self.stats.slow_hits += 1;
        if self.cfg.static_mapping {
            return None;
        }
        let row_id = self.geometry.global_row_id(bank, logical_row);
        let group_busy = self.busy_groups.contains(&gid);
        if !self.policy_decide(row_id, shared_count, group_busy) {
            return None;
        }
        if group_busy {
            self.stats.deferred_busy += 1;
            return None;
        }
        let groups = &self.groups[bank_idx];
        let fast_slots = groups.fast_slots();
        let victim_slot = self.replacer.choose_victim(gid, fast_slots);
        let victim_logical_slot = groups.logical_slot(group, victim_slot);
        let victim = group * groups.group_size() + victim_logical_slot as u32;
        debug_assert_ne!(victim, logical_row);
        let req = SwapRequest {
            bank,
            group,
            promotee: logical_row,
            victim,
            promotee_phys: groups.phys_row_of_logical(logical_row, &self.layout),
            victim_phys: groups.phys_row_of_logical(victim, &self.layout),
        };
        self.busy_groups.insert(gid);
        Some(req)
    }

    /// Runs the policy for one promotion-candidate access and
    /// returns whether to promote. The filter still does the counting
    /// (`PaperFixed` uses the paper's exact counter semantics, adaptive
    /// policies the always-counted variant) and the policy the deciding.
    fn policy_decide(&mut self, row_id: GlobalRowId, shared_count: u32, group_busy: bool) -> bool {
        let threshold = self.filter.threshold();
        let rt = &mut self.policy;
        let count = if rt.kind == PolicyKind::PaperFixed {
            self.filter.note(row_id)
        } else {
            self.filter.note_counted(row_id)
        };
        let event = PolicyEvent::Access(AccessStats {
            count,
            threshold,
            shared_count,
            benefit_ns: rt.costs.benefit_ns,
            swap_cost_ns: rt.costs.swap_cost_ns,
            group_busy,
        });
        let actions = rt.policy.observe(&event);
        let grant = actions.contains(&PolicyAction::Promote);
        self.filter.resolve(row_id, grant);
        self.apply_policy_actions(&actions);
        grant
    }

    /// Counts one access toward the policy epoch and, at the boundary,
    /// delivers the epoch's stat deltas to the policy.
    fn policy_epoch_tick(&mut self) {
        let threshold = self.filter.threshold();
        let current = self.stats;
        let actions = {
            let rt = &mut self.policy;
            rt.epoch_fill += 1;
            if rt.epoch_fill < POLICY_EPOCH_ACCESSES {
                return;
            }
            rt.epoch_fill = 0;
            let fast = current.fast_hits - rt.last.fast_hits;
            let slow = current.slow_hits - rt.last.slow_hits;
            let event = PolicyEvent::Epoch(EpochStats {
                epoch: rt.epoch_index,
                accesses: fast + slow,
                fast_hits: fast,
                slow_hits: slow,
                promotions: current.promotions - rt.last.promotions,
                threshold,
            });
            rt.epoch_index += 1;
            rt.last = current;
            rt.stats.epochs += 1;
            rt.policy.observe(&event)
        };
        self.apply_policy_actions(&actions);
    }

    /// Tallies a policy's actions and applies threshold adjustments
    /// (clamped by the filter). `Promote`/`Demote` are tallied here and
    /// acted on (or held as advisory pressure) by the caller.
    fn apply_policy_actions(&mut self, actions: &[PolicyAction]) {
        for action in actions {
            let rt = &mut self.policy;
            match action {
                PolicyAction::Promote => rt.stats.promotes += 1,
                PolicyAction::Demote => rt.stats.demotes += 1,
                PolicyAction::Hold => rt.stats.holds += 1,
                PolicyAction::AdjustThreshold(delta) => {
                    rt.stats.threshold_adjusts += 1;
                    let next = self.filter.threshold() as i64 + *delta as i64;
                    self.filter.set_threshold(next);
                }
            }
        }
    }

    /// Commits a completed swap: updates the group permutation, keeps the
    /// translation cache coherent (insert promotee, drop victim), and marks
    /// the promotee's slot most-recently-used so an immediately following
    /// promotion in the group does not evict it.
    pub fn commit_swap(&mut self, req: &SwapRequest, now: u64) {
        let bank_idx = self.geometry.bank_index(req.bank);
        self.groups[bank_idx].swap_logical(req.promotee, req.victim);
        let gid = GroupId {
            bank: bank_idx,
            group: req.group,
        };
        let slot = self.groups[bank_idx].phys_slot(req.promotee);
        let fast_slots = self.groups[bank_idx].fast_slots();
        self.replacer.note_fast_access(gid, slot, fast_slots, now);
        self.busy_groups.remove(&gid);
        if !self.cfg.static_mapping {
            let promotee_id = self.geometry.global_row_id(req.bank, req.promotee);
            let victim_id = self.geometry.global_row_id(req.bank, req.victim);
            self.tcache.insert(promotee_id);
            self.tcache.invalidate(victim_id);
            self.filter.forget(promotee_id);
        }
        self.stats.promotions += 1;
    }

    /// Pre-places the most frequently used rows of each group into its fast
    /// slots, given profiled per-row access counts — the SAS-DRAM / CHARM
    /// methodology of §7 ("each workload is profiled first and the
    /// most-frequently-used portion of its footprint is pre-assigned to the
    /// fast level").
    pub fn static_place<S: BuildHasher>(&mut self, counts: &HashMap<GlobalRowId, u64, S>) {
        let mut ranked: Vec<(u64, u32)> = Vec::new();
        let mut chosen: Vec<u32> = Vec::new();
        for bank in self.geometry.banks() {
            let bank_idx = self.geometry.bank_index(bank);
            let group_size = self.groups[bank_idx].group_size();
            let fast_slots = self.groups[bank_idx].fast_slots();
            for group in 0..self.groups[bank_idx].groups() {
                let base = group * group_size;
                ranked.clear();
                ranked.extend((0..group_size).map(|s| {
                    let row = base + s;
                    let id = self.geometry.global_row_id(bank, row);
                    (counts.get(&id).copied().unwrap_or(0), row)
                }));
                // Rows are distinct, so this order is total.
                ranked.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                chosen.clear();
                chosen.extend(ranked.iter().take(fast_slots as usize).map(|&(_, r)| r));
                // Move each of the top rows into a fast slot.
                for (i, &hot_row) in chosen.iter().enumerate() {
                    let g = &self.groups[bank_idx];
                    if (g.phys_slot(hot_row) as u32) < fast_slots {
                        continue; // already fast
                    }
                    // Swap with the occupant of fast slot `i` unless that
                    // occupant is itself one of the chosen hot rows; then
                    // with the first fast slot holding a non-chosen row.
                    let occupant = std::iter::once(i as u8)
                        .chain(0..fast_slots as u8)
                        .map(|slot| base + g.logical_slot(group, slot) as u32)
                        .find(|occ| !chosen.contains(occ));
                    // None: all fast slots already hold chosen rows.
                    if let Some(occupant) = occupant {
                        self.groups[bank_idx].swap_logical(hot_row, occupant);
                    }
                }
            }
        }
    }

    /// Whether logical row `row` of `bank` currently resides in fast.
    pub fn is_fast(&self, bank: BankCoord, row: u32) -> bool {
        self.groups[self.geometry.bank_index(bank)].is_fast(row)
    }

    /// Exclusive-cache invariant sweep: every bank's permutation is a
    /// bijection (each logical row has exactly one physical location) and
    /// every cached translation agrees with the device state (the cached row really is
    /// fast-resident). Returns the first violation found.
    pub fn check_invariants(&self) -> Result<(), ConsistencyError> {
        for (bank, g) in self.groups.iter().enumerate() {
            g.verify()
                .map_err(|source| ConsistencyError::BrokenPermutation { bank, source })?;
        }
        if self.cfg.static_mapping {
            return Ok(());
        }
        let rows_per_bank = self.geometry.rows_per_bank as u64;
        for row in self.tcache.resident_rows() {
            let bank_idx = (row.0 / rows_per_bank) as usize;
            let logical = (row.0 % rows_per_bank) as u32;
            let fast = self
                .groups
                .get(bank_idx)
                .map(|g| g.is_fast(logical))
                .unwrap_or(false);
            if !fast {
                return Err(ConsistencyError::CacheDeviceDisagreement { row });
            }
        }
        Ok(())
    }

    /// Management statistics.
    pub fn stats(&self) -> ManagementStats {
        self.stats
    }

    /// Translation-cache statistics.
    pub fn translation_stats(&self) -> TranslationStats {
        self.tcache.stats()
    }

    /// Promotion-filter statistics.
    pub fn filter_stats(&self) -> FilterStats {
        self.filter.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_dram::geometry::Arrangement;

    fn geometry() -> DramGeometry {
        DramGeometry::paper_scaled(64) // 512 rows/bank: quick tests
    }

    fn layout(g: &DramGeometry) -> BankLayout {
        BankLayout::build(
            g.rows_per_bank,
            FastRatio::new(1, 8),
            Arrangement::default(),
            128,
            512,
        )
    }

    fn manager(cfg: ManagementConfig) -> DasManager {
        let g = geometry();
        let l = layout(&g);
        DasManager::new(cfg, g, l)
    }

    fn cfg_scaled() -> ManagementConfig {
        ManagementConfig {
            tcache_bytes: 2 << 10,
            ..ManagementConfig::paper_default()
        }
    }

    fn bank0() -> BankCoord {
        BankCoord::new(0, 0, 0)
    }

    #[test]
    fn initial_translation_is_identityish() {
        let mut m = manager(cfg_scaled());
        let t = m.translate(bank0(), 0);
        assert!(t.in_fast, "slot 0 of each group starts fast");
        let t = m.translate(bank0(), 17);
        assert!(!t.in_fast);
        assert_eq!(t.source, TranslationSource::TableFetch, "cold cache");
    }

    #[test]
    fn slow_hit_triggers_promotion_and_commit_moves_row() {
        let mut m = manager(cfg_scaled());
        let row = 17u32;
        assert!(!m.is_fast(bank0(), row));
        let req = m
            .on_data_access(bank0(), row, 1)
            .expect("threshold 1 promotes");
        assert_eq!(req.promotee, row);
        assert!(m.is_fast(bank0(), req.victim));
        m.commit_swap(&req, 1);
        assert!(m.is_fast(bank0(), row));
        assert!(!m.is_fast(bank0(), req.victim));
        assert_eq!(m.stats().promotions, 1);
    }

    #[test]
    fn fast_hit_never_promotes() {
        let mut m = manager(cfg_scaled());
        assert!(m.on_data_access(bank0(), 0, 1).is_none());
        assert_eq!(m.stats().fast_hits, 1);
    }

    #[test]
    fn busy_group_defers_second_promotion() {
        let mut m = manager(cfg_scaled());
        let r1 = m.on_data_access(bank0(), 17, 1).expect("first promotes");
        // Another slow row of the same group: deferred while swap in flight.
        assert!(m.on_data_access(bank0(), 18, 2).is_none());
        assert_eq!(m.stats().deferred_busy, 1);
        m.commit_swap(&r1, 2);
        assert!(m.on_data_access(bank0(), 18, 3).is_some());
    }

    #[test]
    fn translation_cache_tracks_promotions() {
        let mut m = manager(cfg_scaled());
        let row = 17u32;
        let req = m.on_data_access(bank0(), row, 1).unwrap();
        m.commit_swap(&req, 1);
        // Promotee now hits the cache.
        let t = m.translate(bank0(), row);
        assert!(t.in_fast);
        assert_eq!(t.source, TranslationSource::Cache);
        // Victim was invalidated; its lookup must fetch.
        let t = m.translate(bank0(), req.victim);
        assert!(!t.in_fast);
        assert_eq!(t.source, TranslationSource::TableFetch);
    }

    #[test]
    fn static_mode_never_promotes_and_never_fetches() {
        let mut m = manager(ManagementConfig {
            static_mapping: true,
            tcache_bytes: 2 << 10,
            ..ManagementConfig::paper_default()
        });
        assert!(m.on_data_access(bank0(), 17, 1).is_none());
        let t = m.translate(bank0(), 17);
        assert_eq!(t.source, TranslationSource::Cache);
    }

    #[test]
    fn static_place_puts_hot_rows_in_fast() {
        let g = geometry();
        let l = layout(&g);
        let mut m = DasManager::new(
            ManagementConfig {
                static_mapping: true,
                tcache_bytes: 2 << 10,
                ..ManagementConfig::paper_default()
            },
            g.clone(),
            l,
        );
        // Profile: rows 16..20 of bank0 are the hottest of group 0.
        let mut counts = HashMap::new();
        for (i, row) in (16u32..20).enumerate() {
            counts.insert(g.global_row_id(bank0(), row), 100 - i as u64);
        }
        m.static_place(&counts);
        for row in 16u32..20 {
            assert!(m.is_fast(bank0(), row), "hot row {row} should be fast");
        }
        // Group invariants hold.
        for b in g.banks() {
            let idx = g.bank_index(b);
            let _ = idx;
        }
    }

    #[test]
    fn static_place_keeps_already_fast_hot_rows() {
        let g = geometry();
        let l = layout(&g);
        let mut m = DasManager::new(ManagementConfig::static_profiled(), g.clone(), l);
        let mut counts = HashMap::new();
        // Hottest rows include two already-fast rows (0, 1) and two slow.
        for row in [0u32, 1, 30, 31] {
            counts.insert(g.global_row_id(bank0(), row), 50);
        }
        m.static_place(&counts);
        for row in [0u32, 1, 30, 31] {
            assert!(m.is_fast(bank0(), row), "row {row}");
        }
    }

    /// `static_place` as it was before its per-group buffers: kept as the
    /// oracle of the placement it must reproduce.
    fn static_place_oracle(m: &mut DasManager, counts: &HashMap<GlobalRowId, u64>) {
        for bank in m.geometry.banks() {
            let bank_idx = m.geometry.bank_index(bank);
            let group_size = m.groups[bank_idx].group_size();
            let fast_slots = m.groups[bank_idx].fast_slots();
            for group in 0..m.groups[bank_idx].groups() {
                let base = group * group_size;
                let mut ranked: Vec<(u64, u32)> = (0..group_size)
                    .map(|s| {
                        let row = base + s;
                        let id = m.geometry.global_row_id(bank, row);
                        (counts.get(&id).copied().unwrap_or(0), row)
                    })
                    .collect();
                ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                for (i, &(_, hot_row)) in ranked.iter().take(fast_slots as usize).enumerate() {
                    let g = &m.groups[bank_idx];
                    if (g.phys_slot(hot_row) as u32) < fast_slots {
                        continue;
                    }
                    let chosen: HashSet<u32> = ranked
                        .iter()
                        .take(fast_slots as usize)
                        .map(|&(_, r)| r)
                        .collect();
                    let mut occupant = base + g.logical_slot(group, i as u8) as u32;
                    if chosen.contains(&occupant) {
                        let mut found = None;
                        for s in 0..fast_slots as u8 {
                            let occ = base + g.logical_slot(group, s) as u32;
                            if !chosen.contains(&occ) {
                                found = Some(occ);
                                break;
                            }
                        }
                        match found {
                            Some(occ) => occupant = occ,
                            None => continue,
                        }
                    }
                    m.groups[bank_idx].swap_logical(hot_row, occupant);
                }
            }
        }
    }

    #[test]
    fn static_place_matches_the_oracle_on_seeded_profiles() {
        let g = geometry();
        for seed in 0..24u64 {
            let mut rng = das_faults::Prng::new(0x57a7_1c00 + seed);
            let cfg = ManagementConfig {
                group_size: [16, 32, 64][rng.range_usize(0, 3)],
                ..ManagementConfig::static_profiled()
            };
            let ratio = [
                FastRatio::new(1, 8),
                FastRatio::new(1, 4),
                FastRatio::new(1, 16),
            ][rng.range_usize(0, 3)];
            let l = BankLayout::build(g.rows_per_bank, ratio, Arrangement::default(), 128, 512);
            let mut fast = DasManager::new(cfg, g.clone(), l.clone());
            let mut oracle = DasManager::new(cfg, g.clone(), l);
            // A skewed profile over a random slice of rows, with ties, and
            // with zero-count rows present and absent.
            let mut counts = HashMap::new();
            for _ in 0..rng.range_usize(0, 4 * g.rows_per_bank as usize) {
                let bank = BankCoord::new(0, 0, rng.range_u32(0, 2) as u8);
                let row = rng.range_u32(0, g.rows_per_bank);
                let n = rng.bounded_u64(8) * rng.bounded_u64(8);
                counts.insert(g.global_row_id(bank, row), n);
            }
            fast.static_place(&counts);
            static_place_oracle(&mut oracle, &counts);
            for bank in g.banks() {
                let idx = g.bank_index(bank);
                for row in 0..g.rows_per_bank {
                    assert_eq!(
                        fast.groups[idx].phys_slot(row),
                        oracle.groups[idx].phys_slot(row),
                        "seed {seed}: bank {idx} row {row}"
                    );
                }
            }
        }
    }

    #[test]
    fn table_lines_live_in_the_reserved_top_region() {
        let mut m = manager(cfg_scaled());
        let g = geometry();
        let t = m.translate(bank0(), 5);
        assert!(t.table_line >= g.total_bytes() - g.total_rows());
        assert!(t.table_line < g.total_bytes());
    }

    #[test]
    fn invariants_hold_through_promotions() {
        let mut m = manager(cfg_scaled());
        assert_eq!(m.check_invariants(), Ok(()));
        for (i, row) in [17u32, 40, 70, 100, 130].into_iter().enumerate() {
            if let Some(req) = m.on_data_access(bank0(), row, i as u64) {
                m.commit_swap(&req, i as u64);
            }
            assert_eq!(m.check_invariants(), Ok(()), "after promoting row {row}");
        }
    }

    fn costs() -> PolicyCosts {
        PolicyCosts {
            benefit_ns: 22.5,
            swap_cost_ns: 146.25,
        }
    }

    #[test]
    fn paper_fixed_policy_decides_exactly_like_the_policy_free_path() {
        let stream: Vec<u32> = (0..200).map(|i| (i * 37) % 512).collect();
        for threshold in [1, 4] {
            let cfg = ManagementConfig {
                promotion_threshold: threshold,
                tcache_bytes: 2 << 10,
                ..ManagementConfig::paper_default()
            };
            let mut bare = manager(cfg);
            let mut ruled = manager(cfg);
            ruled.install_policy(das_policy::PolicyKind::PaperFixed.build(), costs());
            for (i, &row) in stream.iter().enumerate() {
                let a = bare.on_data_access(bank0(), row, i as u64);
                let b = ruled.on_data_access(bank0(), row, i as u64);
                assert_eq!(a, b, "threshold {threshold}, access {i}");
                if let (Some(a), Some(b)) = (a, b) {
                    bare.commit_swap(&a, i as u64);
                    ruled.commit_swap(&b, i as u64);
                }
            }
            assert_eq!(bare.stats(), ruled.stats());
            assert_eq!(bare.filter_stats(), ruled.filter_stats());
        }
    }

    #[test]
    fn policy_promotion_race_with_in_flight_swap_defers() {
        let mut m = manager(cfg_scaled());
        m.install_policy(das_policy::PolicyKind::PaperFixed.build(), costs());
        let r1 = m.on_data_access(bank0(), 17, 1).expect("first promotes");
        // Same group while the swap is in flight: the policy grants, the
        // controller must still defer (no second swap may start).
        assert!(m.on_data_access(bank0(), 18, 2).is_none());
        assert_eq!(m.stats().deferred_busy, 1);
        let (_, pstats, _) = m.policy_stats();
        assert_eq!(pstats.promotes, 2, "both grants are tallied");
        m.commit_swap(&r1, 2);
        assert!(m.on_data_access(bank0(), 18, 3).is_some());
        assert_eq!(m.check_invariants(), Ok(()));
    }

    #[test]
    fn demoting_the_last_fast_row_keeps_invariants() {
        // 1/32 ratio with 32-row groups: exactly one fast slot per group,
        // so every promotion demotes the group's only fast resident.
        let g = geometry();
        let l = BankLayout::build(
            g.rows_per_bank,
            FastRatio::new(1, 32),
            Arrangement::default(),
            128,
            512,
        );
        let cfg = ManagementConfig {
            fast_ratio: FastRatio::new(1, 32),
            tcache_bytes: 2 << 10,
            ..ManagementConfig::paper_default()
        };
        let mut m = DasManager::new(cfg, g, l);
        let first = m.on_data_access(bank0(), 17, 1).expect("promotes");
        m.commit_swap(&first, 1);
        assert!(m.is_fast(bank0(), 17));
        assert!(!m.is_fast(bank0(), first.victim), "last fast row demoted");
        assert_eq!(m.check_invariants(), Ok(()));
        // And again: row 17 is now itself the group's last fast row.
        let second = m.on_data_access(bank0(), 18, 2).expect("promotes");
        assert_eq!(second.victim, 17);
        m.commit_swap(&second, 2);
        assert!(!m.is_fast(bank0(), 17));
        assert!(m.is_fast(bank0(), 18));
        assert_eq!(m.check_invariants(), Ok(()));
    }

    #[test]
    fn cost_aware_policy_waits_for_reuse_on_a_das_swap() {
        let mut m = manager(cfg_scaled());
        m.install_policy(das_policy::PolicyKind::CostAware.build(), costs());
        // ceil(146.25 / 22.5) = 7 observed hits before the swap pays off.
        for i in 0..6u64 {
            assert!(m.on_data_access(bank0(), 17, i).is_none(), "hit {i}");
        }
        let req = m.on_data_access(bank0(), 17, 6).expect("7th hit promotes");
        assert_eq!(req.promotee, 17);
        let (_, pstats, _) = m.policy_stats();
        assert_eq!((pstats.promotes, pstats.holds), (1, 6));
    }

    #[test]
    fn cost_aware_policy_weights_sharing_hot_rows() {
        let mut m = manager(cfg_scaled());
        m.install_policy(das_policy::PolicyKind::CostAware.build(), costs());
        // Three private hits alone hold; with four sharing-induced
        // accesses the expected residency benefit crosses the swap cost.
        assert!(m.on_data_access_shared(bank0(), 17, 0, 0).is_none());
        assert!(m.on_data_access_shared(bank0(), 17, 1, 0).is_none());
        assert!(m.on_data_access_shared(bank0(), 17, 2, 4).is_some());
    }

    #[test]
    fn feedback_policy_raises_threshold_on_an_overshooting_epoch() {
        let mut m = manager(ManagementConfig {
            promotion_threshold: 4,
            tcache_bytes: 2 << 10,
            ..ManagementConfig::paper_default()
        });
        m.install_policy(das_policy::PolicyKind::Feedback.build(), costs());
        // An epoch of pure fast hits: ratio 1.0 overshoots the 0.5 target,
        // so the controller raises the bar.
        for i in 0..POLICY_EPOCH_ACCESSES {
            assert!(m.on_data_access(bank0(), 0, i).is_none());
        }
        let (kind, pstats, threshold) = m.policy_stats();
        assert_eq!(kind, das_policy::PolicyKind::Feedback);
        assert_eq!(pstats.epochs, 1);
        assert_eq!(pstats.threshold_adjusts, 1);
        assert_eq!(threshold, 5);
    }

    #[test]
    fn promotions_update_phys_rows_consistently() {
        let mut m = manager(cfg_scaled());
        let before = m.translate(bank0(), 17).phys_row;
        let req = m.on_data_access(bank0(), 17, 1).unwrap();
        assert_eq!(req.promotee_phys, before);
        m.commit_swap(&req, 1);
        let after = m.translate(bank0(), 17).phys_row;
        assert_eq!(after, req.victim_phys);
        assert_eq!(m.translate(bank0(), req.victim).phys_row, req.promotee_phys);
    }
}
