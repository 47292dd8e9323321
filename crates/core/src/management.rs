//! The hardware fast-level management mechanism of §5: translation,
//! promotion triggering/filtering, and replacement, packaged as the state
//! machine the memory controller consults on every request.
//!
//! One [`DasManager`] serves both of the paper's placements. The adopted
//! **exclusive** one ([`DasManager::new`]) permutes the rows of each
//! migration group, so every logical row lives in exactly one place and a
//! promotion swaps two rows. The **inclusive** alternative
//! ([`DasManager::inclusive`]) keeps every row at its slow home and caches
//! copies in the fast slots, so a promotion is a fill. Translation, the
//! promotion filter and policy, replacement and the busy-group rule are
//! shared.
//!
//! The manager is authoritative for *where every logical row currently
//! lives*; the translation cache only affects **timing** (whether a lookup
//! costs a table fetch), never correctness.

use core::fmt;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasher;

use das_dram::command::MigrationKind;
use das_dram::geometry::{BankCoord, BankLayout, DramGeometry, FastRatio, GlobalRowId};
use das_policy::{AccessStats, EpochStats, MigrationPolicy, PolicyAction, PolicyEvent, PolicyKind};

use crate::groups::{BankGroups, GroupId, GroupInvariantError};
use crate::inclusive::InclusiveTags;
use crate::promotion::{FilterStats, PromotionFilter};
use crate::replacement::{ReplacementPolicy, Replacer};
use crate::translation::{TableAddressMap, TranslationCache, TranslationSource, TranslationStats};

/// A violation of the placement's consistency contract, found by
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
    /// An inclusive fast slot's tag names a row outside its group, or a
    /// row another slot of the group already caches.
    BadTag {
        /// Flat bank index.
        bank: usize,
        /// Migration group.
        group: u32,
        /// Fast slot within the group.
        slot: u8,
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
            ConsistencyError::BadTag { bank, group, slot } => {
                write!(
                    f,
                    "bank {bank}: group {group} fast slot {slot} caches a row it may not"
                )
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

/// A promotion the controller should perform through the migration
/// mechanism: the exclusive placement's swap of the promotee with a fast
/// victim, or the inclusive placement's copy of the promotee into a fast
/// slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationRequest {
    /// Bank holding the group.
    pub bank: BankCoord,
    /// Migration group.
    pub group: u32,
    /// Logical row being promoted (currently served from the slow level).
    pub promotee: u32,
    /// The group's fast slot the promotee moves into.
    pub slot: u8,
    /// The row leaving the fast slot: under the exclusive placement the
    /// logical row demoted into the promotee's old place, under the
    /// inclusive one the row whose copy is evicted (`None` when the slot
    /// is empty).
    pub victim: Option<u32>,
    /// Physical row of the promotee (the migration's source).
    pub phys_a: u32,
    /// Physical row of the fast slot.
    pub phys_b: u32,
    /// `Swap` (exclusive), `Copy` (inclusive, clean victim) or
    /// `CopyWithWriteback` (inclusive, dirty victim).
    pub kind: MigrationKind,
}

/// Aggregate management statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManagementStats {
    /// Data accesses that found their row in the fast level.
    pub fast_hits: u64,
    /// Data accesses serviced from the slow level.
    pub slow_hits: u64,
    /// Migrations committed.
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

/// Where the rows of the fast level live.
#[derive(Debug, Clone)]
enum Placement {
    /// The adopted exclusive scheme: each bank's group permutation.
    Exclusive(Vec<BankGroups>),
    /// The §5 inclusive alternative: fast slots cache copies of slow rows.
    Inclusive(InclusiveTags),
}

impl Placement {
    /// The group of `logical_row` and the fast slot serving it, if any.
    fn locate(&self, bank_idx: usize, logical_row: u32, fast_slots: u32) -> (u32, Option<u8>) {
        match self {
            Placement::Exclusive(groups) => {
                let g = &groups[bank_idx];
                let slot = g.phys_slot(logical_row);
                let fast = ((slot as u32) < fast_slots).then_some(slot);
                (g.locate(logical_row).0, fast)
            }
            Placement::Inclusive(tags) => (
                tags.group_of(logical_row),
                tags.cached_slot(bank_idx, logical_row),
            ),
        }
    }

    /// Physical row serving `logical_row` and whether it is fast.
    fn peek(&self, bank_idx: usize, logical_row: u32, layout: &BankLayout) -> (u32, bool) {
        match self {
            Placement::Exclusive(groups) => {
                let g = &groups[bank_idx];
                (
                    g.phys_row_of_logical(logical_row, layout),
                    g.is_fast(logical_row),
                )
            }
            Placement::Inclusive(tags) => tags.peek(bank_idx, logical_row, layout),
        }
    }
}

/// The §5 management mechanism. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct DasManager {
    cfg: ManagementConfig,
    geometry: DramGeometry,
    layout: BankLayout,
    placement: Placement,
    /// Fast slots per migration group.
    fast_slots: u32,
    tcache: TranslationCache,
    table_map: TableAddressMap,
    replacer: Replacer,
    filter: PromotionFilter,
    /// Groups with a migration in flight (no second promotion may start).
    busy_groups: HashSet<GroupId>,
    stats: ManagementStats,
    /// The migration policy deciding every promotion: the paper's
    /// [`PaperFixed`](das_policy::PaperFixed) rule unless
    /// [`DasManager::install_policy`] replaced it.
    policy: PolicyRuntime,
}

impl DasManager {
    /// Creates the exclusive manager for a system of `geometry` with bank
    /// `layout`.
    ///
    /// # Panics
    ///
    /// Panics if the group size / ratio do not divide the geometry exactly.
    pub fn new(cfg: ManagementConfig, geometry: DramGeometry, layout: BankLayout) -> Self {
        let groups = (0..geometry.total_banks())
            .map(|b| {
                BankGroups::with_rotation(
                    geometry.rows_per_bank,
                    cfg.group_size,
                    cfg.fast_ratio,
                    b * 13,
                )
            })
            .collect();
        Self::with_placement(cfg, geometry, layout, Placement::Exclusive(groups))
    }

    /// Creates the inclusive manager: the logical row space per bank is
    /// the layout's **slow** rows, and the fast rows only hold copies.
    ///
    /// # Panics
    ///
    /// Panics if the slow rows do not divide into groups or the fast rows
    /// cannot give every group its slots.
    pub fn inclusive(cfg: ManagementConfig, geometry: DramGeometry, layout: BankLayout) -> Self {
        let tags = InclusiveTags::new(
            geometry.total_banks() as usize,
            cfg.group_size,
            cfg.fast_ratio.apply(cfg.group_size),
            &layout,
        );
        Self::with_placement(cfg, geometry, layout, Placement::Inclusive(tags))
    }

    fn with_placement(
        cfg: ManagementConfig,
        geometry: DramGeometry,
        layout: BankLayout,
        placement: Placement,
    ) -> Self {
        // Demand regions must stay below the reserved table region.
        let table_map = TableAddressMap::new(geometry.table_base());
        DasManager {
            cfg,
            geometry,
            layout,
            placement,
            fast_slots: cfg.fast_ratio.apply(cfg.group_size),
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

    /// The bank layout the manager was built against.
    pub fn layout(&self) -> &BankLayout {
        &self.layout
    }

    /// Reads the current mapping of a logical row without modelling any
    /// lookup (used when the controller already holds the translation,
    /// e.g. from a just-translated request to the same row).
    pub fn peek(&self, bank: BankCoord, logical_row: u32) -> (u32, bool) {
        self.placement
            .peek(self.geometry.bank_index(bank), logical_row, &self.layout)
    }

    /// Translates the logical row of a request.
    pub fn translate(&mut self, bank: BankCoord, logical_row: u32) -> Translation {
        let (phys_row, in_fast) = self.peek(bank, logical_row);
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
    ) -> Option<MigrationRequest> {
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
    ) -> Option<MigrationRequest> {
        self.policy_epoch_tick();
        let bank_idx = self.geometry.bank_index(bank);
        let (group, fast_slot) = self
            .placement
            .locate(bank_idx, logical_row, self.fast_slots);
        let gid = GroupId {
            bank: bank_idx,
            group,
        };
        if let Some(slot) = fast_slot {
            self.stats.fast_hits += 1;
            self.replacer
                .note_fast_access(gid, slot, self.fast_slots, now);
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
        let slot = self.replacer.choose_victim(gid, self.fast_slots);
        let req = match &self.placement {
            Placement::Exclusive(groups) => {
                let g = &groups[bank_idx];
                let victim = group * g.group_size() + g.logical_slot(group, slot) as u32;
                debug_assert_ne!(victim, logical_row);
                MigrationRequest {
                    bank,
                    group,
                    promotee: logical_row,
                    slot,
                    victim: Some(victim),
                    phys_a: g.phys_row_of_logical(logical_row, &self.layout),
                    phys_b: g.phys_row(group, slot, &self.layout),
                    kind: MigrationKind::Swap,
                }
            }
            Placement::Inclusive(tags) => {
                let occupant = tags.occupant(bank_idx, group, slot);
                MigrationRequest {
                    bank,
                    group,
                    promotee: logical_row,
                    slot,
                    victim: occupant.map(|(row, _)| row),
                    phys_a: self.layout.slow_to_phys(logical_row),
                    phys_b: tags.slot_phys(group, slot, &self.layout),
                    kind: match occupant {
                        Some((_, true)) => MigrationKind::CopyWithWriteback,
                        _ => MigrationKind::Copy,
                    },
                }
            }
        };
        self.busy_groups.insert(gid);
        Some(req)
    }

    /// Records a serviced write-back. Under the exclusive placement it is
    /// a no-op: a write-back never triggers a promotion and is not counted
    /// as a hit. The inclusive placement counts it as a fast or slow hit
    /// and dirties a cached copy; an uncached write updates the home row
    /// and never allocates (allocating on write-backs would churn streams).
    pub fn on_write(&mut self, bank: BankCoord, logical_row: u32, now: u64) {
        let Placement::Inclusive(tags) = &mut self.placement else {
            return;
        };
        let bank_idx = self.geometry.bank_index(bank);
        let group = tags.group_of(logical_row);
        match tags.cached_slot(bank_idx, logical_row) {
            Some(slot) => {
                self.stats.fast_hits += 1;
                tags.mark_dirty(bank_idx, group, slot);
                let gid = GroupId {
                    bank: bank_idx,
                    group,
                };
                self.replacer
                    .note_fast_access(gid, slot, self.fast_slots, now);
            }
            None => self.stats.slow_hits += 1,
        }
    }

    /// Runs the policy for one promotion-candidate access and returns
    /// whether to promote: the filter does the counting, the policy the
    /// deciding.
    fn policy_decide(&mut self, row_id: GlobalRowId, shared_count: u32, group_busy: bool) -> bool {
        let threshold = self.filter.threshold();
        let count = self.filter.note(row_id);
        let rt = &mut self.policy;
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
    /// (clamped by the filter). `Promote` is tallied here and acted on
    /// by the caller.
    fn apply_policy_actions(&mut self, actions: &[PolicyAction]) {
        for action in actions {
            let rt = &mut self.policy;
            match action {
                PolicyAction::Promote => rt.stats.promotes += 1,
                PolicyAction::Hold => rt.stats.holds += 1,
                PolicyAction::AdjustThreshold(delta) => {
                    rt.stats.threshold_adjusts += 1;
                    let next = self.filter.threshold() as i64 + *delta as i64;
                    self.filter.set_threshold(next);
                }
            }
        }
    }

    /// Commits a completed migration: updates the placement, keeps the
    /// translation cache coherent, and marks the promotee's slot
    /// most-recently-used so an immediately following promotion in the
    /// group does not evict it.
    ///
    /// The two placements update the translation cache in their own
    /// order, which matters when both rows fall in one full set: a swap
    /// inserts the promotee before dropping the victim, a fill drops the
    /// evicted row first.
    pub fn commit_swap(&mut self, req: &MigrationRequest, now: u64) {
        let bank_idx = self.geometry.bank_index(req.bank);
        let promotee_id = self.geometry.global_row_id(req.bank, req.promotee);
        match &mut self.placement {
            Placement::Exclusive(groups) => {
                let g = &mut groups[bank_idx];
                let victim =
                    req.group * g.group_size() + g.logical_slot(req.group, req.slot) as u32;
                g.swap_logical(req.promotee, victim);
                self.tcache.insert(promotee_id);
                self.tcache
                    .invalidate(self.geometry.global_row_id(req.bank, victim));
            }
            Placement::Inclusive(tags) => {
                if let Some(evicted) = tags.fill(bank_idx, req.group, req.slot, req.promotee) {
                    self.tcache
                        .invalidate(self.geometry.global_row_id(req.bank, evicted));
                }
                self.tcache.insert(promotee_id);
            }
        }
        self.filter.forget(promotee_id);
        let gid = GroupId {
            bank: bank_idx,
            group: req.group,
        };
        self.replacer
            .note_fast_access(gid, req.slot, self.fast_slots, now);
        self.busy_groups.remove(&gid);
        self.stats.promotions += 1;
    }

    /// Pre-places the most frequently used rows of each group into its fast
    /// slots, given profiled per-row access counts — the SAS-DRAM / CHARM
    /// methodology of §7 ("each workload is profiled first and the
    /// most-frequently-used portion of its footprint is pre-assigned to the
    /// fast level").
    ///
    /// # Panics
    ///
    /// Panics on an inclusive manager: static designs place exclusively.
    pub fn static_place<S: BuildHasher>(&mut self, counts: &HashMap<GlobalRowId, u64, S>) {
        let Placement::Exclusive(groups) = &mut self.placement else {
            panic!("static placement needs the exclusive placement");
        };
        let mut ranked: Vec<(u64, u32)> = Vec::new();
        let mut chosen: Vec<u32> = Vec::new();
        for bank in self.geometry.banks() {
            let bank_idx = self.geometry.bank_index(bank);
            let g = &mut groups[bank_idx];
            let group_size = g.group_size();
            let fast_slots = g.fast_slots();
            for group in 0..g.groups() {
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
                        g.swap_logical(hot_row, occupant);
                    }
                }
            }
        }
    }

    /// Whether logical row `row` of `bank` currently has a fast copy.
    pub fn is_fast(&self, bank: BankCoord, row: u32) -> bool {
        self.peek(bank, row).1
    }

    /// Placement invariant sweep. Exclusive: every bank's permutation is a
    /// bijection (each logical row has exactly one physical location).
    /// Inclusive: each group's tags name distinct rows of that group. Both:
    /// every cached translation names a row that really has a fast copy.
    /// Returns the first violation found.
    pub fn check_invariants(&self) -> Result<(), ConsistencyError> {
        match &self.placement {
            Placement::Exclusive(groups) => {
                for (bank, g) in groups.iter().enumerate() {
                    g.verify()
                        .map_err(|source| ConsistencyError::BrokenPermutation { bank, source })?;
                }
            }
            Placement::Inclusive(tags) => tags
                .verify()
                .map_err(|(bank, group, slot)| ConsistencyError::BadTag { bank, group, slot })?,
        }
        if self.cfg.static_mapping {
            return Ok(());
        }
        let rows_per_bank = self.geometry.rows_per_bank as u64;
        for row in self.tcache.resident_rows() {
            let bank_idx = (row.0 / rows_per_bank) as usize;
            let logical = (row.0 % rows_per_bank) as u32;
            let (_, fast_slot) = self.placement.locate(bank_idx, logical, self.fast_slots);
            if fast_slot.is_none() {
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
        assert!(m.is_fast(bank0(), req.victim.unwrap()));
        m.commit_swap(&req, 1);
        assert!(m.is_fast(bank0(), row));
        assert!(!m.is_fast(bank0(), req.victim.unwrap()));
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
        let t = m.translate(bank0(), req.victim.unwrap());
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
    fn groups(m: &mut DasManager) -> &mut Vec<BankGroups> {
        match &mut m.placement {
            Placement::Exclusive(groups) => groups,
            Placement::Inclusive(_) => panic!("an exclusive manager"),
        }
    }

    fn static_place_oracle(m: &mut DasManager, counts: &HashMap<GlobalRowId, u64>) {
        let geometry = m.geometry.clone();
        let groups = groups(m);
        for bank in geometry.banks() {
            let bank_idx = geometry.bank_index(bank);
            let group_size = groups[bank_idx].group_size();
            let fast_slots = groups[bank_idx].fast_slots();
            for group in 0..groups[bank_idx].groups() {
                let base = group * group_size;
                let mut ranked: Vec<(u64, u32)> = (0..group_size)
                    .map(|s| {
                        let row = base + s;
                        let id = geometry.global_row_id(bank, row);
                        (counts.get(&id).copied().unwrap_or(0), row)
                    })
                    .collect();
                ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                for (i, &(_, hot_row)) in ranked.iter().take(fast_slots as usize).enumerate() {
                    let g = &groups[bank_idx];
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
                    groups[bank_idx].swap_logical(hot_row, occupant);
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
                        groups(&mut fast)[idx].phys_slot(row),
                        groups(&mut oracle)[idx].phys_slot(row),
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
        assert!(
            !m.is_fast(bank0(), first.victim.unwrap()),
            "last fast row demoted"
        );
        assert_eq!(m.check_invariants(), Ok(()));
        // And again: row 17 is now itself the group's last fast row.
        let second = m.on_data_access(bank0(), 18, 2).expect("promotes");
        assert_eq!(second.victim, Some(17));
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
        assert_eq!(req.phys_a, before);
        m.commit_swap(&req, 1);
        let after = m.translate(bank0(), 17).phys_row;
        assert_eq!(after, req.phys_b);
        assert_eq!(
            m.translate(bank0(), req.victim.unwrap()).phys_row,
            req.phys_a
        );
    }

    fn inclusive_manager() -> DasManager {
        let g = geometry();
        let l = BankLayout::build(
            g.rows_per_bank,
            FastRatio::new(1, 8),
            Arrangement::ReducedInterleaving,
            128,
            512,
        );
        DasManager::inclusive(cfg_scaled(), g, l)
    }

    #[test]
    fn inclusive_first_read_fills_with_a_clean_copy() {
        let mut m = inclusive_manager();
        let home = m.layout().slow_to_phys(10);
        assert_eq!(m.peek(bank0(), 10), (home, false));
        let fill = m.on_data_access(bank0(), 10, 1).expect("threshold 1 fills");
        assert_eq!(fill.kind, MigrationKind::Copy, "empty slot: clean fill");
        assert_eq!((fill.phys_a, fill.victim), (home, None));
        m.commit_swap(&fill, 2);
        assert_eq!(m.peek(bank0(), 10), (fill.phys_b, true));
        assert_eq!(m.check_invariants(), Ok(()));
    }

    #[test]
    fn inclusive_dirty_victim_costs_a_writeback_copy() {
        let mut m = inclusive_manager();
        // Fill several rows; fills may evict each other, so pick a row that
        // is actually resident afterwards and dirty it.
        for row in 0..8u32 {
            if let Some(f) = m.on_data_access(bank0(), row, row as u64) {
                m.commit_swap(&f, row as u64);
            }
        }
        let dirty_row = (0..8u32)
            .find(|&r| m.is_fast(bank0(), r))
            .expect("something cached");
        m.on_write(bank0(), dirty_row, 100);
        // Make the dirty row the LRU resident by touching all others later.
        for row in 0..8u32 {
            if row != dirty_row && m.is_fast(bank0(), row) {
                assert!(m.on_data_access(bank0(), row, 200 + row as u64).is_none());
            }
        }
        let fill = m.on_data_access(bank0(), 20, 300).expect("fills");
        assert_eq!(fill.kind, MigrationKind::CopyWithWriteback);
        assert_eq!(fill.victim, Some(dirty_row));
        m.commit_swap(&fill, 301);
        // The dirty victim reverted to its home row.
        let home = m.layout().slow_to_phys(dirty_row);
        assert_eq!(m.peek(bank0(), dirty_row), (home, false));
        assert_eq!(m.check_invariants(), Ok(()));
    }

    #[test]
    fn writes_count_only_under_the_inclusive_placement() {
        let mut incl = inclusive_manager();
        incl.on_write(bank0(), 5, 1);
        assert!(!incl.is_fast(bank0(), 5), "uncached writes do not allocate");
        assert_eq!(incl.stats().slow_hits, 1);
        let mut excl = manager(cfg_scaled());
        excl.on_write(bank0(), 17, 1);
        excl.on_write(bank0(), 0, 1);
        assert_eq!(excl.stats(), ManagementStats::default());
    }

    #[test]
    fn inclusive_busy_group_defers() {
        let mut m = inclusive_manager();
        let f = m.on_data_access(bank0(), 1, 1).unwrap();
        assert!(m.on_data_access(bank0(), 2, 2).is_none());
        assert_eq!(m.stats().deferred_busy, 1);
        m.commit_swap(&f, 2);
        assert!(m.on_data_access(bank0(), 2, 3).is_some());
    }

    #[test]
    fn inclusive_translation_tracks_fills() {
        let mut m = inclusive_manager();
        let t = m.translate(bank0(), 3);
        assert!(!t.in_fast);
        assert_eq!(t.source, TranslationSource::TableFetch);
        let fill = m.on_data_access(bank0(), 3, 1).unwrap();
        m.commit_swap(&fill, 2);
        let t = m.translate(bank0(), 3);
        assert!(t.in_fast);
        assert_eq!(t.source, TranslationSource::Cache);
    }
}
