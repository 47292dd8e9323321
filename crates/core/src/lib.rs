//! # das-core — Dynamic Asymmetric-Subarray DRAM management
//!
//! The primary contribution of Lu, Lin & Yang (MICRO 2015), *Improving DRAM
//! Latency with Dynamic Asymmetric Subarray*:
//!
//! * [`groups`] — migration groups (§5.2): bounded-freedom permutations
//!   keeping translation entries at one byte;
//! * [`translation`] — the in-memory translation table and the controller's
//!   fast-level-only translation cache (§5.2, §7.4);
//! * [`promotion`] — threshold promotion filtering with a bounded counter
//!   file (§5.3, §7.3);
//! * [`replacement`] — LRU / Random / Sequential / global-counter victim
//!   selection (§5.3, §7.6);
//! * [`management`] — [`management::DasManager`], the controller-side state
//!   machine combining all of the above over one of two placements: the
//!   adopted exclusive scheme ([`DasManager::new`], including the
//!   static-profiled placement used by the SAS-DRAM and CHARM baselines) or
//!   the §5 inclusive-cache alternative the paper weighs against it
//!   ([`DasManager::inclusive`]).
//!
//! # Examples
//!
//! ```
//! use das_core::management::{DasManager, ManagementConfig};
//! use das_dram::geometry::{Arrangement, BankCoord, BankLayout, DramGeometry, FastRatio};
//!
//! let geom = DramGeometry::paper_scaled(64);
//! let layout = BankLayout::build(geom.rows_per_bank, FastRatio::PAPER_DEFAULT,
//!     Arrangement::ReducedInterleaving, 128, 512);
//! let cfg = ManagementConfig { tcache_bytes: 2 << 10, ..ManagementConfig::paper_default() };
//! let mut mgr = DasManager::new(cfg, geom, layout);
//! let bank = BankCoord::new(0, 0, 0);
//! let t = mgr.translate(bank, 17);
//! assert!(!t.in_fast, "row 17 starts in the slow level");
//! let swap = mgr.on_data_access(bank, 17, 1).expect("promote on slow hit");
//! mgr.commit_swap(&swap, 2);
//! assert!(mgr.translate(bank, 17).in_fast);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod groups;
mod inclusive;
pub mod management;
pub mod promotion;
pub mod replacement;
pub mod translation;

pub use groups::{BankGroups, GroupId};
pub use management::{
    DasManager, ManagementConfig, ManagementStats, MigrationRequest, PolicyCosts, PolicyStats,
    Translation, POLICY_EPOCH_ACCESSES,
};
pub use promotion::{FilterStats, PromotionFilter};
pub use replacement::{ReplacementPolicy, Replacer};
pub use translation::{TableAddressMap, TranslationCache, TranslationSource, TranslationStats};
