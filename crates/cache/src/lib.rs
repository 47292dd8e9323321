//! # das-cache — set-associative cache hierarchy
//!
//! Cache substrate for the DAS-DRAM reproduction: the Table 1 hierarchy
//! (64 KB 8-way private L1, 256 KB 8-way private L2, 4 MB 8-way shared LLC,
//! 64 B lines, write-back / write-allocate, LRU) plus an MSHR utility for
//! merging concurrent misses, and the deterministic fast hasher the
//! simulator's hot-path maps use.
//!
//! Latencies are expressed in CPU cycles; the full-system simulator converts
//! to its tick time base.
//!
//! # Examples
//!
//! ```
//! use das_cache::hierarchy::{CacheHierarchy, CacheLevel, HierarchyConfig};
//!
//! let mut h = CacheHierarchy::new(HierarchyConfig::paper_default(), 4);
//! assert_eq!(h.access(0, 0x1_0000, false).level, CacheLevel::Memory);
//! h.fill_from_memory(0, 0x1_0000, false);
//! assert_eq!(h.access(0, 0x1_0000, true).level, CacheLevel::L1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fast_hash;
pub mod hierarchy;
pub mod mshr;
pub mod set_assoc;

pub use fast_hash::{FastMap, FastSet};
pub use hierarchy::{AccessOutcome, CacheHierarchy, CacheLevel, HierarchyConfig};
pub use mshr::Mshr;
pub use set_assoc::{CacheStats, SetAssocCache, Victim};
