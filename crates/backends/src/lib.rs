//! Plain value types of the DRAM design table.
//!
//! Each design the simulator compares (the paper's Std/SAS/CHARM/DAS/FM/FS
//! probes plus TL-DRAM, CLR-DRAM, LISA and SALP) is described once, as one
//! entry of `das_sim::config::Design`'s table. An entry names its timing
//! set, its area model, its capacity rule and the two kinds defined here:
//! how its fast latency level is managed ([`FastLevelManagement`]) and
//! which geometry it pins down ([`PlacementSpec`]).

use das_dram::geometry::{Arrangement, FastRatio};

/// How the fast latency level is managed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastLevelManagement {
    /// No fast level (or a homogeneous device): rows never move.
    None,
    /// Static: rows are pre-placed from a profiling pre-pass and never
    /// move afterwards (SAS-DRAM, CHARM).
    Static,
    /// Exclusive: a row lives in exactly one level; promotion swaps it with
    /// a victim (DAS, CLR-DRAM morph exchange, LISA).
    Exclusive,
    /// Inclusive: the fast level caches copies of slow rows; the slow copy
    /// stays valid and fast capacity is lost to duplication (TL-DRAM).
    Inclusive,
}

/// Geometry overrides a design imposes on the system configuration.
///
/// `None` fields leave the configured value untouched, so sweeps can still
/// vary parameters the design does not pin down.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlacementSpec {
    /// Required fast-level capacity share.
    pub fast_ratio: Option<FastRatio>,
    /// Required management group size (rows considered together).
    pub group_size: Option<u32>,
    /// Required physical arrangement of fast subarrays.
    pub arrangement: Option<Arrangement>,
    /// Required slow-subarray row count (TL-DRAM's 384-row far segment).
    pub slow_subarray_rows: Option<u32>,
    /// Whether the design enables subarray-level parallelism.
    pub salp: bool,
}
