//! The migration-cell row mechanism of §4: the latency model for single
//! row migrations (Fig. 3d) and full row swaps (Fig. 6).
//!
//! A *single migration* moves one row to a destination row in another
//! subarray through the migration row. Naively each of its two
//! activate+restore phases costs one tRC (2 tRC total); because data parked
//! in the migration row is read right back out, the restore constraint
//! (tRAS) can be tightened and the paper charges **1.5 tRC**.
//!
//! A *swap* (exclusive-cache promotion) exchanges two rows using the two
//! migration rows of the subarrays involved. Done as three software-style
//! migrations through a spare row it would cost 3 × 1.5 tRC; the paper's
//! four-step schedule (Fig. 6) overlaps the two middle movements, and
//! Table 1 charges **146.25 ns = 3 tRC** total.

use das_dram::tick::Tick;
use das_dram::timing::TimingSet;

/// Latency model for migrations and swaps.
#[derive(Debug, Clone, Copy)]
pub struct MigrationModel {
    timing: TimingSet,
    /// Extra cost per subarray hop beyond the first (None = the paper's
    /// fixed-latency model for the reduced-interleaving arrangement, where
    /// fast and slow subarrays are adjacent).
    per_hop: Option<Tick>,
}

impl MigrationModel {
    /// The paper's model: fixed 1.5 tRC migrations / 3 tRC swaps.
    pub fn paper(timing: TimingSet) -> Self {
        MigrationModel {
            timing,
            per_hop: None,
        }
    }

    /// Hop-sensitive extrapolation used by the arrangement ablation: each
    /// subarray boundary beyond the first adds `per_hop` (the staged
    /// migration-row-to-migration-row relay a partitioned layout needs).
    pub fn with_hop_cost(timing: TimingSet, per_hop: Tick) -> Self {
        MigrationModel {
            timing,
            per_hop: Some(per_hop),
        }
    }

    /// Whether the underlying device supports migration at all.
    pub fn supported(&self) -> bool {
        self.timing.supports_migration()
    }

    /// `base + per_hop * units`, saturating at `Tick::MAX` so pathological
    /// hop counts or per-hop costs degrade to "never" instead of wrapping.
    fn saturating_hop_total(base: Tick, per_hop: Tick, units: u64) -> Tick {
        let extra = per_hop.raw().saturating_mul(units);
        Tick::new(base.raw().saturating_add(extra))
    }

    /// Latency of one row migration crossing `hops` subarray boundaries.
    ///
    /// Returns `Tick::MAX` when the device does not support migration.
    /// `hops` of 0 or 1 cost the base latency (the paper's adjacent-subarray
    /// case); overflow saturates to `Tick::MAX`.
    pub fn single_migration(&self, hops: u32) -> Tick {
        let base = self.timing.single_migration;
        if base == Tick::MAX {
            return Tick::MAX;
        }
        match self.per_hop {
            Some(h) if hops > 1 => Self::saturating_hop_total(base, h, (hops - 1) as u64),
            _ => base,
        }
    }

    /// Latency of a full swap (Fig. 6) across `hops` boundaries.
    ///
    /// Same saturation and boundary behaviour as [`single_migration`].
    ///
    /// [`single_migration`]: MigrationModel::single_migration
    pub fn swap(&self, hops: u32) -> Tick {
        let base = self.timing.swap;
        if base == Tick::MAX {
            return Tick::MAX;
        }
        match self.per_hop {
            // Both directions of the exchange pay the relay.
            Some(h) if hops > 1 => Self::saturating_hop_total(base, h, 2 * (hops - 1) as u64),
            _ => base,
        }
    }

    /// The naive software-style swap of §5.1 — three single migrations
    /// through a spare row, with no overlap. Used by the migration ablation.
    pub fn naive_swap(&self, hops: u32) -> Tick {
        let one = self.single_migration(hops);
        if one == Tick::MAX {
            Tick::MAX
        } else {
            one * 3
        }
    }

    /// The untightened migration estimate of §4.2 (2 tRC instead of
    /// 1.5 tRC), for the ablation on the tRAS-tightening claim.
    pub fn untightened_single_migration(&self) -> Tick {
        self.timing.slow.trc() * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_latencies_match_table1() {
        let m = MigrationModel::paper(TimingSet::asymmetric());
        assert_eq!(m.single_migration(1), Tick::from_ns(73.125));
        assert_eq!(m.swap(1), Tick::from_ns(146.25));
        assert!(m.supported());
    }

    #[test]
    fn swap_beats_naive_software_swap() {
        let m = MigrationModel::paper(TimingSet::asymmetric());
        assert!(m.swap(1) < m.naive_swap(1));
        assert_eq!(m.naive_swap(1), Tick::from_ns(3.0 * 73.125));
    }

    #[test]
    fn tightening_saves_half_trc() {
        let m = MigrationModel::paper(TimingSet::asymmetric());
        let saved = m.untightened_single_migration() - m.single_migration(1);
        assert_eq!(saved, Tick::from_ns(48.75 / 2.0));
    }

    #[test]
    fn hop_cost_scales_distance() {
        let m = MigrationModel::with_hop_cost(TimingSet::asymmetric(), Tick::from_ns(24.375));
        assert_eq!(
            m.single_migration(1),
            Tick::from_ns(73.125),
            "adjacent is base"
        );
        assert_eq!(m.single_migration(3), Tick::from_ns(73.125 + 2.0 * 24.375));
        assert!(m.swap(4) > m.swap(1));
    }

    #[test]
    fn unsupported_device_yields_max() {
        let m = MigrationModel::paper(TimingSet::homogeneous_slow());
        assert!(!m.supported());
        assert_eq!(m.swap(1), Tick::MAX);
        assert_eq!(m.single_migration(1), Tick::MAX);
        assert_eq!(m.naive_swap(1), Tick::MAX);
    }

    #[test]
    fn free_migration_is_zero() {
        let m = MigrationModel::paper(TimingSet::asymmetric_free_migration());
        assert_eq!(m.swap(5), Tick::ZERO);
        assert_eq!(m.single_migration(2), Tick::ZERO);
    }

    #[test]
    fn hops_zero_and_one_cost_the_base_latency() {
        // hops = 0 (same subarray, degenerate) and hops = 1 (adjacent) both
        // charge the paper's fixed latency, with or without a hop model.
        let paper = MigrationModel::paper(TimingSet::asymmetric());
        assert_eq!(paper.single_migration(0), paper.single_migration(1));
        assert_eq!(paper.swap(0), paper.swap(1));
        let hop = MigrationModel::with_hop_cost(TimingSet::asymmetric(), Tick::from_ns(24.375));
        assert_eq!(hop.single_migration(0), Tick::from_ns(73.125));
        assert_eq!(hop.single_migration(1), Tick::from_ns(73.125));
        assert_eq!(hop.swap(0), hop.swap(1));
        // The first boundary beyond adjacency is where cost starts accruing.
        assert!(hop.single_migration(2) > hop.single_migration(1));
    }

    #[test]
    fn per_hop_overflow_saturates_to_never() {
        // A pathological per-hop cost must saturate to Tick::MAX, not wrap
        // into a tiny latency.
        let m = MigrationModel::with_hop_cost(TimingSet::asymmetric(), Tick::new(u64::MAX / 2));
        assert_eq!(m.single_migration(u32::MAX), Tick::MAX);
        assert_eq!(m.swap(u32::MAX), Tick::MAX);
        // A moderate hop count with a sane cost still adds up exactly.
        let sane = MigrationModel::with_hop_cost(TimingSet::asymmetric(), Tick::new(10));
        assert_eq!(
            sane.single_migration(3),
            TimingSet::asymmetric().single_migration + Tick::new(20)
        );
    }
}
