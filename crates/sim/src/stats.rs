//! Run metrics: everything the paper's figures report.

use das_coherence::CoherenceStats;
use das_core::promotion::FilterStats;
use das_core::translation::TranslationStats;
use das_telemetry::LatencyClass;

/// Migration-policy results of a run with an adaptive policy installed
/// (`None` when the legacy fixed-threshold path decided promotions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyMetrics {
    /// Policy key (`paper_fixed`, `hysteresis`, ...).
    pub policy: String,
    /// Promote actions emitted.
    pub promotes: u64,
    /// Hold decisions (observed accesses that did not promote).
    pub holds: u64,
    /// Threshold adjustments applied.
    pub threshold_adjusts: u64,
    /// Policy epochs elapsed.
    pub epochs: u64,
    /// Promotion-filter threshold at the end of the run.
    pub final_threshold: u32,
}

/// Coherence results of a run with the multi-core front end mounted
/// (`None` on every classic run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoherenceMetrics {
    /// Protocol label ("MESI" / "Dragon").
    pub protocol: String,
    /// Cores in the coherent cluster.
    pub cores: usize,
    /// Event counters from the cluster.
    pub stats: CoherenceStats,
}

impl CoherenceMetrics {
    /// Private-cache hit rate of the cluster.
    pub fn l1_hit_rate(&self) -> f64 {
        let total = self.stats.l1_hits + self.stats.l1_misses;
        if total == 0 {
            0.0
        } else {
            self.stats.l1_hits as f64 / total as f64
        }
    }

    /// Invalidations per bus transaction (invalidation-protocol pressure).
    pub fn invalidations_per_tx(&self) -> f64 {
        let tx = self.stats.bus_transactions();
        if tx == 0 {
            0.0
        } else {
            self.stats.invalidations as f64 / tx as f64
        }
    }
}

/// Distribution of serviced DRAM accesses over the Fig. 7c/7f categories.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessMix {
    /// Serviced from an already-open row buffer.
    pub row_buffer: u64,
    /// Required activating a fast-subarray row.
    pub fast: u64,
    /// Required activating a slow-subarray row.
    pub slow: u64,
}

impl AccessMix {
    /// Total accesses.
    pub fn total(&self) -> u64 {
        self.row_buffer + self.fast + self.slow
    }

    /// `(row-buffer, fast, slow)` fractions; zeros when empty.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let t = self.total();
        if t == 0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.row_buffer as f64 / t as f64,
            self.fast as f64 / t as f64,
            self.slow as f64 / t as f64,
        )
    }

    /// Records one serviced access.
    pub fn record(&mut self, class: LatencyClass) {
        match class {
            LatencyClass::RowBufferHit => self.row_buffer += 1,
            LatencyClass::FastMiss => self.fast += 1,
            LatencyClass::SlowMiss => self.slow += 1,
        }
    }

    /// Component-wise difference (for warm-up subtraction).
    pub fn since(&self, snapshot: &AccessMix) -> AccessMix {
        AccessMix {
            row_buffer: self.row_buffer - snapshot.row_buffer,
            fast: self.fast - snapshot.fast,
            slow: self.slow - snapshot.slow,
        }
    }
}

/// Per-core results over the measured (post-warm-up) window.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreMetrics {
    /// Instructions retired in the window.
    pub insts: u64,
    /// CPU cycles elapsed in the window.
    pub cycles: u64,
    /// LLC misses attributed to this core in the window.
    pub llc_misses: u64,
}

impl CoreMetrics {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts as f64 / self.cycles as f64
        }
    }

    /// Misses per kilo-instruction.
    pub fn mpki(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.llc_misses as f64 * 1000.0 / self.insts as f64
        }
    }
}

/// First-order DRAM energy model (§7.7).
///
/// Event energies are derived from the bitline-length argument of
/// CHARM/TL-DRAM: activate+precharge energy scales with the number of cells
/// per bitline, so a 128-cell fast subarray costs roughly a quarter of a
/// 512-cell slow one. Values are nominal nanojoules per event for a x8
/// DDR3-1600 device — the *relative* comparison across designs is the
/// meaningful output.
#[derive(Debug, Clone, Copy)]
pub struct EnergyModel {
    /// ACT+PRE pair on a slow subarray (nJ).
    pub act_pre_slow_nj: f64,
    /// ACT+PRE pair on a fast subarray (nJ).
    pub act_pre_fast_nj: f64,
    /// One read burst (nJ).
    pub read_nj: f64,
    /// One write burst (nJ).
    pub write_nj: f64,
    /// One row swap: four row operations across fast+slow subarrays (nJ).
    pub swap_nj: f64,
    /// Background + refresh power per channel (mW).
    pub background_mw: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            act_pre_slow_nj: 1.9,
            act_pre_fast_nj: 0.55,
            read_nj: 1.2,
            write_nj: 1.3,
            // promotee ACT(slow)+restore + victim ACT(fast)+restore, twice.
            swap_nj: 2.0 * (1.9 + 0.55),
            background_mw: 55.0,
        }
    }
}

/// Energy totals for a run window.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnergyBreakdown {
    /// Activate/precharge energy (nJ).
    pub act_pre_nj: f64,
    /// Read/write burst energy (nJ).
    pub burst_nj: f64,
    /// Migration energy (nJ).
    pub migration_nj: f64,
    /// Background energy (nJ).
    pub background_nj: f64,
}

impl EnergyBreakdown {
    /// Total energy in nanojoules.
    pub fn total_nj(&self) -> f64 {
        self.act_pre_nj + self.burst_nj + self.migration_nj + self.background_nj
    }
}

/// Everything measured in one run (post-warm-up window).
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Design label.
    pub design: String,
    /// Workload label (benchmark or mix name).
    pub workload: String,
    /// Per-core metrics.
    pub cores: Vec<CoreMetrics>,
    /// DRAM access-location distribution.
    pub access_mix: AccessMix,
    /// Row promotions (swaps) committed.
    pub promotions: u64,
    /// Total DRAM data accesses (reads+writes serviced).
    pub memory_accesses: u64,
    /// Total LLC misses across cores.
    pub llc_misses: u64,
    /// Distinct rows touched by demand traffic, in bytes (episode
    /// footprint).
    pub footprint_bytes: u64,
    /// Translation-cache statistics (whole run).
    pub translation: TranslationStats,
    /// Promotion-filter statistics (whole run).
    pub filter: FilterStats,
    /// DRAM reads issued solely to fetch translation-table lines.
    pub table_fetch_reads: u64,
    /// Energy totals.
    pub energy: EnergyBreakdown,
    /// Wall simulated time of the measured window, in CPU cycles (max over
    /// cores).
    pub window_cycles: u64,
    /// Subarrays that serviced at least one data access (whole run).
    pub active_subarrays: usize,
    /// Total subarrays in the system.
    pub total_subarrays: usize,
    /// Coherence metrics when the multi-core front end is mounted.
    pub coherence: Option<CoherenceMetrics>,
    /// Migration-policy metrics when an adaptive policy is installed.
    pub policy: Option<PolicyMetrics>,
}

impl RunMetrics {
    /// Sum of per-core IPCs (multi-programming throughput).
    pub fn ipc_sum(&self) -> f64 {
        self.cores.iter().map(|c| c.ipc()).sum()
    }

    /// Single-core IPC (first core).
    pub fn ipc(&self) -> f64 {
        self.cores.first().map_or(0.0, |c| c.ipc())
    }

    /// Aggregate MPKI over all cores.
    pub fn mpki(&self) -> f64 {
        let insts: u64 = self.cores.iter().map(|c| c.insts).sum();
        if insts == 0 {
            0.0
        } else {
            self.llc_misses as f64 * 1000.0 / insts as f64
        }
    }

    /// Promotions per kilo-miss (Fig. 7b/7e "PPKM").
    pub fn ppkm(&self) -> f64 {
        if self.llc_misses == 0 {
            0.0
        } else {
            self.promotions as f64 * 1000.0 / self.llc_misses as f64
        }
    }

    /// Promotions per memory access (Fig. 8c).
    pub fn promotions_per_access(&self) -> f64 {
        if self.memory_accesses == 0 {
            0.0
        } else {
            self.promotions as f64 / self.memory_accesses as f64
        }
    }

    /// Fraction of subarrays that could have been powered down for the
    /// whole episode (no data accesses touched them) — the §1 partial
    /// power-down opportunity that row migration creates by consolidating
    /// hot rows.
    pub fn idle_subarray_fraction(&self) -> f64 {
        if self.total_subarrays == 0 {
            0.0
        } else {
            1.0 - self.active_subarrays as f64 / self.total_subarrays as f64
        }
    }

    /// Fraction of row activations that hit the fast level (fast-level
    /// utilisation; row-buffer hits excluded).
    pub fn fast_activation_ratio(&self) -> f64 {
        let acts = self.access_mix.fast + self.access_mix.slow;
        if acts == 0 {
            0.0
        } else {
            self.access_mix.fast as f64 / acts as f64
        }
    }
}

/// Geometric mean of (1 + improvement) values, expressed back as an
/// improvement — the paper's "gmean" bars.
///
/// An improvement of −100 % or worse has no geometric-mean contribution
/// (`ln(1+x)` is −∞ or undefined); each factor is floored at a tiny
/// positive value so one degenerate run drags the gmean toward −100 %
/// instead of poisoning the whole aggregate with NaN.
pub fn gmean_improvement(improvements: &[f64]) -> f64 {
    const FLOOR: f64 = 1e-9; // factor floor: ≈ −100% improvement
    if improvements.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = improvements
        .iter()
        .map(|&x| (1.0 + x).max(FLOOR).ln())
        .sum();
    (log_sum / improvements.len() as f64).exp() - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_mix_fractions_sum_to_one() {
        let mut m = AccessMix::default();
        m.record(LatencyClass::RowBufferHit);
        m.record(LatencyClass::FastMiss);
        m.record(LatencyClass::SlowMiss);
        m.record(LatencyClass::SlowMiss);
        let (rb, f, s) = m.fractions();
        assert!((rb + f + s - 1.0).abs() < 1e-12);
        assert_eq!(m.total(), 4);
        assert!((s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn access_mix_since_subtracts() {
        let snap = AccessMix {
            row_buffer: 1,
            fast: 2,
            slow: 3,
        };
        let end = AccessMix {
            row_buffer: 10,
            fast: 12,
            slow: 13,
        };
        assert_eq!(
            end.since(&snap),
            AccessMix {
                row_buffer: 9,
                fast: 10,
                slow: 10
            }
        );
    }

    #[test]
    fn core_metrics_derived_quantities() {
        let c = CoreMetrics {
            insts: 4_000,
            cycles: 2_000,
            llc_misses: 80,
        };
        assert!((c.ipc() - 2.0).abs() < 1e-12);
        assert!((c.mpki() - 20.0).abs() < 1e-12);
        assert_eq!(CoreMetrics::default().ipc(), 0.0);
    }

    #[test]
    fn run_metrics_ratios() {
        let m = RunMetrics {
            cores: vec![CoreMetrics {
                insts: 1000,
                cycles: 1000,
                llc_misses: 50,
            }],
            promotions: 5,
            llc_misses: 50,
            memory_accesses: 100,
            access_mix: AccessMix {
                row_buffer: 40,
                fast: 45,
                slow: 15,
            },
            ..RunMetrics::default()
        };
        assert!((m.ppkm() - 100.0).abs() < 1e-12);
        assert!((m.promotions_per_access() - 0.05).abs() < 1e-12);
        assert!((m.fast_activation_ratio() - 0.75).abs() < 1e-12);
        assert!((m.mpki() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn gmean_of_equal_values_is_that_value() {
        assert!((gmean_improvement(&[0.1, 0.1, 0.1]) - 0.1).abs() < 1e-12);
        assert_eq!(gmean_improvement(&[]), 0.0);
        // Mixed signs behave sensibly.
        let g = gmean_improvement(&[0.2, -0.05]);
        assert!(g > -0.05 && g < 0.2);
    }

    #[test]
    fn gmean_stays_finite_for_total_regressions() {
        // A −100 % (or worse) improvement used to produce ln(0) = −∞ or
        // ln(negative) = NaN and poison the aggregate.
        for xs in [&[-1.0][..], &[-1.5][..], &[0.3, -1.0, 0.1][..]] {
            let g = gmean_improvement(xs);
            assert!(g.is_finite(), "gmean of {xs:?} must be finite, got {g}");
            assert!(g >= -1.0, "gmean of {xs:?} below −100%: {g}");
        }
        // One wrecked run drags the mean down but leaves it well-defined.
        let g = gmean_improvement(&[0.5, -1.0]);
        assert!(g < 0.0 && g.is_finite());
    }

    #[test]
    fn energy_totals_add_up() {
        let e = EnergyBreakdown {
            act_pre_nj: 1.0,
            burst_nj: 2.0,
            migration_nj: 3.0,
            background_nj: 4.0,
        };
        assert!((e.total_nj() - 10.0).abs() < 1e-12);
        let m = EnergyModel::default();
        assert!(m.act_pre_fast_nj < m.act_pre_slow_nj);
    }
}
