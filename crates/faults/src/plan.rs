//! Fault plans, the per-site injector, and outcome accounting.
//!
//! A [`FaultPlan`] is plain data: per-site rates plus knobs for the recovery
//! policies (bounded swap retries, bounded re-reads). A [`FaultInjector`]
//! turns the plan into decisions, drawing each site from an *independent*
//! PRNG stream derived from the plan seed so that enabling one site never
//! perturbs the decision sequence of another.
//!
//! Sites whose rate is zero never draw from their stream — a rate-0 plan is
//! bit-identical to running without any injector.

use crate::prng::{splitmix64, Prng};

/// The injection sites the simulator wires up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A migration/swap step fails mid-flight (the swap must be retried or
    /// abandoned).
    SwapStep,
    /// A migration completes but takes longer than modelled (latency spike).
    SwapLatency,
    /// A translation-cache entry is corrupted or lost.
    TranslationCorrupt,
    /// A weak-retention bit flip on a row resident in a fast subarray
    /// (short bitlines hold less charge).
    RetentionFlip,
}

impl FaultSite {
    /// All sites, for iteration in reports.
    pub const ALL: [FaultSite; 4] = [
        FaultSite::SwapStep,
        FaultSite::SwapLatency,
        FaultSite::TranslationCorrupt,
        FaultSite::RetentionFlip,
    ];

    /// Stable label used in stats tables.
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::SwapStep => "swap-step",
            FaultSite::SwapLatency => "swap-latency",
            FaultSite::TranslationCorrupt => "tcache-corrupt",
            FaultSite::RetentionFlip => "retention-flip",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::SwapStep => 0,
            FaultSite::SwapLatency => 1,
            FaultSite::TranslationCorrupt => 2,
            FaultSite::RetentionFlip => 3,
        }
    }
}

/// What to inject, how often, and how hard consumers should try to recover.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Master seed; each site derives an independent stream from it.
    pub seed: u64,
    /// Probability a swap step fails and must be retried.
    pub swap_failure_rate: f64,
    /// Probability a swap pays an extra latency spike on top of the model.
    pub swap_latency_rate: f64,
    /// Size of the spike in raw ticks (applied when `swap_latency_rate`
    /// fires).
    pub swap_latency_spike_ticks: u64,
    /// Probability a translation-cache fill is corrupted.
    pub translation_corrupt_rate: f64,
    /// Probability a read from a fast-resident row observes a retention
    /// flip and must be re-read.
    pub retention_flip_rate: f64,
    /// Bounded retry budget for a failing swap before the management layer
    /// demotes (aborts) it.
    pub max_swap_attempts: u32,
    /// Bounded re-read budget for a retention flip before the access is
    /// counted fatal (served from the ECC path at full penalty).
    pub max_read_retries: u32,
}

impl FaultPlan {
    /// A plan that injects nothing. Rate-0 sites never draw from the PRNG,
    /// so this is bit-identical to running without fault injection.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            swap_failure_rate: 0.0,
            swap_latency_rate: 0.0,
            swap_latency_spike_ticks: 0,
            translation_corrupt_rate: 0.0,
            retention_flip_rate: 0.0,
            max_swap_attempts: 3,
            max_read_retries: 2,
        }
    }

    /// A plan injecting every site at the same `rate` (latency spikes are
    /// one slow-subarray row cycle, 1170 ticks).
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            swap_failure_rate: rate,
            swap_latency_rate: rate,
            swap_latency_spike_ticks: 1170,
            translation_corrupt_rate: rate,
            retention_flip_rate: rate,
            ..FaultPlan::none()
        }
    }

    /// The rate configured for `site`.
    pub fn rate(&self, site: FaultSite) -> f64 {
        match site {
            FaultSite::SwapStep => self.swap_failure_rate,
            FaultSite::SwapLatency => self.swap_latency_rate,
            FaultSite::TranslationCorrupt => self.translation_corrupt_rate,
            FaultSite::RetentionFlip => self.retention_flip_rate,
        }
    }

    /// True when no site can ever fire.
    pub fn is_inert(&self) -> bool {
        FaultSite::ALL.iter().all(|&s| self.rate(s) <= 0.0)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Outcome counters for one injection site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteCounts {
    /// Faults the injector decided to fire.
    pub injected: u64,
    /// Recovery attempts (retries/re-reads/rebuild probes).
    pub retried: u64,
    /// Faults fully masked by a recovery policy.
    pub recovered: u64,
    /// Faults that exhausted their recovery budget.
    pub fatal: u64,
}

/// Aggregate accounting across all sites plus the consistency machinery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    sites: [SiteCounts; 4],
    /// Exclusive-cache invariant sweeps that passed.
    pub invariant_checks_passed: u64,
    /// Translation-cache rebuilds triggered by a failed audit.
    pub tcache_rebuilds: u64,
}

impl FaultStats {
    /// Counters for one site.
    pub fn site(&self, site: FaultSite) -> &SiteCounts {
        &self.sites[site.index()]
    }

    /// Mutable counters for one site.
    pub fn site_mut(&mut self, site: FaultSite) -> &mut SiteCounts {
        &mut self.sites[site.index()]
    }

    /// Total faults injected across all sites.
    pub fn total_injected(&self) -> u64 {
        self.sites.iter().map(|s| s.injected).sum()
    }

    /// Total faults that exhausted recovery across all sites.
    pub fn total_fatal(&self) -> u64 {
        self.sites.iter().map(|s| s.fatal).sum()
    }

    /// Total recovered across all sites.
    pub fn total_recovered(&self) -> u64 {
        self.sites.iter().map(|s| s.recovered).sum()
    }

    /// Merge another accounting block into this one (used when a subsystem
    /// keeps local counts that are folded into the run totals).
    pub fn absorb(&mut self, other: &FaultStats) {
        for (mine, theirs) in self.sites.iter_mut().zip(other.sites.iter()) {
            mine.injected += theirs.injected;
            mine.retried += theirs.retried;
            mine.recovered += theirs.recovered;
            mine.fatal += theirs.fatal;
        }
        self.invariant_checks_passed += other.invariant_checks_passed;
        self.tcache_rebuilds += other.tcache_rebuilds;
    }
}

/// Rolls per-site dice on independent deterministic streams and accounts
/// the outcomes.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    streams: [Prng; 4],
    stats: FaultStats,
}

impl FaultInjector {
    /// Builds an injector; each site's stream is derived from the plan seed
    /// so sites are mutually independent.
    pub fn new(plan: FaultPlan) -> Self {
        let mut root = plan.seed ^ 0xfa17_5eed_0000_0000;
        let streams = core::array::from_fn(|_| Prng::new(splitmix64(&mut root)));
        FaultInjector {
            plan,
            streams,
            stats: FaultStats::default(),
        }
    }

    /// The plan this injector was built from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decides whether `site` fires now. Rate-0 sites return `false`
    /// without consuming randomness, preserving bit-identical behaviour.
    pub fn roll(&mut self, site: FaultSite) -> bool {
        let rate = self.plan.rate(site);
        if rate <= 0.0 {
            return false;
        }
        let fired = self.streams[site.index()].gen_bool(rate);
        if fired {
            self.stats.site_mut(site).injected += 1;
        }
        fired
    }

    /// Records one recovery attempt for `site`.
    pub fn note_retry(&mut self, site: FaultSite) {
        self.stats.site_mut(site).retried += 1;
    }

    /// Records a fault fully masked by recovery.
    pub fn note_recovered(&mut self, site: FaultSite) {
        self.stats.site_mut(site).recovered += 1;
    }

    /// Records a fault that exhausted its recovery budget.
    pub fn note_fatal(&mut self, site: FaultSite) {
        self.stats.site_mut(site).fatal += 1;
    }

    /// Records a passing invariant sweep.
    pub fn note_invariant_pass(&mut self) {
        self.stats.invariant_checks_passed += 1;
    }

    /// Records a translation-cache rebuild.
    pub fn note_tcache_rebuild(&mut self) {
        self.stats.tcache_rebuilds += 1;
    }

    /// The accounting so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_never_fires_and_never_draws() {
        let mut inj = FaultInjector::new(FaultPlan::none());
        let snapshot = inj.streams.clone();
        for _ in 0..10_000 {
            for site in FaultSite::ALL {
                assert!(!inj.roll(site));
            }
        }
        assert_eq!(inj.streams, snapshot, "rate-0 sites must not draw");
        assert_eq!(inj.stats().total_injected(), 0);
    }

    #[test]
    fn rates_are_honoured_per_site() {
        let mut plan = FaultPlan::none();
        plan.seed = 3;
        plan.swap_failure_rate = 0.25;
        let mut inj = FaultInjector::new(plan);
        let n = 40_000;
        let mut hits = 0u64;
        for _ in 0..n {
            if inj.roll(FaultSite::SwapStep) {
                hits += 1;
            }
            // Other sites stay silent.
            assert!(!inj.roll(FaultSite::RetentionFlip));
        }
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "frac {frac}");
        assert_eq!(inj.stats().site(FaultSite::SwapStep).injected, hits);
        assert_eq!(inj.stats().site(FaultSite::RetentionFlip).injected, 0);
    }

    #[test]
    fn sites_use_independent_streams() {
        // Enabling a second site must not change the first site's decisions.
        let mut only_swap = FaultPlan::uniform(9, 0.0);
        only_swap.swap_failure_rate = 0.1;
        let mut both = only_swap.clone();
        both.retention_flip_rate = 0.1;

        let mut a = FaultInjector::new(only_swap);
        let mut b = FaultInjector::new(both);
        for i in 0..5_000 {
            if i % 3 == 0 {
                b.roll(FaultSite::RetentionFlip);
            }
            assert_eq!(
                a.roll(FaultSite::SwapStep),
                b.roll(FaultSite::SwapStep),
                "swap stream perturbed by retention stream at step {i}"
            );
        }
    }

    #[test]
    fn same_plan_same_decisions() {
        let plan = FaultPlan::uniform(1234, 0.05);
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        for _ in 0..10_000 {
            for site in FaultSite::ALL {
                assert_eq!(a.roll(site), b.roll(site));
            }
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn outcome_accounting_adds_up() {
        let mut inj = FaultInjector::new(FaultPlan::uniform(7, 1.0));
        assert!(inj.roll(FaultSite::SwapStep));
        inj.note_retry(FaultSite::SwapStep);
        inj.note_retry(FaultSite::SwapStep);
        inj.note_recovered(FaultSite::SwapStep);
        inj.note_fatal(FaultSite::RetentionFlip);
        inj.note_invariant_pass();
        inj.note_tcache_rebuild();
        let s = inj.stats();
        assert_eq!(s.site(FaultSite::SwapStep).retried, 2);
        assert_eq!(s.site(FaultSite::SwapStep).recovered, 1);
        assert_eq!(s.site(FaultSite::RetentionFlip).fatal, 1);
        assert_eq!(s.invariant_checks_passed, 1);
        assert_eq!(s.tcache_rebuilds, 1);
        assert_eq!(s.total_fatal(), 1);
        assert_eq!(s.total_recovered(), 1);

        let mut agg = FaultStats::default();
        agg.absorb(s);
        agg.absorb(s);
        assert_eq!(agg.site(FaultSite::SwapStep).retried, 4);
        assert_eq!(agg.invariant_checks_passed, 2);
    }

    #[test]
    fn uniform_and_inert_helpers() {
        assert!(FaultPlan::none().is_inert());
        assert!(FaultPlan::default().is_inert());
        let p = FaultPlan::uniform(5, 0.01);
        assert!(!p.is_inert());
        for site in FaultSite::ALL {
            assert_eq!(p.rate(site), 0.01);
            assert!(!site.label().is_empty());
        }
    }
}
