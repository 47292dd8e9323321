//! Full-system configuration (Table 1) with the scaling mechanism described
//! in `DESIGN.md`.
//!
//! The paper simulates 100 M/400 M instructions against 8 GB of DRAM and a
//! 4 MB LLC. To keep the whole figure suite regenerable in minutes, the
//! default configuration divides every *capacity* (DRAM, LLC, workload
//! footprints, translation cache) by a common `scale` factor (default 8)
//! while leaving all *latencies* untouched — the capacity ratios that drive
//! the paper's results (footprint : fast level : LLC) are preserved.

use das_backends::{backend, BackendKind, DramBackend, FastLevelManagement};
use das_cache::hierarchy::HierarchyConfig;
use das_core::management::ManagementConfig;
use das_core::replacement::ReplacementPolicy;
use das_cpu::core::CoreConfig;
use das_dram::geometry::{Arrangement, BankLayout, DramGeometry, FastRatio};
use das_dram::tick::Tick;
use das_memctrl::controller::{ControllerConfig, SchedulerKind};
use das_telemetry::TelemetryConfig;

/// The five DRAM designs compared in §7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// Traditional homogeneous DRAM (the baseline everything is measured
    /// against).
    Standard,
    /// Static Asymmetric-Subarray DRAM: profiled pre-placement, no
    /// migration.
    SasDram,
    /// SAS-DRAM with an optimised fast-region column path.
    Charm,
    /// The paper's proposal: dynamic management with lightweight migration.
    DasDram,
    /// DAS-DRAM with free (zero-latency) migration — the overhead probe.
    DasDramFm,
    /// Homogeneous fast-subarray DRAM — the latency upper bound.
    FsDram,
    /// The §5 inclusive-cache management alternative: fast subarrays cache
    /// the slow level (capacity lost to duplication, copy-based fills).
    DasInclusive,
    /// TL-DRAM (§3.1): segmented bitlines — near segments cache the far
    /// segments of their own subarray; the far segment pays the isolation-
    /// transistor restore penalty, and the area overhead is ~24 %.
    TlDram,
    /// CLR-DRAM (ISCA 2020): rows morph in place into a coupled
    /// low-latency mode; the partner row's capacity is lost.
    ClrDram,
    /// LISA (HPCA 2016): the asymmetric device with linked subarrays —
    /// row swaps cost a third of the migration-cell path.
    Lisa,
    /// SALP (ISCA 2012): commodity timings with subarray-level
    /// parallelism only — no fast level.
    Salp,
}

impl Design {
    /// All designs in the paper's presentation order.
    pub fn all() -> [Design; 6] {
        [
            Design::Standard,
            Design::SasDram,
            Design::Charm,
            Design::DasDram,
            Design::DasDramFm,
            Design::FsDram,
        ]
    }

    /// The six backend architectures of the cross-architecture family, in
    /// catalog order (baseline first).
    pub fn backends() -> [Design; 6] {
        [
            Design::Standard,
            Design::DasDram,
            Design::TlDram,
            Design::ClrDram,
            Design::Lisa,
            Design::Salp,
        ]
    }

    /// The `das-backends` kind this design corresponds to, if any. The
    /// paper's intermediate probes (SAS/CHARM/FM/FS/inclusive-DAS) are not
    /// standalone architectures and keep their bespoke timing paths.
    pub fn backend_kind(self) -> Option<BackendKind> {
        match self {
            Design::Standard => Some(BackendKind::Ddr3Baseline),
            Design::DasDram => Some(BackendKind::Das),
            Design::TlDram => Some(BackendKind::TlDram),
            Design::ClrDram => Some(BackendKind::ClrDram),
            Design::Lisa => Some(BackendKind::Lisa),
            Design::Salp => Some(BackendKind::Salp),
            _ => None,
        }
    }

    /// The backend implementation behind this design, if it has one.
    pub fn backend(self) -> Option<&'static dyn DramBackend> {
        self.backend_kind().map(backend)
    }

    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            Design::Standard => "Std-DRAM",
            Design::SasDram => "SAS-DRAM",
            Design::Charm => "CHARM",
            Design::DasDram => "DAS-DRAM",
            Design::DasDramFm => "DAS-DRAM (FM)",
            Design::FsDram => "FS-DRAM",
            Design::DasInclusive => "DAS-incl",
            Design::TlDram => "TL-DRAM",
            Design::ClrDram => "CLR-DRAM",
            Design::Lisa => "LISA",
            Design::Salp => "SALP",
        }
    }

    /// The device timing set for this design. Backend designs take their
    /// latency classes and copy costs from the `das-backends` registry; the
    /// paper's probe designs keep their bespoke sets.
    pub fn timing(self) -> das_dram::timing::TimingSet {
        use das_dram::timing::TimingSet;
        if let Some(b) = self.backend() {
            // The per-level refresh hook is applied here so a backend whose
            // fast level refreshes on its own cadence reaches the channel's
            // rank schedules; the default derives from `timing()` itself,
            // leaving stock backends bit-identical.
            let mut t = b.timing();
            b.refresh().apply(&mut t);
            return t;
        }
        match self {
            Design::SasDram => TimingSet::asymmetric(),
            Design::Charm => TimingSet::charm(),
            Design::DasDramFm => TimingSet::asymmetric_free_migration(),
            Design::FsDram => TimingSet::homogeneous_fast(),
            Design::DasInclusive => TimingSet::asymmetric(),
            _ => unreachable!("backend designs handled above"),
        }
    }

    /// Whether the design manages an asymmetric fast level at all.
    pub fn is_asymmetric(self) -> bool {
        match self.backend() {
            Some(b) => !matches!(b.management(), FastLevelManagement::None),
            None => !matches!(self, Design::FsDram),
        }
    }

    /// Whether the design migrates rows dynamically.
    pub fn is_dynamic(self) -> bool {
        match self.backend() {
            Some(b) => !matches!(b.management(), FastLevelManagement::None),
            None => matches!(self, Design::DasDramFm | Design::DasInclusive),
        }
    }

    /// Whether the design manages the fast level as an inclusive cache.
    pub fn is_inclusive(self) -> bool {
        match self.backend() {
            Some(b) => matches!(b.management(), FastLevelManagement::Inclusive),
            None => matches!(self, Design::DasInclusive),
        }
    }

    /// Usable data rows per bank when the architecture trades capacity for
    /// latency (CLR-DRAM); `None` means full capacity.
    pub fn usable_rows_per_bank(self, layout: &BankLayout) -> Option<u64> {
        self.backend().and_then(|b| b.usable_rows(layout))
    }

    /// Adjusts a configuration for designs with non-Table-1 organisations
    /// (e.g. TL-DRAM's 128-row near / 384-row far segments at ratio 1/4),
    /// applying the backend's placement spec where one exists.
    pub fn apply_overrides(self, cfg: &mut SystemConfig) {
        let Some(b) = self.backend() else { return };
        let p = b.placement();
        if let Some(r) = p.fast_ratio {
            cfg.management.fast_ratio = r;
        }
        if let Some(g) = p.group_size {
            cfg.management.group_size = g;
        }
        if let Some(a) = p.arrangement {
            cfg.arrangement = a;
        }
        if let Some(s) = p.slow_subarray_rows {
            cfg.slow_subarray_rows = s;
        }
        if p.salp {
            cfg.salp = true;
        }
    }

    /// Whether the design needs a profiling pre-pass (static placement).
    pub fn needs_profile(self) -> bool {
        matches!(self, Design::SasDram | Design::Charm)
    }
}

/// Complete system configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Capacity scale factor relative to the paper's Table 1 (see module
    /// docs). 1 = full scale.
    pub scale: u32,
    /// DRAM organisation.
    pub geometry: DramGeometry,
    /// Cache hierarchy shape.
    pub hierarchy: HierarchyConfig,
    /// Core shape.
    pub core: CoreConfig,
    /// Memory-controller shape.
    pub controller: ControllerConfig,
    /// Management mechanism configuration (group size, ratio, tcache,
    /// threshold, replacement). `tcache_bytes` here is the **full-scale**
    /// value; it is divided by `scale` when the manager is built.
    pub management: ManagementConfig,
    /// Physical arrangement of fast subarrays.
    pub arrangement: Arrangement,
    /// Rows per fast subarray (128 in the paper).
    pub fast_subarray_rows: u32,
    /// Rows per slow subarray (512 in the paper; 384 for TL-DRAM far
    /// segments so each [near, far] pair tiles one 512-row subarray).
    pub slow_subarray_rows: u32,
    /// Instructions each core executes.
    pub inst_budget: u64,
    /// Fraction of instructions treated as warm-up (paper: 0.2).
    pub warmup_frac: f64,
    /// Horizon multiplier for the SAS/CHARM profiling pre-pass: the static
    /// profile covers `profile_multiplier x inst_budget` instructions. The
    /// paper profiles whole workloads, far longer than the measured
    /// episode, which is why static placement cannot track phases.
    pub profile_multiplier: u64,
    /// Fraction of pages whose physical frames differ between the profiling
    /// execution and the measured run (OS reallocation across executions);
    /// limits how well the static designs' pre-placement can perform.
    pub profile_realloc: f64,
    /// Whether write-backs count as slow-level hits for the promotion
    /// trigger (§5.3's "every hit on the slow level" is read as demand
    /// hits; write-back-triggered promotions only churn streams).
    pub promote_on_writes: bool,
    /// Overrides the design's device timing set (used by the migration
    /// ablation to study naive 3x1.5 tRC swaps, untightened 2 tRC
    /// migrations, or hop-dependent costs).
    pub timing_override: Option<das_dram::timing::TimingSet>,
    /// Enable refresh modelling.
    pub refresh: bool,
    /// Subarray-level parallelism (one local row buffer per subarray —
    /// the SALP composition of §8). Off in the paper's evaluation.
    pub salp: bool,
    /// Master seed (workloads, replacement randomness).
    pub seed: u64,
    /// Deterministic fault-injection plan (see `das-faults`). The default
    /// (`FaultPlan::none()`) injects nothing and draws nothing, leaving
    /// fault-free runs bit-identical to a build without the fault layer.
    pub faults: das_faults::FaultPlan,
    /// Run the management-layer consistency checker (exclusive-cache
    /// invariant + translation-cache/device agreement) every this many
    /// events; 0 disables periodic checking. A failed check triggers a
    /// translation-cache rebuild; an unrecoverable one ends the run with
    /// [`crate::system::SimError::BrokenInvariant`].
    pub invariant_check_events: u64,
    /// Telemetry sink configuration (latency histograms, epoch time-series,
    /// event trace). The default is off, which leaves the run bit-identical
    /// to a build without the telemetry layer.
    pub telemetry: TelemetryConfig,
    /// Event budget after which a run is declared runaway
    /// ([`crate::system::SimError::EventBudgetExceeded`]). The default
    /// covers the paper's figure suite; long harness sweeps and stress
    /// manifests raise it per run instead of recompiling.
    pub event_budget: u64,
    /// Same-tick controller wakes tolerated before the watchdog declares
    /// the event loop stalled ([`crate::system::SimError::Stalled`]).
    pub watchdog_same_tick_wakes: u32,
    /// Online migration policy installed into the exclusive-cache manager
    /// (see `das-policy`). `None` — the default — runs the paper's fixed
    /// promote-at-threshold path, byte-identical to a build without the
    /// policy layer; `Some(PaperFixed)` makes the same decisions through
    /// the policy trait (locked by `tests/policy_identity.rs`). Only
    /// meaningful for designs with dynamic exclusive management.
    pub policy: Option<das_policy::PolicyKind>,
}

impl SystemConfig {
    /// The paper's Table 1 system at full scale.
    pub fn paper_full() -> Self {
        SystemConfig {
            scale: 1,
            geometry: DramGeometry::paper_full(),
            hierarchy: HierarchyConfig::paper_default(),
            core: CoreConfig::paper_default(),
            controller: ControllerConfig::paper_default(),
            management: ManagementConfig::paper_default(),
            arrangement: Arrangement::ReducedInterleaving,
            fast_subarray_rows: 128,
            slow_subarray_rows: 512,
            inst_budget: 100_000_000,
            warmup_frac: 0.2,
            profile_multiplier: 4,
            profile_realloc: 0.7,
            promote_on_writes: false,
            timing_override: None,
            refresh: true,
            salp: false,
            seed: 42,
            faults: das_faults::FaultPlan::none(),
            invariant_check_events: 0,
            telemetry: TelemetryConfig::default(),
            event_budget: crate::system::DEFAULT_EVENT_BUDGET,
            watchdog_same_tick_wakes: crate::system::DEFAULT_WATCHDOG_SAME_TICK_WAKES,
            policy: None,
        }
    }

    /// The default experiment configuration: capacities scaled by 64,
    /// 3 M instructions per core. The uniform factor keeps every capacity
    /// ratio of the paper (footprint : fast level : LLC) while making the
    /// episode-length-to-footprint ratio (~3 insts/byte for libquantum)
    /// match the paper's 100 M-instruction runs, so temporal row reuse —
    /// the effect DAS exploits — appears at the paper's rates.
    pub fn paper_scaled() -> Self {
        Self::scaled_by(64, 3_000_000)
    }

    /// A smaller configuration for unit/integration tests.
    pub fn test_small() -> Self {
        let mut c = Self::scaled_by(64, 400_000);
        c.refresh = false;
        c
    }

    /// Scales every capacity of the paper system by `factor` and sets the
    /// per-core instruction budget.
    pub fn scaled_by(factor: u32, inst_budget: u64) -> Self {
        let mut c = Self::paper_full();
        c.scale = factor;
        c.geometry = DramGeometry::paper_scaled(factor);
        c.hierarchy = HierarchyConfig::paper_scaled(factor as u64);
        c.inst_budget = inst_budget;
        c
    }

    /// The effective (scaled) translation cache capacity in bytes.
    pub fn scaled_tcache_bytes(&self) -> u64 {
        (self.management.tcache_bytes / self.scale as u64).max(self.management.tcache_ways as u64)
    }

    /// Builds the per-bank layout for an asymmetric design.
    pub fn bank_layout(&self) -> BankLayout {
        BankLayout::build(
            self.geometry.rows_per_bank,
            self.management.fast_ratio,
            self.arrangement,
            self.fast_subarray_rows,
            self.slow_subarray_rows,
        )
    }

    /// A homogeneous (all one kind) layout for Standard/FS designs, built
    /// as "all slow" — the timing set decides the actual speed.
    pub fn homogeneous_layout(&self) -> BankLayout {
        // The same layout machinery; a homogeneous TimingSet makes fast ==
        // slow, so the nominal classification is inert.
        self.bank_layout()
    }

    /// Instructions after which measurement starts.
    pub fn warmup_insts(&self) -> u64 {
        (self.inst_budget as f64 * self.warmup_frac) as u64
    }

    /// Management configuration with the scaled translation cache.
    pub fn scaled_management(&self, static_mapping: bool) -> ManagementConfig {
        ManagementConfig {
            tcache_bytes: self.scaled_tcache_bytes(),
            static_mapping,
            seed: self.seed,
            ..self.management
        }
    }

    /// Convenience: install an online migration policy.
    pub fn with_policy(mut self, kind: das_policy::PolicyKind) -> Self {
        self.policy = Some(kind);
        self
    }

    /// Convenience: set the replacement policy.
    pub fn with_replacement(mut self, p: ReplacementPolicy) -> Self {
        self.management.replacement = p;
        self
    }

    /// Convenience: set the fast-level ratio.
    pub fn with_fast_ratio(mut self, r: FastRatio) -> Self {
        self.management.fast_ratio = r;
        self
    }

    /// Convenience: set the promotion threshold.
    pub fn with_threshold(mut self, t: u32) -> Self {
        self.management.promotion_threshold = t;
        self
    }

    /// Convenience: set the migration group size.
    pub fn with_group_size(mut self, g: u32) -> Self {
        self.management.group_size = g;
        self
    }

    /// Convenience: set the full-scale translation-cache capacity.
    pub fn with_tcache_bytes(mut self, b: u64) -> Self {
        self.management.tcache_bytes = b;
        self
    }

    /// Convenience: set the scheduler kind.
    pub fn with_scheduler(mut self, s: SchedulerKind) -> Self {
        self.controller.scheduler = s;
        self
    }

    /// Convenience: set the fault-injection plan.
    pub fn with_faults(mut self, plan: das_faults::FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Convenience: run the consistency checker every `n` events (0 = off).
    pub fn with_invariant_checks(mut self, n: u64) -> Self {
        self.invariant_check_events = n;
        self
    }

    /// Convenience: set the telemetry sink configuration.
    pub fn with_telemetry(mut self, t: TelemetryConfig) -> Self {
        self.telemetry = t;
        self
    }

    /// Convenience: set the runaway-event budget.
    pub fn with_event_budget(mut self, events: u64) -> Self {
        self.event_budget = events;
        self
    }

    /// Convenience: set the same-tick-wake watchdog threshold.
    pub fn with_watchdog_wakes(mut self, wakes: u32) -> Self {
        self.watchdog_same_tick_wakes = wakes;
        self
    }

    /// Ticks per CPU cycle under this configuration.
    pub fn ticks_per_cycle(&self) -> u64 {
        self.core.ticks_per_cycle
    }

    /// Converts CPU cycles to ticks.
    pub fn cycles_to_ticks(&self, cycles: u64) -> Tick {
        Tick::new(cycles * self.core.ticks_per_cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_full_matches_table1() {
        let c = SystemConfig::paper_full();
        assert_eq!(c.geometry.total_bytes(), 8 << 30);
        assert_eq!(c.hierarchy.llc_bytes, 4 << 20);
        assert_eq!(c.core.rob_entries, 192);
        assert_eq!(c.controller.read_queue, 32);
        assert_eq!(c.management.group_size, 32);
        assert_eq!(c.management.tcache_bytes, 128 << 10);
        assert_eq!(c.inst_budget, 100_000_000);
    }

    #[test]
    fn scaling_preserves_ratios() {
        let c = SystemConfig::paper_scaled();
        assert_eq!(c.scale, 64);
        assert_eq!(c.geometry.total_bytes(), 128 << 20);
        assert_eq!(c.hierarchy.llc_bytes, 64 << 10);
        // tcache still covers the whole fast level after scaling:
        // 128 MB / 8 KB rows / 8 = 2 Ki fast rows; 128 KB / 64 = 2 KiB.
        assert_eq!(c.scaled_tcache_bytes(), 2 << 10);
        let fast_rows = c.geometry.total_rows() / 8;
        assert_eq!(c.scaled_tcache_bytes(), fast_rows);
    }

    #[test]
    fn design_properties() {
        assert!(!Design::Standard.is_asymmetric());
        assert!(Design::SasDram.is_asymmetric() && !Design::SasDram.is_dynamic());
        assert!(Design::Charm.needs_profile());
        assert!(Design::DasDram.is_dynamic() && !Design::DasDram.needs_profile());
        assert!(Design::DasDramFm.timing().swap == Tick::ZERO);
        assert_eq!(Design::all().len(), 6);
        assert_eq!(Design::DasDram.label(), "DAS-DRAM");
    }

    #[test]
    fn backend_designs_delegate_to_the_registry() {
        use das_dram::timing::TimingSet;
        assert_eq!(Design::backends().len(), 6);
        assert_eq!(Design::backends()[0], Design::Standard);
        // The refactor lock: backend-backed designs produce the exact
        // timing sets the hard-wired match used to.
        assert_eq!(Design::Standard.timing(), TimingSet::homogeneous_slow());
        assert_eq!(Design::DasDram.timing(), TimingSet::asymmetric());
        assert_eq!(Design::TlDram.timing(), TimingSet::tl_dram());
        assert_eq!(Design::ClrDram.timing(), TimingSet::clr_dram());
        assert_eq!(Design::Lisa.timing(), TimingSet::lisa());
        assert_eq!(Design::Salp.timing(), TimingSet::homogeneous_slow());
        // Probe designs have no backend.
        for d in [
            Design::SasDram,
            Design::Charm,
            Design::DasDramFm,
            Design::FsDram,
            Design::DasInclusive,
        ] {
            assert!(d.backend_kind().is_none());
        }
        // Management classification.
        assert!(Design::Lisa.is_asymmetric() && Design::Lisa.is_dynamic());
        assert!(Design::ClrDram.is_dynamic() && !Design::ClrDram.is_inclusive());
        assert!(!Design::Salp.is_asymmetric() && !Design::Salp.is_dynamic());
        assert!(Design::TlDram.is_inclusive());
        for d in Design::backends() {
            assert!(!d.needs_profile());
        }
    }

    #[test]
    fn overrides_follow_backend_placement() {
        let mut cfg = SystemConfig::test_small();
        Design::Salp.apply_overrides(&mut cfg);
        assert!(cfg.salp);
        assert_eq!(cfg.management.fast_ratio, FastRatio::PAPER_DEFAULT);
        let mut cfg = SystemConfig::test_small();
        Design::TlDram.apply_overrides(&mut cfg);
        assert_eq!(cfg.management.fast_ratio, FastRatio::new(1, 4));
        assert_eq!(cfg.management.group_size, 64);
        assert_eq!(cfg.arrangement, Arrangement::Interleaving);
        assert_eq!(cfg.slow_subarray_rows, 384);
        // CLR and LISA leave the geometry free for sweeps.
        let before = SystemConfig::test_small();
        let mut cfg = SystemConfig::test_small();
        Design::ClrDram.apply_overrides(&mut cfg);
        Design::Lisa.apply_overrides(&mut cfg);
        assert_eq!(cfg.management.fast_ratio, before.management.fast_ratio);
        assert!(!cfg.salp);
    }

    #[test]
    fn clr_capacity_loss_is_the_fast_share() {
        let cfg = SystemConfig::test_small();
        let layout = cfg.bank_layout();
        let usable = Design::ClrDram.usable_rows_per_bank(&layout).unwrap();
        assert_eq!(usable, layout.slow_rows() as u64);
        assert!(Design::DasDram.usable_rows_per_bank(&layout).is_none());
        assert!(Design::Standard.usable_rows_per_bank(&layout).is_none());
    }

    #[test]
    fn watchdog_and_event_budget_are_configurable() {
        let c = SystemConfig::paper_full();
        assert_eq!(c.event_budget, crate::system::DEFAULT_EVENT_BUDGET);
        assert_eq!(
            c.watchdog_same_tick_wakes,
            crate::system::DEFAULT_WATCHDOG_SAME_TICK_WAKES
        );
        let raised = c.with_event_budget(500_000_000).with_watchdog_wakes(50_000);
        assert_eq!(raised.event_budget, 500_000_000);
        assert_eq!(raised.watchdog_same_tick_wakes, 50_000);
    }

    #[test]
    fn layouts_build_for_all_sweeps() {
        for den in [4u32, 8, 16, 32] {
            let c = SystemConfig::test_small().with_fast_ratio(FastRatio::new(1, den));
            let l = c.bank_layout();
            assert_eq!(l.fast_rows(), c.geometry.rows_per_bank / den);
        }
    }
}
