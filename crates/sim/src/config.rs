//! Full-system configuration (Table 1) with the scaling mechanism described
//! in `DESIGN.md`.
//!
//! The paper simulates 100 M/400 M instructions against 8 GB of DRAM and a
//! 4 MB LLC. To keep the whole figure suite regenerable in minutes, the
//! default configuration divides every *capacity* (DRAM, LLC, workload
//! footprints, translation cache) by a common `scale` factor (64 in
//! [`SystemConfig::paper_scaled`]) while leaving all *latencies*
//! untouched — the capacity ratios that drive the paper's results
//! (footprint : fast level : LLC) are preserved.

use das_backends::{FastLevelManagement, PlacementSpec};
use das_cache::hierarchy::HierarchyConfig;
use das_core::management::ManagementConfig;
use das_core::replacement::ReplacementPolicy;
use das_cpu::core::CoreConfig;
use das_dram::area::{
    asymmetric_overhead, stripe_overhead, tl_dram_overhead, CLR_DRIVER_ROWS, LISA_LINK_ROWS,
    SALP_LATCH_ROWS, SLOW_PER_FAST,
};
use das_dram::geometry::{Arrangement, BankLayout, DramGeometry, FastRatio};
use das_dram::tick::Tick;
use das_dram::timing::TimingSet;
use das_memctrl::controller::ControllerConfig;
use das_telemetry::TelemetryConfig;

/// The default episode's capacity scale factor (see the module docs).
pub const DEFAULT_SCALE: u32 = 64;
/// The default episode's per-core instruction budget.
pub const DEFAULT_INSTS: u64 = 3_000_000;
/// The default episode's master seed (workloads, replacement randomness).
pub const DEFAULT_SEED: u64 = 42;

/// The DRAM designs the simulator compares: the paper's §7 designs plus
/// the rival low-latency architectures. Each design's facts live in one
/// entry of the design table (`Design::entry`); every method reads them
/// from there.
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

/// How many rows of a bank store data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Capacity {
    /// Every row.
    Full,
    /// Only the slow rows: every morphed (fast-class) row couples with a
    /// neighbour whose capacity is lost (CLR-DRAM).
    SlowRowsOnly,
}

/// One row of the design table.
struct DesignEntry {
    /// Stable machine key (manifests, job ids, the `das` CLI).
    key: &'static str,
    /// Label matching the paper's legends.
    label: &'static str,
    /// Latency classes and inter-row copy costs.
    timing: fn() -> TimingSet,
    /// How rows move (or don't) between latency levels.
    fast_level: FastLevelManagement,
    /// Geometry the design pins down.
    placement: PlacementSpec,
    /// Usable capacity.
    capacity: Capacity,
    /// Die-area overhead versus commodity DRAM, where a model exists.
    area: Option<fn() -> f64>,
}

impl DesignEntry {
    /// An entry with full capacity and no placement constraints.
    fn new(
        key: &'static str,
        label: &'static str,
        timing: fn() -> TimingSet,
        fast_level: FastLevelManagement,
        area: Option<fn() -> f64>,
    ) -> Self {
        DesignEntry {
            key,
            label,
            timing,
            fast_level,
            placement: PlacementSpec::default(),
            capacity: Capacity::Full,
            area,
        }
    }
}

impl Design {
    /// The design table: this design's facts.
    fn entry(self) -> DesignEntry {
        use FastLevelManagement as F;
        match self {
            Design::Standard => DesignEntry::new(
                "std",
                "Std-DRAM",
                TimingSet::homogeneous_slow,
                F::None,
                Some(|| 0.0),
            ),
            Design::SasDram => {
                DesignEntry::new("sas", "SAS-DRAM", TimingSet::asymmetric, F::Static, None)
            }
            Design::Charm => DesignEntry::new("charm", "CHARM", TimingSet::charm, F::Static, None),
            Design::DasDram => DesignEntry::new(
                "das",
                "DAS-DRAM",
                TimingSet::asymmetric,
                F::Exclusive,
                Some(|| asymmetric_overhead(SLOW_PER_FAST)),
            ),
            Design::DasDramFm => DesignEntry::new(
                "das_fm",
                "DAS-DRAM (FM)",
                TimingSet::asymmetric_free_migration,
                F::Exclusive,
                None,
            ),
            Design::FsDram => {
                DesignEntry::new("fs", "FS-DRAM", TimingSet::homogeneous_fast, F::None, None)
            }
            Design::DasInclusive => DesignEntry::new(
                "das_incl",
                "DAS-incl",
                TimingSet::asymmetric,
                F::Inclusive,
                None,
            ),
            // 128-row near / 384-row far segments at ratio 1/4.
            Design::TlDram => DesignEntry {
                placement: PlacementSpec {
                    fast_ratio: Some(FastRatio::new(1, 4)),
                    group_size: Some(64),
                    arrangement: Some(Arrangement::Interleaving),
                    slow_subarray_rows: Some(384),
                    salp: false,
                },
                ..DesignEntry::new(
                    "tl",
                    "TL-DRAM",
                    TimingSet::tl_dram,
                    F::Inclusive,
                    Some(tl_dram_overhead),
                )
            },
            Design::ClrDram => DesignEntry {
                capacity: Capacity::SlowRowsOnly,
                ..DesignEntry::new(
                    "clr",
                    "CLR-DRAM",
                    TimingSet::clr_dram,
                    F::Exclusive,
                    Some(|| stripe_overhead(CLR_DRIVER_ROWS)),
                )
            },
            Design::Lisa => DesignEntry::new(
                "lisa",
                "LISA",
                TimingSet::lisa,
                F::Exclusive,
                Some(|| stripe_overhead(LISA_LINK_ROWS)),
            ),
            Design::Salp => DesignEntry {
                placement: PlacementSpec {
                    salp: true,
                    ..PlacementSpec::default()
                },
                ..DesignEntry::new(
                    "salp",
                    "SALP",
                    TimingSet::homogeneous_slow,
                    F::None,
                    Some(|| stripe_overhead(SALP_LATCH_ROWS)),
                )
            },
        }
    }

    /// Every design, in declaration order.
    pub fn every() -> [Design; 11] {
        [
            Design::Standard,
            Design::SasDram,
            Design::Charm,
            Design::DasDram,
            Design::DasDramFm,
            Design::FsDram,
            Design::DasInclusive,
            Design::TlDram,
            Design::ClrDram,
            Design::Lisa,
            Design::Salp,
        ]
    }

    /// Stable machine key: `std`, `sas`, `charm`, `das`, `das_fm`, `fs`,
    /// `das_incl`, `tl`, `clr`, `lisa` or `salp`.
    pub fn key(self) -> &'static str {
        self.entry().key
    }

    /// Parses a key produced by [`Design::key`].
    pub fn parse(key: &str) -> Option<Design> {
        Design::every().into_iter().find(|d| d.key() == key)
    }

    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        self.entry().label
    }

    /// The device timing set: latency classes plus inter-row copy costs.
    pub fn timing(self) -> TimingSet {
        (self.entry().timing)()
    }

    /// Whether the design manages an asymmetric fast level at all.
    pub fn is_asymmetric(self) -> bool {
        self.entry().fast_level != FastLevelManagement::None
    }

    /// Whether the design migrates rows dynamically.
    pub fn is_dynamic(self) -> bool {
        matches!(
            self.entry().fast_level,
            FastLevelManagement::Exclusive | FastLevelManagement::Inclusive
        )
    }

    /// Whether the design manages the fast level as an inclusive cache.
    pub fn is_inclusive(self) -> bool {
        self.entry().fast_level == FastLevelManagement::Inclusive
    }

    /// Whether the design takes a migration policy other than the default
    /// `PaperFixed`: only dynamic exclusive management does.
    pub fn takes_policy(self) -> bool {
        self.entry().fast_level == FastLevelManagement::Exclusive
    }

    /// Whether the design needs a profiling pre-pass (static placement).
    pub fn needs_profile(self) -> bool {
        self.entry().fast_level == FastLevelManagement::Static
    }

    /// Usable data rows per bank when the architecture trades capacity for
    /// latency (CLR-DRAM); `None` means full capacity. (Inclusive caching
    /// losses are accounted by the management layer.)
    pub fn usable_rows_per_bank(self, layout: &BankLayout) -> Option<u64> {
        match self.entry().capacity {
            Capacity::Full => None,
            Capacity::SlowRowsOnly => Some(layout.slow_rows() as u64),
        }
    }

    /// Fractional die-area overhead versus commodity DRAM of the same
    /// nominal capacity (`dram::area` models); `None` for the paper's
    /// probe designs, which have no area model.
    pub fn area_overhead(self) -> Option<f64> {
        self.entry().area.map(|model| model())
    }

    /// Adjusts a configuration for designs with non-Table-1 organisations
    /// (TL-DRAM's segment geometry, SALP's per-subarray row buffers).
    pub fn apply_overrides(self, cfg: &mut SystemConfig) {
        let p = self.entry().placement;
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
    /// Online migration policy (see `das-policy`). Every manager promotes
    /// through the policy trait and runs `PaperFixed` unless told
    /// otherwise. `Some(kind)` installs `kind` in designs that take a
    /// policy ([`Design::takes_policy`]: dynamic exclusive management)
    /// and adds the report's policy block; other designs ignore it.
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
            timing_override: None,
            refresh: true,
            salp: false,
            seed: DEFAULT_SEED,
            telemetry: TelemetryConfig::default(),
            event_budget: crate::system::DEFAULT_EVENT_BUDGET,
            watchdog_same_tick_wakes: crate::system::DEFAULT_WATCHDOG_SAME_TICK_WAKES,
            policy: None,
        }
    }

    /// The default experiment configuration: the default episode, capacities
    /// scaled by [`DEFAULT_SCALE`] (64) and [`DEFAULT_INSTS`] (3 M)
    /// instructions per core. The uniform factor keeps every capacity
    /// ratio of the paper (footprint : fast level : LLC) while making the
    /// episode-length-to-footprint ratio (~3 insts/byte for libquantum)
    /// match the paper's 100 M-instruction runs, so temporal row reuse —
    /// the effect DAS exploits — appears at the paper's rates.
    pub fn paper_scaled() -> Self {
        Self::scaled_by(DEFAULT_SCALE, DEFAULT_INSTS)
    }

    /// A smaller configuration for unit/integration tests.
    pub fn test_small() -> Self {
        let mut c = Self::scaled_by(DEFAULT_SCALE, 400_000);
        c.refresh = false;
        c
    }

    /// Checks the values a run asks for before a configuration is built
    /// from them: the capacity scale, migration group size and fast-level
    /// share `1/ratio_den` against what [`DramGeometry::paper_scaled`], the
    /// scaled LLC, [`FastRatio`] and `BankGroups` assert (for the values
    /// asked for and for `design`'s own placement overrides), and the
    /// promotion threshold against what `PromotionFilter` asserts, so an
    /// out-of-range input is an error instead of a panic.
    ///
    /// # Errors
    ///
    /// Names the first value out of range.
    pub fn check_inputs(
        design: Design,
        scale: u32,
        group_size: u32,
        ratio_den: u32,
        threshold: u32,
    ) -> Result<(), String> {
        if threshold == 0 {
            return Err("promotion threshold 0 is not at least 1".to_string());
        }
        let full_rows = DramGeometry::paper_full().rows_per_bank;
        if scale == 0 || !full_rows.is_multiple_of(scale) {
            return Err(format!(
                "scale {scale} does not divide the {full_rows} rows of a bank"
            ));
        }
        let llc = HierarchyConfig::paper_default();
        let llc_set = llc.llc_ways as u64 * llc.line_bytes;
        if llc.llc_bytes / u64::from(scale) < llc_set {
            return Err(format!(
                "scale {scale} leaves the LLC less than one {llc_set}-byte set"
            ));
        }
        if ratio_den < 2 {
            return Err(format!("fast ratio 1/{ratio_den} is not 1/N with N >= 2"));
        }
        let rows = full_rows / scale;
        let asked = (group_size, FastRatio::new(1, ratio_den));
        let p = design.entry().placement;
        let placed = (
            p.group_size.unwrap_or(asked.0),
            p.fast_ratio.unwrap_or(asked.1),
        );
        for (group, ratio) in [asked, placed] {
            if !(1..=256).contains(&group) || !rows.is_multiple_of(group) {
                return Err(format!(
                    "group size {group} is not 1..=256 rows dividing the {rows} rows of a bank \
                     at scale {scale}"
                ));
            }
            if !(group * ratio.num()).is_multiple_of(ratio.den()) {
                return Err(format!(
                    "fast ratio {ratio} does not split a group of {group} rows into fast and \
                     slow slots"
                ));
            }
        }
        Ok(())
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
    fn keys_round_trip_and_families_are_ordered() {
        for d in Design::every() {
            assert_eq!(Design::parse(d.key()), Some(d));
        }
        assert_eq!(Design::parse("ddr4"), None);
        assert_eq!(Design::parse("das-fm"), None, "one spelling per design");
        assert_eq!(Design::DasDram.label(), "DAS-DRAM");
        assert_eq!(Design::every()[0], Design::Standard);
    }

    #[test]
    fn copy_costs_and_area_rank_the_architectures() {
        let swap = |d: Design| d.timing().swap;
        assert!(swap(Design::Lisa) < swap(Design::ClrDram));
        assert!(swap(Design::ClrDram) < swap(Design::DasDram));
        assert!(swap(Design::Lisa) > Tick::ZERO);
        assert_eq!(swap(Design::DasDramFm), Tick::ZERO);
        let area = |d: Design| d.area_overhead().expect("architecture has an area model");
        assert!(area(Design::TlDram) > area(Design::DasDram));
        assert!(area(Design::DasDram) > area(Design::Lisa));
        assert!(area(Design::Lisa) > area(Design::Salp));
        assert!(area(Design::Salp) > area(Design::ClrDram));
        assert!(area(Design::ClrDram) > 0.0);
        for d in [Design::Standard, Design::Salp] {
            assert!(!d.timing().supports_migration(), "{d:?} never migrates");
        }
    }

    /// Every design's facts, pinned value by value: timing set, fast-level
    /// predicates, placement overrides, usable capacity and area.
    #[test]
    fn every_design_keeps_its_facts() {
        let das_area = Some(asymmetric_overhead(SLOW_PER_FAST));
        // (design, timing, asymmetric, dynamic, inclusive, needs profile, area)
        let table = [
            (
                Design::Standard,
                TimingSet::homogeneous_slow(),
                false,
                false,
                false,
                false,
                Some(0.0),
            ),
            (
                Design::SasDram,
                TimingSet::asymmetric(),
                true,
                false,
                false,
                true,
                None,
            ),
            (
                Design::Charm,
                TimingSet::charm(),
                true,
                false,
                false,
                true,
                None,
            ),
            (
                Design::DasDram,
                TimingSet::asymmetric(),
                true,
                true,
                false,
                false,
                das_area,
            ),
            (
                Design::DasDramFm,
                TimingSet::asymmetric_free_migration(),
                true,
                true,
                false,
                false,
                None,
            ),
            (
                Design::FsDram,
                TimingSet::homogeneous_fast(),
                false,
                false,
                false,
                false,
                None,
            ),
            (
                Design::DasInclusive,
                TimingSet::asymmetric(),
                true,
                true,
                true,
                false,
                None,
            ),
            (
                Design::TlDram,
                TimingSet::tl_dram(),
                true,
                true,
                true,
                false,
                Some(tl_dram_overhead()),
            ),
            (
                Design::ClrDram,
                TimingSet::clr_dram(),
                true,
                true,
                false,
                false,
                Some(stripe_overhead(CLR_DRIVER_ROWS)),
            ),
            (
                Design::Lisa,
                TimingSet::lisa(),
                true,
                true,
                false,
                false,
                Some(stripe_overhead(LISA_LINK_ROWS)),
            ),
            (
                Design::Salp,
                TimingSet::homogeneous_slow(),
                false,
                false,
                false,
                false,
                Some(stripe_overhead(SALP_LATCH_ROWS)),
            ),
        ];
        let untouched = format!("{:?}", SystemConfig::test_small());
        let layout = SystemConfig::test_small().bank_layout();
        for (d, timing, asym, dynamic, inclusive, profile, overhead) in table {
            assert_eq!(d.timing(), timing, "{d:?} timing");
            assert_eq!(d.is_asymmetric(), asym, "{d:?} is_asymmetric");
            assert_eq!(d.is_dynamic(), dynamic, "{d:?} is_dynamic");
            assert_eq!(d.is_inclusive(), inclusive, "{d:?} is_inclusive");
            assert_eq!(
                d.takes_policy(),
                dynamic && !inclusive,
                "{d:?} takes_policy"
            );
            assert_eq!(d.needs_profile(), profile, "{d:?} needs_profile");
            assert_eq!(d.area_overhead(), overhead, "{d:?} area");
            let usable = (d == Design::ClrDram).then_some(layout.slow_rows() as u64);
            assert_eq!(d.usable_rows_per_bank(&layout), usable, "{d:?} capacity");
            let mut cfg = SystemConfig::test_small();
            d.apply_overrides(&mut cfg);
            let mut expected = SystemConfig::test_small();
            match d {
                Design::TlDram => {
                    expected.management.fast_ratio = FastRatio::new(1, 4);
                    expected.management.group_size = 64;
                    expected.arrangement = Arrangement::Interleaving;
                    expected.slow_subarray_rows = 384;
                }
                Design::Salp => expected.salp = true,
                _ => assert_eq!(format!("{cfg:?}"), untouched, "{d:?} overrides"),
            }
            assert_eq!(
                format!("{cfg:?}"),
                format!("{expected:?}"),
                "{d:?} overrides"
            );
        }
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
