//! Pluggable online migration policies for the DAS-DRAM fast level.
//!
//! The source paper manages its asymmetric subarrays with a single fixed
//! rule: promote a row into the fast level once it collects
//! `promotion_threshold` slow-level hits. This crate makes that rule a
//! first-class, swappable component. A [`MigrationPolicy`] is a *pure*
//! decision function: the controller feeds it per-access and per-epoch
//! statistics ([`PolicyEvent`]) and it answers with a list of
//! [`PolicyAction`]s. Policies never touch simulator state, never consult
//! wall-clock time, and never use randomness, so every decision is
//! deterministic and table-testable in isolation.
//!
//! Five implementations ship here:
//!
//! - [`PaperFixed`] — the paper's promote-at-threshold rule, bit-for-bit
//!   (the simulator's default: management runs it unless another
//!   policy is installed).
//! - [`Hysteresis`] — raises the promotion bar by a fixed margin to damp
//!   promotion ping-pong, and asks for demotions when the fast level
//!   goes cold.
//! - [`CostAware`] — promotes only when the expected residency benefit
//!   (observed reuse × per-hit latency saved, weighted by
//!   coherence-sharing hotness) covers the backend's swap cost — 146.25 ns
//!   on DAS, 48.75 ns on LISA, 2×tRC on a CLR morph-exchange — so the
//!   same policy ranks differently across timing architectures.
//! - [`PhaseAdaptive`] — watches the epoch time-series for fast-hit-ratio
//!   discontinuities and resets the threshold toward the paper default
//!   when the workload changes phase.
//! - [`Feedback`] — a bang-bang controller that nudges the promotion
//!   threshold up or down each epoch to hold a target fast-hit ratio.
//!
//! Determinism rules (binding for every implementation):
//!
//! 1. `observe` output is a function of the constructor parameters and
//!    the exact sequence of events observed so far — nothing else.
//! 2. No interior mutability, I/O, time, or randomness.
//! 3. Floating-point inputs arrive pre-computed by the caller (swap cost,
//!    benefit); policies combine them with fixed arithmetic only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// Lowest value [`clamp_threshold`] will return.
pub const THRESHOLD_MIN: u32 = 1;
/// Highest value [`clamp_threshold`] will return.
pub const THRESHOLD_MAX: u32 = 1024;

/// Clamp a signed threshold adjustment result into the legal
/// `[THRESHOLD_MIN, THRESHOLD_MAX]` band.
///
/// The promotion filter panics on a zero threshold, so every adjustment
/// a policy requests is squeezed through this before it reaches the
/// filter.
pub fn clamp_threshold(raw: i64) -> u32 {
    raw.clamp(THRESHOLD_MIN as i64, THRESHOLD_MAX as i64) as u32
}

/// Identifies one of the shipped policy implementations.
///
/// The `key` form (snake_case) is the canonical wire spelling used by
/// manifest `policy:` overrides, report JSON and Prometheus labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PolicyKind {
    /// The paper's fixed promote-at-threshold rule.
    PaperFixed,
    /// Threshold plus a fixed margin, with cold-epoch demotion requests.
    Hysteresis,
    /// Promote only when expected benefit covers the backend swap cost.
    CostAware,
    /// Phase-change detection over the epoch time-series.
    PhaseAdaptive,
    /// Online threshold feedback toward a target fast-hit ratio.
    Feedback,
}

/// Every shipped policy kind, in ranking/report order.
pub const ALL_POLICIES: [PolicyKind; 5] = [
    PolicyKind::PaperFixed,
    PolicyKind::Hysteresis,
    PolicyKind::CostAware,
    PolicyKind::PhaseAdaptive,
    PolicyKind::Feedback,
];

impl PolicyKind {
    /// Canonical snake_case key (manifest token, JSON field, metric label).
    pub fn key(self) -> &'static str {
        match self {
            PolicyKind::PaperFixed => "paper_fixed",
            PolicyKind::Hysteresis => "hysteresis",
            PolicyKind::CostAware => "cost_aware",
            PolicyKind::PhaseAdaptive => "phase_adaptive",
            PolicyKind::Feedback => "feedback",
        }
    }

    /// Human-facing label for rendered tables.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::PaperFixed => "paper-fixed",
            PolicyKind::Hysteresis => "hysteresis",
            PolicyKind::CostAware => "cost-aware",
            PolicyKind::PhaseAdaptive => "phase-adaptive",
            PolicyKind::Feedback => "feedback",
        }
    }

    /// Parse the canonical key back into a kind.
    pub fn parse(s: &str) -> Option<Self> {
        ALL_POLICIES.iter().copied().find(|k| k.key() == s)
    }

    /// Construct the implementation with its shipped default parameters.
    pub fn build(self) -> Box<dyn MigrationPolicy> {
        match self {
            PolicyKind::PaperFixed => Box::new(PaperFixed),
            PolicyKind::Hysteresis => Box::new(Hysteresis::default()),
            PolicyKind::CostAware => Box::new(CostAware),
            PolicyKind::PhaseAdaptive => Box::new(PhaseAdaptive::default()),
            PolicyKind::Feedback => Box::new(Feedback::default()),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// Per-access inputs for a promotion decision.
///
/// Built by the controller for every *slow-level* data access (fast hits
/// and row-buffer hits never reach the policy — they are already where
/// they should be).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessStats {
    /// Promotion-filter counter value for this row, including this
    /// access. With the paper's threshold-1 filter no counters are
    /// tracked and this is always 1.
    pub count: u32,
    /// The promotion threshold currently programmed into the filter.
    pub threshold: u32,
    /// Coherence sharing-induced accesses observed for this row (0 when
    /// the run has no coherent front end). Sharing-hot rows serve
    /// several cores per residency, multiplying the benefit of a
    /// promotion.
    pub shared_count: u32,
    /// Latency saved per future fast-level hit, in nanoseconds
    /// (slow-level activation cycle minus fast-level activation cycle).
    pub benefit_ns: f64,
    /// What one promotion costs on this backend, in nanoseconds:
    /// 146.25 ns for a DAS 3-step swap, 48.75 ns for a LISA RBM swap,
    /// 97.5 ns (2×tRC) for a CLR-DRAM morph-exchange.
    pub swap_cost_ns: f64,
    /// True when the row's migration group already has a swap in flight
    /// (a promotion granted now would be deferred by the controller).
    pub group_busy: bool,
}

/// Per-epoch inputs, delivered every policy epoch (a fixed number of
/// data accesses, so epoch boundaries are deterministic and independent
/// of telemetry configuration). Counters are deltas for the epoch just
/// ended, not cumulative totals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Zero-based index of the epoch that just ended.
    pub epoch: u64,
    /// Data accesses in the epoch (fast + slow).
    pub accesses: u64,
    /// Fast-level hits in the epoch.
    pub fast_hits: u64,
    /// Slow-level hits in the epoch.
    pub slow_hits: u64,
    /// Promotions granted in the epoch.
    pub promotions: u64,
    /// The promotion threshold in force at the epoch boundary.
    pub threshold: u32,
}

impl EpochStats {
    /// Fraction of the epoch's accesses served by the fast level
    /// (0 when the epoch saw no accesses).
    pub fn fast_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.fast_hits as f64 / self.accesses as f64
        }
    }
}

/// One event fed to [`MigrationPolicy::observe`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyEvent {
    /// A slow-level data access that is a promotion candidate.
    Access(AccessStats),
    /// A policy epoch boundary.
    Epoch(EpochStats),
}

/// One decision emitted by a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PolicyAction {
    /// Promote the accessed row into the fast level (swap with the
    /// replacer's victim).
    Promote,
    /// Advisory: the fast level holds rows colder than the slow-level
    /// traffic; the controller counts these as demotion pressure.
    Demote,
    /// Leave the row where it is.
    Hold,
    /// Adjust the promotion threshold by the given signed delta; the
    /// controller clamps the result with [`clamp_threshold`].
    AdjustThreshold(i32),
}

impl PolicyAction {
    /// Stable snake_case key for report JSON and Prometheus labels.
    pub fn key(&self) -> &'static str {
        match self {
            PolicyAction::Promote => "promote",
            PolicyAction::Demote => "demote",
            PolicyAction::Hold => "hold",
            PolicyAction::AdjustThreshold(_) => "adjust_threshold",
        }
    }
}

/// A pure, deterministic migration decision function.
///
/// See the crate docs for the determinism rules every implementation
/// must obey. `Send` is required because simulations run on the
/// harness's worker pool; `Debug` because the owning controller
/// derives it.
pub trait MigrationPolicy: fmt::Debug + Send {
    /// Which shipped kind this is (used for stats and report labels).
    fn kind(&self) -> PolicyKind;

    /// Observe one event and decide.
    ///
    /// For [`PolicyEvent::Access`] the controller promotes iff the
    /// returned actions contain [`PolicyAction::Promote`]; other actions
    /// are applied (threshold adjustments) or tallied (demotion
    /// pressure). An empty vector is equivalent to `[Hold]` for
    /// accounting except that `Hold` is what gets tallied.
    fn observe(&mut self, event: &PolicyEvent) -> Vec<PolicyAction>;

    /// Clone into a fresh box (controllers that own a policy are
    /// themselves `Clone`).
    fn clone_box(&self) -> Box<dyn MigrationPolicy>;
}

impl Clone for Box<dyn MigrationPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

// ---------------------------------------------------------------------------
// PaperFixed
// ---------------------------------------------------------------------------

/// The source paper's rule: promote exactly when the filter count
/// reaches the threshold. Epochs are ignored. The simulator's
/// management runs this rule unless another policy is installed.
#[derive(Debug, Clone, Copy, Default)]
pub struct PaperFixed;

impl MigrationPolicy for PaperFixed {
    fn clone_box(&self) -> Box<dyn MigrationPolicy> {
        Box::new(*self)
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::PaperFixed
    }

    fn observe(&mut self, event: &PolicyEvent) -> Vec<PolicyAction> {
        match event {
            PolicyEvent::Access(a) if a.count >= a.threshold => vec![PolicyAction::Promote],
            PolicyEvent::Access(_) => vec![PolicyAction::Hold],
            PolicyEvent::Epoch(_) => Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Hysteresis
// ---------------------------------------------------------------------------

/// Promote at `threshold + margin` instead of `threshold`, so a row must
/// prove itself for `margin` extra hits before paying a swap; when an
/// epoch shows the fast level serving almost nothing, request demotion
/// pressure so stale residents stop blocking hot candidates.
#[derive(Debug, Clone, Copy)]
pub struct Hysteresis {
    /// Extra hits demanded beyond the programmed threshold.
    pub margin: u32,
    /// Fast-hit ratio below which an epoch is "cold" and a demotion is
    /// requested.
    pub cold_ratio: f64,
}

impl Default for Hysteresis {
    fn default() -> Self {
        Hysteresis {
            margin: 2,
            cold_ratio: 0.05,
        }
    }
}

impl MigrationPolicy for Hysteresis {
    fn clone_box(&self) -> Box<dyn MigrationPolicy> {
        Box::new(*self)
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Hysteresis
    }

    fn observe(&mut self, event: &PolicyEvent) -> Vec<PolicyAction> {
        match event {
            PolicyEvent::Access(a) => {
                if a.count >= a.threshold.saturating_add(self.margin) {
                    vec![PolicyAction::Promote]
                } else {
                    vec![PolicyAction::Hold]
                }
            }
            PolicyEvent::Epoch(e) => {
                if e.accesses > 0 && e.fast_ratio() < self.cold_ratio {
                    vec![PolicyAction::Demote]
                } else {
                    Vec::new()
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// CostAware
// ---------------------------------------------------------------------------

/// Promote only when the expected residency benefit covers the swap
/// cost. The row's observed reuse (filter count) plus its
/// coherence-sharing hotness estimate how many future fast hits a
/// residency will earn; each earns `benefit_ns`. The swap itself costs
/// `swap_cost_ns`, which differs per backend — so on LISA (48.75 ns)
/// this policy promotes on far colder rows than on DAS (146.25 ns).
#[derive(Debug, Clone, Copy, Default)]
pub struct CostAware;

impl MigrationPolicy for CostAware {
    fn clone_box(&self) -> Box<dyn MigrationPolicy> {
        Box::new(*self)
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::CostAware
    }

    fn observe(&mut self, event: &PolicyEvent) -> Vec<PolicyAction> {
        match event {
            PolicyEvent::Access(a) => {
                let expected_hits = (a.count + a.shared_count) as f64;
                if expected_hits * a.benefit_ns >= a.swap_cost_ns {
                    vec![PolicyAction::Promote]
                } else {
                    vec![PolicyAction::Hold]
                }
            }
            PolicyEvent::Epoch(_) => Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// PhaseAdaptive
// ---------------------------------------------------------------------------

/// Detect phase changes in the epoch time-series (the same series
/// das-telemetry exports) as jumps in the fast-hit ratio. On a phase
/// change the old fast-level contents are suspect: request demotion
/// pressure and walk the threshold back toward the paper default so the
/// new phase's hot set promotes quickly.
#[derive(Debug, Clone, Copy)]
pub struct PhaseAdaptive {
    /// Absolute fast-ratio jump that counts as a phase change.
    pub jump: f64,
    /// Threshold the policy steers toward after a phase change.
    pub reset_threshold: u32,
    /// Fast ratio of the previous epoch, once one has been seen.
    prev_ratio: Option<f64>,
}

impl Default for PhaseAdaptive {
    fn default() -> Self {
        PhaseAdaptive {
            jump: 0.2,
            reset_threshold: 1,
            prev_ratio: None,
        }
    }
}

impl MigrationPolicy for PhaseAdaptive {
    fn clone_box(&self) -> Box<dyn MigrationPolicy> {
        Box::new(*self)
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::PhaseAdaptive
    }

    fn observe(&mut self, event: &PolicyEvent) -> Vec<PolicyAction> {
        match event {
            PolicyEvent::Access(a) => {
                if a.count >= a.threshold {
                    vec![PolicyAction::Promote]
                } else {
                    vec![PolicyAction::Hold]
                }
            }
            PolicyEvent::Epoch(e) => {
                let ratio = e.fast_ratio();
                let prev = self.prev_ratio.replace(ratio);
                match prev {
                    Some(p) if (ratio - p).abs() > self.jump => {
                        let delta = self.reset_threshold as i64 - e.threshold as i64;
                        let mut actions = vec![PolicyAction::Demote];
                        if delta != 0 {
                            actions.push(PolicyAction::AdjustThreshold(delta as i32));
                        }
                        actions
                    }
                    _ => Vec::new(),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Feedback
// ---------------------------------------------------------------------------

/// A bang-bang feedback controller on the promotion threshold: when the
/// observed fast-hit ratio falls below the target band, lower the
/// threshold (promote more eagerly); when it overshoots, raise it
/// (promotions are being wasted on rows the fast level already covers).
#[derive(Debug, Clone, Copy)]
pub struct Feedback {
    /// Fast-hit ratio the controller tries to hold.
    pub target: f64,
    /// Half-width of the dead band around the target.
    pub band: f64,
}

impl Default for Feedback {
    fn default() -> Self {
        Feedback {
            target: 0.5,
            band: 0.05,
        }
    }
}

impl MigrationPolicy for Feedback {
    fn clone_box(&self) -> Box<dyn MigrationPolicy> {
        Box::new(*self)
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Feedback
    }

    fn observe(&mut self, event: &PolicyEvent) -> Vec<PolicyAction> {
        match event {
            PolicyEvent::Access(a) => {
                if a.count >= a.threshold {
                    vec![PolicyAction::Promote]
                } else {
                    vec![PolicyAction::Hold]
                }
            }
            PolicyEvent::Epoch(e) => {
                if e.accesses == 0 {
                    return Vec::new();
                }
                let ratio = e.fast_ratio();
                if ratio < self.target - self.band {
                    vec![PolicyAction::AdjustThreshold(-1)]
                } else if ratio > self.target + self.band {
                    vec![PolicyAction::AdjustThreshold(1)]
                } else {
                    Vec::new()
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn access(count: u32, threshold: u32) -> PolicyEvent {
        PolicyEvent::Access(AccessStats {
            count,
            threshold,
            shared_count: 0,
            benefit_ns: 22.5,
            swap_cost_ns: 146.25,
            group_busy: false,
        })
    }

    fn epoch(epoch: u64, fast: u64, slow: u64, threshold: u32) -> PolicyEvent {
        PolicyEvent::Epoch(EpochStats {
            epoch,
            accesses: fast + slow,
            fast_hits: fast,
            slow_hits: slow,
            promotions: 0,
            threshold,
        })
    }

    #[test]
    fn kinds_round_trip_through_keys() {
        for kind in ALL_POLICIES {
            assert_eq!(PolicyKind::parse(kind.key()), Some(kind));
            assert_eq!(kind.build().kind(), kind);
            assert_eq!(format!("{kind}"), kind.key());
        }
        assert_eq!(PolicyKind::parse("nonsense"), None);
    }

    #[test]
    fn threshold_clamps_at_both_rails() {
        assert_eq!(clamp_threshold(0), THRESHOLD_MIN);
        assert_eq!(clamp_threshold(-17), THRESHOLD_MIN);
        assert_eq!(clamp_threshold(7), 7);
        assert_eq!(clamp_threshold(THRESHOLD_MAX as i64 + 1), THRESHOLD_MAX);
        assert_eq!(clamp_threshold(i64::MAX), THRESHOLD_MAX);
    }

    #[test]
    fn paper_fixed_matches_the_threshold_rule() {
        let mut p = PaperFixed;
        // (count, threshold) -> promote?
        let table = [
            (1, 1, true),
            (1, 2, false),
            (2, 2, true),
            (3, 2, true),
            (7, 8, false),
        ];
        for (count, threshold, promote) in table {
            let actions = p.observe(&access(count, threshold));
            assert_eq!(
                actions.contains(&PolicyAction::Promote),
                promote,
                "count={count} threshold={threshold}"
            );
        }
        assert!(p.observe(&epoch(0, 0, 100, 1)).is_empty());
    }

    #[test]
    fn hysteresis_demands_the_margin_and_demotes_cold_epochs() {
        let mut p = Hysteresis::default();
        assert_eq!(p.observe(&access(2, 2)), vec![PolicyAction::Hold]);
        assert_eq!(p.observe(&access(3, 2)), vec![PolicyAction::Hold]);
        assert_eq!(p.observe(&access(4, 2)), vec![PolicyAction::Promote]);
        // 2% fast ratio is below the 5% cold line -> demotion pressure.
        assert_eq!(p.observe(&epoch(0, 2, 98, 2)), vec![PolicyAction::Demote]);
        assert!(p.observe(&epoch(1, 50, 50, 2)).is_empty());
        // An empty epoch must not divide by zero or demote.
        assert!(p.observe(&epoch(2, 0, 0, 2)).is_empty());
    }

    #[test]
    fn cost_aware_ranks_backends_by_swap_cost() {
        let mut p = CostAware;
        let candidate = |count: u32, shared: u32, swap_cost_ns: f64| {
            PolicyEvent::Access(AccessStats {
                count,
                threshold: 1,
                shared_count: shared,
                benefit_ns: 22.5,
                swap_cost_ns,
                group_busy: false,
            })
        };
        // DAS swap (146.25 ns) needs ceil(146.25/22.5) = 7 expected hits.
        assert_eq!(
            p.observe(&candidate(6, 0, 146.25)),
            vec![PolicyAction::Hold]
        );
        assert_eq!(
            p.observe(&candidate(7, 0, 146.25)),
            vec![PolicyAction::Promote]
        );
        // LISA (48.75 ns) breaks even at 3 hits: same row, cheaper swap.
        assert_eq!(
            p.observe(&candidate(3, 0, 48.75)),
            vec![PolicyAction::Promote]
        );
        assert_eq!(p.observe(&candidate(2, 0, 48.75)), vec![PolicyAction::Hold]);
        // Sharing-hot rows cross the DAS bar with fewer private hits.
        assert_eq!(
            p.observe(&candidate(3, 4, 146.25)),
            vec![PolicyAction::Promote]
        );
    }

    #[test]
    fn phase_adaptive_fires_only_on_a_jump() {
        let mut p = PhaseAdaptive::default();
        // First epoch establishes the baseline; no decision possible.
        assert!(p.observe(&epoch(0, 60, 40, 4)).is_empty());
        // Small drift: no phase change.
        assert!(p.observe(&epoch(1, 55, 45, 4)).is_empty());
        // 55% -> 10% is a phase change: demote + steer threshold to 1.
        assert_eq!(
            p.observe(&epoch(2, 10, 90, 4)),
            vec![PolicyAction::Demote, PolicyAction::AdjustThreshold(-3)]
        );
        // Already at the reset threshold: a jump emits only the demote.
        let mut q = PhaseAdaptive::default();
        assert!(q.observe(&epoch(0, 90, 10, 1)).is_empty());
        assert_eq!(q.observe(&epoch(1, 10, 90, 1)), vec![PolicyAction::Demote]);
    }

    #[test]
    fn feedback_steers_toward_the_target_band() {
        let mut p = Feedback::default();
        assert_eq!(
            p.observe(&epoch(0, 10, 90, 4)),
            vec![PolicyAction::AdjustThreshold(-1)]
        );
        assert_eq!(
            p.observe(&epoch(1, 90, 10, 3)),
            vec![PolicyAction::AdjustThreshold(1)]
        );
        // Inside the dead band: hold the threshold.
        assert!(p.observe(&epoch(2, 50, 50, 4)).is_empty());
        // No accesses: no evidence, no adjustment.
        assert!(p.observe(&epoch(3, 0, 0, 4)).is_empty());
    }

    #[test]
    fn access_decisions_are_pure_and_repeatable() {
        for kind in ALL_POLICIES {
            let ev = access(3, 2);
            let mut a = kind.build();
            let mut b = kind.build();
            let first = a.observe(&ev);
            assert_eq!(first, b.observe(&ev), "{kind}: same-event divergence");
            assert_eq!(first, a.observe(&ev), "{kind}: replay divergence");
        }
    }
}
