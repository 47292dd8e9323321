//! The full-system simulator: cores + cache hierarchy + management +
//! per-channel memory controllers, driven by a global event queue.
//!
//! Event kinds:
//! * `CoreIssue` — a core's memory reference enters the cache hierarchy;
//! * `CtrlEnqueue` — a translated DRAM request reaches its channel's
//!   controller (delayed by translation-fetch latency when applicable);
//! * `CtrlWake` — a controller should try to issue commands.
//!
//! Cache lookups are resolved synchronously (their latency added to the
//! completion time); only DRAM-bound traffic is event-scheduled. The
//! translation flow of §5.2 is modelled faithfully: a translation-cache hit
//! costs nothing (overlapped with the LLC lookup); a miss costs an LLC
//! access for the table line; an LLC miss on the table line costs a real
//! DRAM read that precedes the data access.

use core::fmt;
use std::collections::VecDeque;

use das_cache::hierarchy::{CacheHierarchy, CacheLevel};
use das_cache::mshr::Mshr;
use das_cache::{FastMap, FastSet};
use das_coherence::{ClusterConfig, CoherentCluster, ProtocolKind};
use das_core::management::{DasManager, MigrationRequest, PolicyCosts};
use das_core::translation::TranslationSource;
use das_cpu::core::{Core, MemRequest};
use das_cpu::trace::TraceItem;
pub use das_cpu::TraceSource;
use das_dram::channel::ChannelDevice;
use das_dram::geometry::{BankCoord, MemCoord};
use das_dram::tick::Tick;
use das_dram::timing::{TimingParams, TimingSet};
use das_memctrl::controller::{ControllerError, MemoryController};
use das_memctrl::request::{Completion, Request, ServiceClass, SwapOp};
use das_telemetry::{EpochCounters, LatencyClass, Telemetry, TelemetryReport};
use das_workloads::config::WorkloadConfig;
use das_workloads::gen::{gcd, mix64};
use das_workloads::shared::{SharedGen, SharedSpec};

use crate::config::{Design, SystemConfig};
use crate::dense::{DenseSet, IdSlab, RecentRows};
use crate::events::EventQueue;
use crate::experiments::RowProfile;
use crate::stats::{AccessMix, CoreMetrics, EnergyBreakdown, EnergyModel, RunMetrics};

/// Capacity of the controller's recently-translated-row registers (a few
/// per bank, matching the set of rows plausibly open or in the queues).
/// The registers are a FIFO of distinct rows with a hashed membership set
/// ([`RecentRows`]): a lookup costs one hash probe, and the oldest row is
/// dropped when a new one is noted beyond this count.
const RECENT_TRANSLATIONS: usize = 64;

/// Default event budget after which a run is declared runaway (the
/// `SystemConfig::event_budget` default; long harness sweeps and stress
/// manifests can raise it per run without recompiling).
pub const DEFAULT_EVENT_BUDGET: u64 = 50_000_000;

/// Default number of same-tick controller wakes tolerated before the
/// watchdog declares the event loop stalled (the
/// `SystemConfig::watchdog_same_tick_wakes` default).
pub const DEFAULT_WATCHDOG_SAME_TICK_WAKES: u32 = 10_000;

/// A fatal simulation error. [`System::run`] returns this instead of
/// panicking so callers (experiment sweeps, the CLI) can report and
/// continue.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The event queue drained while cores were still unfinished.
    Deadlock {
        /// Simulated time of the stall.
        clock: Tick,
        /// Queued demand requests per channel.
        queued: Vec<usize>,
        /// Queued migrations per channel.
        swaps: Vec<usize>,
        /// Overflowed (not-yet-accepted) requests per channel.
        overflow: Vec<usize>,
    },
    /// The event budget was exceeded — a runaway simulation.
    EventBudgetExceeded {
        /// Simulated time when the budget ran out.
        clock: Tick,
        /// Events processed.
        events: u64,
        /// Queued demand requests per channel.
        queued: Vec<usize>,
        /// Queued migrations per channel.
        swaps: Vec<usize>,
    },
    /// The watchdog saw a same-tick wake storm: a controller was woken
    /// repeatedly at one tick without the clock advancing.
    Stalled {
        /// Simulated time of the stall.
        clock: Tick,
        /// Channel whose controller is stuck.
        channel: usize,
        /// Demand requests queued on that controller.
        queued: usize,
        /// Migrations queued on that controller.
        swaps: usize,
        /// Same-tick wakes observed.
        wakes: u32,
    },
    /// A completion arrived for a request id the simulator does not know.
    UnknownCompletion {
        /// Completion kind ("read", "write" or "swap").
        kind: &'static str,
        /// The unknown request id or swap token.
        id: u64,
    },
    /// A completion's recorded context does not match its kind (e.g. a
    /// write context attached to a read completion).
    ContextMismatch {
        /// Completion kind that found the wrong context.
        kind: &'static str,
        /// The request id or swap token involved.
        id: u64,
    },
    /// The MSHR rejected a registration despite being sized above any
    /// legal concurrency.
    MshrSaturated {
        /// Line address that could not be registered.
        line: u64,
    },
    /// The memory controller reported an error.
    Controller(ControllerError),
    /// A workload's footprint exceeds its share of the usable rows, so it
    /// cannot be placed (a recorded trace whose addresses span too much).
    FootprintExceedsShare {
        /// The workload's name.
        workload: String,
        /// Its footprint, rows.
        rows: u64,
        /// Each workload's share of the usable rows.
        share: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock {
                clock,
                queued,
                swaps,
                overflow,
            } => write!(
                f,
                "event queue drained with unfinished cores at {clock} \
                 (queued {queued:?}, swaps {swaps:?}, overflow {overflow:?})"
            ),
            SimError::EventBudgetExceeded {
                clock,
                events,
                queued,
                swaps,
            } => write!(
                f,
                "event budget exceeded after {events} events at {clock} \
                 (queued {queued:?}, swaps {swaps:?})"
            ),
            SimError::Stalled {
                clock,
                channel,
                queued,
                swaps,
                wakes,
            } => write!(
                f,
                "controller {channel} stalled at {clock}: {wakes} same-tick wakes \
                 ({queued} requests, {swaps} swaps queued)"
            ),
            SimError::UnknownCompletion { kind, id } => {
                write!(f, "unknown {kind} completion for id {id}")
            }
            SimError::ContextMismatch { kind, id } => {
                write!(f, "mismatched context on {kind} completion for id {id}")
            }
            SimError::MshrSaturated { line } => {
                write!(f, "MSHR rejected line {line:#x}")
            }
            SimError::Controller(e) => write!(f, "controller error: {e}"),
            SimError::FootprintExceedsShare {
                workload,
                rows,
                share,
            } => write!(
                f,
                "{workload}'s footprint ({rows} rows) exceeds its share of memory ({share} rows)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ControllerError> for SimError {
    fn from(e: ControllerError) -> Self {
        SimError::Controller(e)
    }
}

#[derive(Debug, Clone, Copy)]
#[allow(clippy::large_enum_variant)]
enum EventKind {
    CoreIssue {
        core: usize,
        id: u64,
        addr: u64,
        is_write: bool,
    },
    CtrlEnqueue {
        req: Request,
    },
    CtrlWake {
        ch: usize,
    },
}

#[derive(Debug, Clone, Copy)]
enum ReqCtx {
    /// A demand line fill (DRAM read, possibly on behalf of a store miss).
    DemandRead {
        line: u64,
        bank: BankCoord,
        logical_row: u32,
        fill_core: usize,
    },
    /// A posted write-back.
    DemandWrite { bank: BankCoord, logical_row: u32 },
    /// A translation-table line fetch; on completion the deferred demand
    /// request (if any) is released.
    TableRead { then: Option<Request> },
}

#[derive(Debug, Clone, Copy)]
struct Waiter {
    core: usize,
    id: u64,
    is_load: bool,
}

/// The policy `cfg` installs into `design`'s manager: only dynamic
/// exclusive designs take one, so static and inclusive designs keep the
/// paper's `PaperFixed` rule and report no policy block.
fn installed_policy(cfg: &SystemConfig, design: Design) -> Option<das_policy::PolicyKind> {
    cfg.policy.filter(|_| design.takes_policy())
}

/// The class every activation counts under when `timing` has a single
/// activation latency (Std-DRAM and SALP: slow; FS-DRAM: fast); `None`
/// where the layout's fast/slow subarray classification stands.
fn uniform_activation(timing: &TimingSet) -> Option<LatencyClass> {
    (timing.fast == timing.slow).then(|| {
        if timing.fast == TimingParams::fast_subarray() {
            LatencyClass::FastMiss
        } else {
            LatencyClass::SlowMiss
        }
    })
}

/// The OS-visible data rows under `design`, for `cfg` with the design's
/// overrides applied: the slow rows less the translation-table region for
/// an inclusive fast level (fast rows duplicate slow ones), the design's
/// own per-bank rule for a capacity-trading backend (CLR-DRAM, whose
/// morphed rows lose their partners' storage), and otherwise every row
/// below the translation-table region.
pub(crate) fn usable_rows(cfg: &SystemConfig, design: Design) -> u64 {
    let layout = cfg.bank_layout();
    let banks = cfg.geometry.total_banks() as u64;
    if design.is_inclusive() {
        layout.slow_rows() as u64 * banks - cfg.geometry.table_rows()
    } else if let Some(per_bank) = design.usable_rows_per_bank(&layout) {
        per_bank * banks
    } else {
        cfg.geometry.table_base() / cfg.geometry.row_bytes as u64
    }
}

/// Each workload's share of `usable_rows`.
///
/// # Errors
///
/// [`SimError::FootprintExceedsShare`] for the first workload whose
/// footprint does not fit its share.
pub(crate) fn row_share(workloads: &[WorkloadConfig], usable_rows: u64) -> Result<u64, SimError> {
    let share = usable_rows / workloads.len() as u64;
    match workloads.iter().find(|w| w.footprint_rows() > share) {
        Some(w) => Err(SimError::FootprintExceedsShare {
            workload: w.name.clone(),
            rows: w.footprint_rows(),
            share,
        }),
        None => Ok(share),
    }
}

/// OS-like physical page placement: each workload's row-granular pages are
/// scattered pseudo-randomly across the *whole* usable row space, with
/// per-workload interleaving keeping co-scheduled workloads disjoint.
///
/// This mirrors how a real OS allocates physical frames: a workload's hot
/// pages end up spread over all banks and migration groups, so (as in the
/// paper) the entire fast level — 1/8 of total memory, not 1/8 of the
/// workload's own footprint — is available to hold its hot rows.
#[derive(Debug, Clone)]
pub struct AddressMap {
    row_bytes: u64,
    slots_per_core: u64,
    ncores: u64,
    muls: Vec<u64>,
    alt_muls: Vec<u64>,
    /// When set, a `realloc_fraction` of pages see the alternate mapping —
    /// the profile run's view (see [`AddressMap::profile_view`]).
    profile_view: bool,
    realloc_fraction: f64,
}

impl AddressMap {
    /// Builds the placement for `workloads` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if any workload's footprint exceeds its share of the usable
    /// row space (everything below the reserved translation-table region).
    pub fn new(cfg: &SystemConfig, workloads: &[WorkloadConfig]) -> Self {
        Self::with_usable_rows(cfg, workloads, usable_rows(cfg, Design::Standard))
    }

    /// Like [`AddressMap::new`] with an explicit usable-row budget — the
    /// inclusive design loses the duplicated fast-level capacity (§5's
    /// argument for the exclusive scheme).
    ///
    /// # Panics
    ///
    /// Panics if any workload's footprint exceeds its share.
    pub fn with_usable_rows(
        cfg: &SystemConfig,
        workloads: &[WorkloadConfig],
        usable_rows: u64,
    ) -> Self {
        let row = cfg.geometry.row_bytes as u64;
        let n = workloads.len() as u64;
        let slots_per_core = row_share(workloads, usable_rows).unwrap_or_else(|e| panic!("{e}"));
        let coprime = |start: u64| {
            let mut m = start | 1;
            while gcd(m, slots_per_core) != 1 {
                m += 2;
            }
            m
        };
        let muls = (0..workloads.len() as u64)
            .map(|i| coprime((slots_per_core as f64 * 0.618_033_9) as u64 + 2 * i + 1))
            .collect();
        let alt_muls = (0..workloads.len() as u64)
            .map(|i| coprime((slots_per_core as f64 * 0.414_213_5) as u64 + 2 * i + 1))
            .collect();
        AddressMap {
            row_bytes: row,
            slots_per_core,
            ncores: n,
            muls,
            alt_muls,
            profile_view: false,
            realloc_fraction: cfg.profile_realloc,
        }
    }

    /// The mapping as seen by the *profiling* execution: the paper's static
    /// designs profile a separate run of the workload, and the OS does not
    /// reproduce physical page placement across executions — a
    /// `profile_realloc` fraction of pages land in different frames. Static
    /// placement by physical row is only correct for pages whose frames
    /// happened to survive.
    pub fn profile_view(&self) -> AddressMap {
        AddressMap {
            profile_view: true,
            ..self.clone()
        }
    }

    /// Maps a workload-local address of `core` to its physical address.
    pub fn map(&self, core: usize, addr: u64) -> u64 {
        let vrow = addr / self.row_bytes;
        let off = addr % self.row_bytes;
        debug_assert!(
            vrow < self.slots_per_core,
            "address outside footprint share"
        );
        let v = vrow % self.slots_per_core;
        let reallocated = self.profile_view
            && (mix64(v ^ 0x72_6561_6c6c_6f63) as f64 / u64::MAX as f64) < self.realloc_fraction;
        let mul = if reallocated {
            self.alt_muls[core]
        } else {
            self.muls[core]
        };
        let slot = v.wrapping_mul(mul) % self.slots_per_core;
        (slot * self.ncores + core as u64) * self.row_bytes + off
    }
}

/// Builds placeholder workload descriptors for recorded traces: only the
/// name and footprint (from the maximum address) matter to the placement
/// machinery.
pub(crate) fn recorded_workload_stubs(
    cfg: &SystemConfig,
    traces: &[Vec<TraceItem>],
) -> Vec<WorkloadConfig> {
    assert!(!traces.is_empty(), "need at least one trace");
    traces
        .iter()
        .enumerate()
        .map(|(i, t)| {
            assert!(!t.is_empty(), "trace {i} is empty");
            let max_addr = t.iter().map(|r| r.addr).max().unwrap_or(0);
            let row = cfg.geometry.row_bytes as u64;
            WorkloadConfig {
                name: format!("trace-{i}"),
                mpki: 1.0,
                footprint_bytes: (max_addr / row + 1) * row,
                write_frac: 0.0,
                dep_frac: 0.0,
                pattern: das_workloads::config::Pattern::stream(),
                run_lines: 1,
                phase_insts: None,
            }
        })
        .collect()
}

/// The coherent multi-core front end, mounted by
/// [`System::with_coherence`]: per-core private L1s kept coherent over a
/// snooping bus, between the trace-fed cores and the shared LLC. Always
/// `None` on the classic constructors, whose behaviour is bit-identical to
/// before the front end existed (locked by report tests and the CI golden
/// journals).
struct CoherentFrontEnd {
    cluster: CoherentCluster,
    /// Bytes of the shared prefix of each core's virtual footprint: those
    /// addresses map through core 0's placement for every core.
    shared_bytes: u64,
    /// Logical `(bank, row)` coordinates of the shared region — DAS
    /// promotions of these rows count as sharing-induced.
    shared_rows: FastSet<(BankCoord, u32)>,
}

/// One full-system simulation of `workloads` (one per core) on `design`.
pub struct System {
    cfg: SystemConfig,
    design: Design,
    addr_map: AddressMap,
    cores: Vec<Core>,
    traces: Vec<TraceSource>,
    hierarchy: CacheHierarchy,
    ctrls: Vec<MemoryController>,
    manager: Option<DasManager>,
    mshr: Mshr<Waiter>,
    /// Coherent front end; `None` for every classic (single-address-space)
    /// run.
    coherence: Option<CoherentFrontEnd>,
    /// Per-row sharing-induced access heat, aggregated from the cluster's
    /// per-line counts as accesses happen; feeds the migration policy's
    /// `shared_count` input. Always empty without a coherent front end.
    shared_row_heat: FastMap<(BankCoord, u32), u32>,
    events: EventQueue<EventKind>,
    clock: Tick,
    next_req_id: u64,
    ctxs: IdSlab<ReqCtx>,
    overflow: Vec<VecDeque<Request>>,
    next_wake: Vec<Tick>,
    /// Reused buffer for the completions of one controller wake.
    completions: Vec<Completion>,
    /// Reused buffer for the requests one core dispatch or retirement
    /// releases.
    core_reqs: Vec<MemRequest>,
    pending_swaps: FastMap<u64, MigrationRequest>,
    next_swap_token: u64,
    /// Recently translated rows (the controller holds a handful of live row
    /// translations — one per open row — so a burst of misses to one row
    /// pays the translation lookup once).
    recent_translations: RecentRows,
    /// First logical row of the reserved translation-table region, the
    /// same in every bank (the region takes the very top rows).
    table_first_row: u32,
    /// The class every activation counts under, for a timing set with
    /// one activation latency ([`uniform_activation`]).
    uniform_activation: Option<LatencyClass>,
    // --- statistics ---
    workload_label: String,
    access_mix: AccessMix,
    table_fetch_reads: u64,
    core_misses: Vec<u64>,
    /// Physical rows touched, by global row index.
    footprint_rows: DenseSet,
    /// Subarrays activated at least once, by `flat bank × subarrays per
    /// bank + subarray` — drives the §1 partial power-down analysis (idle
    /// subarrays could be powered down).
    subarray_activity: DenseSet,
    warm_core: Vec<Option<(u64, u64, u64)>>, // (insts, retire_ticks, misses)
    warm_global: Option<(AccessMix, u64, u64)>, // (mix, promos, table reads)
    events_processed: u64,
    same_tick_wakes: u32,
    // --- telemetry ---
    /// The telemetry sink; every hook is a single-branch no-op when off.
    tel: Telemetry,
    /// Simulated time of the next epoch boundary (`Tick::MAX` when off, so
    /// the run-loop check is one always-false comparison).
    next_epoch_at: Tick,
    /// Epoch length in ticks.
    epoch_ticks: Tick,
    /// Epoch boundaries sampled so far.
    epochs_sampled: u64,
}

impl System {
    /// Builds a coherent multi-core system: `spec.cores` cores running the
    /// shared-footprint workload, their private L1s kept coherent by
    /// `protocol` over a snooping bus, in front of the shared LLC and the
    /// `design` memory system.
    ///
    /// The first [`SharedSpec::shared_bytes`] of every core's virtual
    /// footprint map through core 0's placement, so all cores name the
    /// same physical rows there; the private remainder keeps the per-core
    /// scatter. The mapping stays injective because the shared prefix only
    /// ever occupies core-0 row slots.
    ///
    /// # Panics
    ///
    /// Panics if `design` needs a profile (the coherent front end only
    /// runs dynamic designs: a per-core profile of a shared footprint is
    /// ill-defined), or on the usual configuration mismatches.
    pub fn with_coherence(
        cfg: SystemConfig,
        design: Design,
        spec: &SharedSpec,
        protocol: ProtocolKind,
    ) -> Self {
        assert!(
            !design.needs_profile(),
            "coherent runs support dynamic designs only"
        );
        let workloads = spec.workload_configs();
        let sources: Vec<TraceSource> = (0..spec.cores)
            .map(|c| Box::new(SharedGen::new(spec.clone(), cfg.seed, c)) as TraceSource)
            .collect();
        let mut sys = Self::new(cfg, design, &workloads, sources, None);
        let h = sys.cfg.hierarchy;
        let cluster = CoherentCluster::new(
            protocol,
            ClusterConfig {
                cores: spec.cores,
                l1_lines: (h.l1_bytes / h.line_bytes) as usize,
                line_bytes: h.line_bytes,
                hit_cycles: h.l1_latency,
            },
        );
        let shared_bytes = spec.shared_bytes();
        let row_bytes = sys.cfg.geometry.row_bytes as u64;
        let shared_rows = (0..shared_bytes / row_bytes)
            .map(|vrow| {
                let coord = sys
                    .cfg
                    .geometry
                    .decode(sys.addr_map.map(0, vrow * row_bytes));
                (coord.bank, coord.row)
            })
            .collect();
        sys.coherence = Some(CoherentFrontEnd {
            cluster,
            shared_bytes,
            shared_rows,
        });
        // `ring x4 @mid` reads better than `ring/c0+ring/c1+…`.
        sys.workload_label = spec.name();
        sys
    }

    /// Builds the system over per-core reference `sources` (one per
    /// workload: generators, store readers or recorded traces) paired with
    /// the scaled `workloads` they replay, which fix the address map,
    /// footprints and labels. `profile` carries per-row access counts for
    /// the static designs (SAS/CHARM); it must be `Some` exactly when
    /// [`Design::needs_profile`] holds.
    ///
    /// # Panics
    ///
    /// Panics on configuration mismatches (wrong source count, missing or
    /// spurious profile, footprints exceeding memory).
    pub fn new(
        cfg: SystemConfig,
        design: Design,
        workloads: &[WorkloadConfig],
        sources: Vec<TraceSource>,
        profile: Option<&RowProfile>,
    ) -> Self {
        assert!(!workloads.is_empty(), "need at least one workload");
        assert_eq!(
            sources.len(),
            workloads.len(),
            "one source per workload required"
        );
        assert_eq!(
            design.needs_profile(),
            profile.is_some(),
            "static designs need a profile; dynamic designs must not get one"
        );
        let mut cfg = cfg;
        design.apply_overrides(&mut cfg);
        let n = workloads.len();
        let addr_map = AddressMap::with_usable_rows(&cfg, workloads, usable_rows(&cfg, design));
        let cores = (0..n)
            .map(|_| Core::new(cfg.core, cfg.inst_budget))
            .collect();
        let hierarchy = CacheHierarchy::new(cfg.hierarchy, n);
        let timing = cfg.timing_override.unwrap_or_else(|| design.timing());
        let layout = cfg.bank_layout();
        let ctrls: Vec<MemoryController> = (0..cfg.geometry.channels)
            .map(|ch| {
                let dev = ChannelDevice::with_salp(
                    ch,
                    cfg.geometry.ranks_per_channel,
                    cfg.geometry.banks_per_rank,
                    layout.clone(),
                    timing,
                    cfg.refresh,
                    cfg.salp,
                );
                MemoryController::new(cfg.controller, dev)
            })
            .collect();
        let manager = if design.is_inclusive() {
            let mcfg = cfg.scaled_management(false);
            Some(DasManager::inclusive(mcfg, cfg.geometry.clone(), layout))
        } else if design.is_asymmetric() {
            let mcfg = cfg.scaled_management(design.needs_profile());
            let mut m = DasManager::new(mcfg, cfg.geometry.clone(), layout);
            if let Some(counts) = profile {
                m.static_place(counts);
            }
            if let Some(kind) = installed_policy(&cfg, design) {
                // Promotion economics from this backend's timing set: the
                // per-hit benefit is the activation-cycle gap, the swap
                // cost is what the backend charges for one promotion
                // (146.25 ns DAS, 48.75 ns LISA, 97.5 ns CLR morph).
                m.install_policy(
                    kind.build(),
                    PolicyCosts {
                        benefit_ns: timing.slow.trc().as_ns() - timing.fast.trc().as_ns(),
                        swap_cost_ns: timing.swap.as_ns(),
                    },
                );
            }
            Some(m)
        } else {
            None
        };
        let channels = cfg.geometry.channels as usize;
        let label = workloads
            .iter()
            .map(|w| w.name.as_str())
            .collect::<Vec<_>>()
            .join("+");
        let ticks_per_us = das_dram::tick::TICKS_PER_NS as f64 * 1_000.0;
        let tel = Telemetry::new(cfg.telemetry, channels, ticks_per_us);
        let epoch_ticks = cfg.cycles_to_ticks(cfg.telemetry.epoch_cycles);
        let g = &cfg.geometry;
        let table_rows_per_bank = g.table_rows().div_ceil(g.total_banks() as u64) as u32;
        let table_first_row = g.rows_per_bank - table_rows_per_bank.min(g.rows_per_bank);
        let next_epoch_at = if cfg.telemetry.enabled() {
            epoch_ticks
        } else {
            Tick::MAX
        };
        System {
            cfg,
            design,
            addr_map,
            cores,
            traces: sources,
            hierarchy,
            ctrls,
            manager,
            mshr: Mshr::new(1 << 16),
            coherence: None,
            shared_row_heat: FastMap::default(),
            events: EventQueue::new(),
            clock: Tick::ZERO,
            next_req_id: 0,
            ctxs: IdSlab::new(),
            overflow: (0..channels).map(|_| VecDeque::new()).collect(),
            next_wake: vec![Tick::MAX; channels],
            completions: Vec::new(),
            core_reqs: Vec::new(),
            pending_swaps: FastMap::default(),
            next_swap_token: 0,
            recent_translations: RecentRows::new(RECENT_TRANSLATIONS),
            table_first_row,
            uniform_activation: uniform_activation(&timing),
            workload_label: label,
            access_mix: AccessMix::default(),
            table_fetch_reads: 0,
            core_misses: vec![0; n],
            footprint_rows: DenseSet::default(),
            subarray_activity: DenseSet::default(),
            warm_core: vec![None; n],
            warm_global: None,
            events_processed: 0,
            same_tick_wakes: 0,
            tel,
            next_epoch_at,
            epoch_ticks,
            epochs_sampled: 0,
        }
    }

    fn push(&mut self, at: Tick, kind: EventKind) {
        self.events.push(at.max(self.clock), kind);
    }

    /// Runs the simulation to completion. Returns the measured metrics, or
    /// a [`SimError`] describing why the run could not finish (deadlock,
    /// runaway event count, wake storm, or an unrecoverable consistency
    /// violation), together with the telemetry report (`None` when the
    /// sink is off — see [`crate::config::SystemConfig::with_telemetry`]).
    /// The simulation never panics on these paths, and a failed run still
    /// returns the telemetry collected up to the failure: the event trace
    /// of a wedged controller is exactly what one wants to look at.
    pub fn run(mut self) -> (Result<RunMetrics, SimError>, Option<TelemetryReport>) {
        let outcome = self.run_loop();
        let tel = std::mem::replace(&mut self.tel, Telemetry::off());
        let mut report = tel.into_report();
        if let (Some(r), Some(coh)) = (report.as_mut(), &self.coherence) {
            let s = coh.cluster.stats();
            r.coh_counts = [
                s.bus_rd,
                s.bus_rdx,
                s.bus_upgr,
                s.bus_upd,
                s.invalidations,
                s.interventions,
                s.writeback_flushes,
            ];
        }
        match outcome {
            Ok(()) => (Ok(self.finalize()), report),
            Err(e) => (Err(e), report),
        }
    }

    fn run_loop(&mut self) -> Result<(), SimError> {
        for i in 0..self.cores.len() {
            self.dispatch_core(i);
        }
        while !self.all_finished() {
            let Some((at, kind)) = self.events.pop() else {
                return Err(SimError::Deadlock {
                    clock: self.clock,
                    queued: self.ctrls.iter().map(|c| c.queued()).collect(),
                    swaps: self.ctrls.iter().map(|c| c.queued_swaps()).collect(),
                    overflow: self.overflow.iter().map(|o| o.len()).collect(),
                });
            };
            self.events_processed += 1;
            // Watchdog: a controller woken over and over at one tick is
            // wedged; surface its queue state instead of spinning forever.
            if at == self.clock && matches!(kind, EventKind::CtrlWake { .. }) {
                self.same_tick_wakes += 1;
                if self.same_tick_wakes > self.cfg.watchdog_same_tick_wakes {
                    let EventKind::CtrlWake { ch } = kind else {
                        unreachable!()
                    };
                    self.tel
                        .instant("watchdog_fire", "recovery", self.clock.raw());
                    return Err(SimError::Stalled {
                        clock: self.clock,
                        channel: ch,
                        queued: self.ctrls[ch].queued(),
                        swaps: self.ctrls[ch].queued_swaps(),
                        wakes: self.same_tick_wakes,
                    });
                }
            } else {
                self.same_tick_wakes = 0;
            }
            if self.events_processed >= self.cfg.event_budget {
                return Err(SimError::EventBudgetExceeded {
                    clock: self.clock,
                    events: self.events_processed,
                    queued: self.ctrls.iter().map(|c| c.queued()).collect(),
                    swaps: self.ctrls.iter().map(|c| c.queued_swaps()).collect(),
                });
            }
            self.clock = at;
            // Epoch sampling is tick-driven: boundaries land at fixed
            // simulated times, so the series is deterministic. Off-sink
            // runs pay one always-false comparison (`next_epoch_at` is
            // `Tick::MAX`).
            while self.clock >= self.next_epoch_at {
                self.sample_epoch();
            }
            match kind {
                EventKind::CoreIssue {
                    core,
                    id,
                    addr,
                    is_write,
                } => self.handle_core_issue(core, id, addr, is_write)?,
                EventKind::CtrlEnqueue { req } => self.handle_enqueue(req)?,
                EventKind::CtrlWake { ch } => self.handle_wake(ch)?,
            }
        }
        Ok(())
    }

    /// Snapshots the cumulative run counters at the epoch boundary the
    /// clock just crossed and feeds them to the telemetry sink (which
    /// differences them into per-epoch deltas).
    fn sample_epoch(&mut self) {
        let boundary = self.next_epoch_at;
        self.next_epoch_at = boundary + self.epoch_ticks;
        self.epochs_sampled += 1;
        let mut reads = 0u64;
        let mut writes = 0u64;
        let mut read_queue = 0u64;
        let mut write_queue = 0u64;
        for c in &self.ctrls {
            let s = c.stats();
            reads += s.reads;
            writes += s.writes;
            read_queue += c.queued_reads() as u64;
            write_queue += c.queued_writes() as u64;
        }
        for o in &self.overflow {
            for r in o {
                if r.is_write {
                    write_queue += 1;
                } else {
                    read_queue += 1;
                }
            }
        }
        let mstats = self
            .manager
            .as_ref()
            .map(DasManager::stats)
            .unwrap_or_default();
        let cum = EpochCounters {
            cycle: self.epochs_sampled * self.tel.epoch_cycles(),
            insts: self.cores.iter().map(Core::insts_retired).sum(),
            reads,
            writes,
            row_hits: self.access_mix.row_buffer,
            fast_acts: self.access_mix.fast,
            slow_acts: self.access_mix.slow,
            promotions: mstats.promotions,
            read_queue,
            write_queue,
        };
        self.tel.epoch_boundary(boundary.raw(), cum);
    }

    fn all_finished(&self) -> bool {
        self.cores.iter().all(|c| c.is_finished())
    }

    // ---- core side -------------------------------------------------------

    fn dispatch_core(&mut self, i: usize) {
        let mut out = std::mem::take(&mut self.core_reqs);
        self.cores[i].dispatch_from(&mut self.traces[i], &mut out);
        self.schedule_core_requests(i, out);
        self.check_warm(i);
    }

    fn complete_core(&mut self, i: usize, id: u64, at: Tick) {
        let mut out = std::mem::take(&mut self.core_reqs);
        self.cores[i].complete(id, at.raw(), &mut out);
        self.schedule_core_requests(i, out);
        self.check_warm(i);
        self.dispatch_core(i);
    }

    /// Schedules `reqs` (drained) as core `i`'s issue events, then keeps
    /// the emptied buffer for the next dispatch.
    fn schedule_core_requests(&mut self, i: usize, mut reqs: Vec<MemRequest>) {
        for r in reqs.drain(..) {
            self.push(
                Tick::new(r.issue_at),
                EventKind::CoreIssue {
                    core: i,
                    id: r.id,
                    addr: r.addr,
                    is_write: r.is_write,
                },
            );
        }
        self.core_reqs = reqs;
    }

    fn check_warm(&mut self, i: usize) {
        if self.warm_core[i].is_none() && self.cores[i].insts_retired() >= self.cfg.warmup_insts() {
            self.warm_core[i] = Some((
                self.cores[i].insts_retired(),
                self.cores[i].finish_time(),
                self.core_misses[i],
            ));
            if self.warm_core.iter().all(Option::is_some) && self.warm_global.is_none() {
                self.warm_global = Some((
                    self.access_mix,
                    self.manager.as_ref().map_or(0, |m| m.stats().promotions),
                    self.table_fetch_reads,
                ));
            }
        }
    }

    fn handle_core_issue(
        &mut self,
        core: usize,
        id: u64,
        vaddr: u64,
        is_write: bool,
    ) -> Result<(), SimError> {
        let t = self.clock;
        // OS-style physical placement: scatter the workload-local address
        // over the whole usable row space. A coherent run's shared prefix
        // maps through core 0's placement, so every core names the same
        // physical rows there.
        let owner = match &self.coherence {
            Some(coh) if vaddr < coh.shared_bytes => 0,
            _ => core,
        };
        let addr = self.addr_map.map(owner, vaddr);
        self.footprint_rows
            .insert((addr / self.cfg.geometry.row_bytes as u64) as usize);
        let line = addr & !(self.cfg.hierarchy.line_bytes - 1);
        let (at, from_dram) = if self.coherence.is_some() {
            self.coherent_lookup(core, line, addr, is_write, t)
        } else {
            let outcome = self.hierarchy.access(core, addr, is_write);
            self.issue_hierarchy_writebacks(t);
            let done = t + self.cfg.cycles_to_ticks(outcome.lookup_cycles);
            (done, outcome.level == CacheLevel::Memory)
        };
        if !from_dram {
            if !is_write {
                self.complete_core(core, id, at);
            }
            return Ok(());
        }
        // LLC miss: a DRAM read fetches the line.
        self.core_misses[core] += 1;
        let waiter = Waiter {
            core,
            id,
            is_load: !is_write,
        };
        match self.mshr.register(line, waiter) {
            Some(true) => self.start_demand_read(line, at, core),
            Some(false) => {} // merged
            None => return Err(SimError::MshrSaturated { line }),
        }
        Ok(())
    }

    /// The coherent front end's lookup: the access first resolves in the
    /// private-cache cluster, which may satisfy it entirely (hit, or a
    /// peer's cache-to-cache transfer); only cluster misses that no peer
    /// supplies consult the shared LLC. Returns when the lookup finishes
    /// and whether DRAM must supply the line.
    fn coherent_lookup(
        &mut self,
        core: usize,
        line: u64,
        addr: u64,
        is_write: bool,
        t: Tick,
    ) -> (Tick, bool) {
        let now_cycles = t.raw() / self.cfg.core.ticks_per_cycle;
        let coh = self
            .coherence
            .as_mut()
            .expect("coherent lookup without front end");
        let out = coh.cluster.access(core, line, is_write, now_cycles);
        if out.shared {
            // The line was valid in another core's L1: sharing-induced
            // heat for its DRAM row, surfaced to the migration policy.
            let row_coord = self.cfg.geometry.decode(addr);
            let heat = self
                .shared_row_heat
                .entry((row_coord.bank, row_coord.row))
                .or_insert(0);
            *heat = heat.saturating_add(1);
        }
        if let Some(wait) = out.bus_wait {
            self.tel.coh_bus_wait(wait);
        }
        // Dirty lines flushed out of the cluster land in the LLC when it
        // holds them; otherwise they go to DRAM.
        for wb in out.writebacks {
            if !self.hierarchy.llc_write_back(wb) {
                self.issue_writeback_at(wb, t);
            }
        }
        let done = t + self.cfg.cycles_to_ticks(out.cycles);
        if !out.fetch_below {
            return (done, false);
        }
        // The LLC allocates at lookup time (as the table-fetch path does);
        // the DRAM round trip still gates this requester's completion.
        let hit = self.hierarchy.llc_side_access(line);
        self.issue_hierarchy_writebacks(done);
        let llc_lat = self.cfg.cycles_to_ticks(self.cfg.hierarchy.llc_latency);
        (done + llc_lat, !hit)
    }

    // ---- DRAM request construction ---------------------------------------

    fn new_req_id(&mut self) -> u64 {
        self.next_req_id += 1;
        self.next_req_id
    }

    /// Translates `(bank, logical row)`; returns the physical row plus any
    /// extra latency (LLC lookup) and, when the table line missed the LLC,
    /// the table-read request that must precede the access.
    fn translate(
        &mut self,
        bank: BankCoord,
        logical_row: u32,
        now: Tick,
    ) -> (u32, Tick, Option<Request>) {
        // A row translated moments ago is still held in the controller's
        // per-row registers: no lookup needed.
        if self.recent_translations.contains(bank, logical_row) {
            if let Some(m) = self.manager.as_ref() {
                let (phys, _) = m.peek(bank, logical_row);
                return (phys, now, None);
            }
        }
        let Some(manager) = self.manager.as_mut() else {
            return (logical_row, now, None);
        };
        let tr = manager.translate(bank, logical_row);
        self.recent_translations.note(bank, logical_row);
        match tr.source {
            TranslationSource::Cache => (tr.phys_row, now, None),
            TranslationSource::TableFetch => {
                let llc_lat = self.cfg.cycles_to_ticks(self.cfg.hierarchy.llc_latency);
                let hit = self.hierarchy.llc_side_access(tr.table_line);
                self.issue_hierarchy_writebacks(now);
                if hit {
                    (tr.phys_row, now + llc_lat, None)
                } else {
                    // The table line must be read from DRAM first.
                    let coord = self.cfg.geometry.decode(tr.table_line);
                    let id = self.new_req_id();
                    let table_req = Request {
                        id,
                        coord, // identity mapping: the table region is not permuted
                        is_write: false,
                        arrival: now + llc_lat,
                    };
                    self.table_fetch_reads += 1;
                    (tr.phys_row, now + llc_lat, Some(table_req))
                }
            }
        }
    }

    fn start_demand_read(&mut self, line: u64, t: Tick, fill_core: usize) {
        let coord = self.cfg.geometry.decode(line);
        let (phys_row, ready, table_req) = self.translate(coord.bank, coord.row, t);
        let id = self.new_req_id();
        let demand = Request {
            id,
            coord: MemCoord {
                bank: coord.bank,
                row: phys_row,
                col: coord.col,
            },
            is_write: false,
            arrival: ready,
        };
        self.ctxs.insert(
            id,
            ReqCtx::DemandRead {
                line,
                bank: coord.bank,
                logical_row: coord.row,
                fill_core,
            },
        );
        match table_req {
            Some(tr) => {
                self.ctxs
                    .insert(tr.id, ReqCtx::TableRead { then: Some(demand) });
                self.push(tr.arrival, EventKind::CtrlEnqueue { req: tr });
            }
            None => self.push(ready, EventKind::CtrlEnqueue { req: demand }),
        }
    }

    /// Issues a DRAM write at `t` for each dirty line the last hierarchy
    /// call pushed out, in eviction order.
    fn issue_hierarchy_writebacks(&mut self, t: Tick) {
        for i in 0..self.hierarchy.dram_writebacks().len() {
            let line = self.hierarchy.dram_writebacks()[i];
            self.issue_writeback_at(line, t);
        }
    }

    fn issue_writeback_at(&mut self, line: u64, t: Tick) {
        // Write-backs carry a physical-location hint with the dirty line
        // (recorded at fill time), so no translation lookup is needed: the
        // manager's authoritative mapping stands in for the hint. The
        // paper does not specify write-back translation; hint forwarding is
        // the natural implementation and keeps the translation overhead at
        // the §7 level (see DESIGN.md).
        let coord = self.cfg.geometry.decode(line);
        let phys_row = match self.manager.as_ref() {
            Some(m) => m.peek(coord.bank, coord.row).0,
            None => coord.row,
        };
        let id = self.new_req_id();
        let req = Request {
            id,
            coord: MemCoord {
                bank: coord.bank,
                row: phys_row,
                col: coord.col,
            },
            is_write: true,
            arrival: t,
        };
        self.ctxs.insert(
            id,
            ReqCtx::DemandWrite {
                bank: coord.bank,
                logical_row: coord.row,
            },
        );
        self.push(t, EventKind::CtrlEnqueue { req });
    }

    // ---- controller side ---------------------------------------------------

    fn handle_enqueue(&mut self, req: Request) -> Result<(), SimError> {
        let ch = req.coord.bank.channel as usize;
        let accept = if req.is_write {
            self.ctrls[ch].can_accept_write()
        } else {
            self.ctrls[ch].can_accept_read()
        };
        if accept {
            self.ctrls[ch].enqueue(req)?;
            self.schedule_wake(ch);
        } else {
            self.overflow[ch].push_back(req);
        }
        Ok(())
    }

    fn handle_wake(&mut self, ch: usize) -> Result<(), SimError> {
        // Only the event matching the currently scheduled wake is live;
        // anything else was superseded by an earlier push (processing it
        // would multiplicatively re-spawn wake events).
        if self.next_wake[ch] != self.clock {
            return Ok(());
        }
        self.next_wake[ch] = Tick::MAX;
        let mut completions = std::mem::take(&mut self.completions);
        self.ctrls[ch].advance_into(self.clock, &mut completions)?;
        for c in completions.drain(..) {
            self.handle_completion(ch, c)?;
        }
        self.completions = completions;
        // Drain overflow into freed queue slots (FIFO, reads and writes
        // interleaved as they arrived).
        while let Some(req) = self.overflow[ch].front().copied() {
            let ok = if req.is_write {
                self.ctrls[ch].can_accept_write()
            } else {
                self.ctrls[ch].can_accept_read()
            };
            if !ok {
                break;
            }
            self.overflow[ch].pop_front();
            self.ctrls[ch].enqueue(req)?;
        }
        self.schedule_wake(ch);
        Ok(())
    }

    fn schedule_wake(&mut self, ch: usize) {
        if let Some(t) = self.ctrls[ch].next_action_time(self.clock) {
            let t = t.max(self.clock);
            if t < self.next_wake[ch] {
                self.next_wake[ch] = t;
                self.push(t, EventKind::CtrlWake { ch });
            }
        }
    }

    /// How a serviced access counts in the access mix, the epoch series
    /// and the latency histograms: a row-buffer hit, or the class of the
    /// activation it needed. A design with one activation latency counts
    /// every activation under it, whatever the layout's nominal class.
    fn access_class(&self, service: ServiceClass) -> LatencyClass {
        match (service, self.uniform_activation) {
            (ServiceClass::RowBufferHit, _) => LatencyClass::RowBufferHit,
            (_, Some(class)) => class,
            (ServiceClass::FastMiss, None) => LatencyClass::FastMiss,
            (ServiceClass::SlowMiss, None) => LatencyClass::SlowMiss,
        }
    }

    fn handle_completion(&mut self, ch: usize, c: Completion) -> Result<(), SimError> {
        let (id, at, service, latency, is_write) = match c {
            Completion::ReadDone {
                id,
                at,
                service,
                latency,
            } => (id, at, service, latency, false),
            Completion::WriteDone {
                id,
                at,
                service,
                latency,
            } => (id, at, service, latency, true),
            Completion::SwapDone { token, at: _ } => {
                let Some(req) = self.pending_swaps.remove(&token) else {
                    return Err(SimError::UnknownCompletion {
                        kind: "swap",
                        id: token,
                    });
                };
                self.tel.swap_commit(token, self.clock.raw());
                // A migration moves only its promotee and victim, so only
                // their held translations go stale.
                self.recent_translations.forget(req.bank, req.promotee);
                if let Some(victim) = req.victim {
                    self.recent_translations.forget(req.bank, victim);
                }
                // Only a manager issues migrations.
                if let Some(m) = self.manager.as_mut() {
                    m.commit_swap(&req, self.clock.raw());
                }
                return Ok(());
            }
        };
        let class = self.access_class(service);
        self.tel.record_latency(ch, class, latency.raw());
        let kind = if is_write { "write" } else { "read" };
        let Some(ctx) = self.ctxs.remove(id) else {
            return Err(SimError::UnknownCompletion { kind, id });
        };
        let (bank, logical_row) = match (ctx, is_write) {
            (ReqCtx::TableRead { then }, false) => {
                if let Some(mut demand) = then {
                    demand.arrival = at;
                    self.push(at, EventKind::CtrlEnqueue { req: demand });
                }
                return Ok(());
            }
            (
                ReqCtx::DemandRead {
                    bank, logical_row, ..
                },
                false,
            )
            | (ReqCtx::DemandWrite { bank, logical_row }, true) => (bank, logical_row),
            _ => return Err(SimError::ContextMismatch { kind, id }),
        };
        self.access_mix.record(class);
        // Table-region traffic is neither tracked by subarray nor managed.
        if logical_row < self.table_first_row {
            self.record_subarray(bank, logical_row);
            self.after_data_access(bank, logical_row, is_write, at);
        }
        if let ReqCtx::DemandRead {
            line, fill_core, ..
        } = ctx
        {
            self.fill_line(line, fill_core, at);
        }
        Ok(())
    }

    fn record_subarray(&mut self, bank: BankCoord, logical_row: u32) {
        let phys = match self.manager.as_ref() {
            Some(m) => m.peek(bank, logical_row).0,
            None => logical_row,
        };
        let layout = self.ctrls[bank.channel as usize].channel().layout();
        let (sub, _) = layout.classify(phys);
        let per_bank = layout.subarrays().len();
        self.subarray_activity
            .insert(self.cfg.geometry.bank_index(bank) * per_bank + sub);
    }

    /// Hands a demand read's line to the caches and wakes its waiters.
    fn fill_line(&mut self, line: u64, fill_core: usize, at: Tick) {
        let waiters = self.mshr.complete(line);
        if self.coherence.is_none() {
            // Coherent runs skip this: the private copy lives in the
            // cluster and the LLC already allocated at lookup time. The
            // line fills dirty when a merged miss was a store.
            let dirty = waiters.iter().any(|w| !w.is_load);
            self.hierarchy.fill_from_memory(fill_core, line, dirty);
            self.issue_hierarchy_writebacks(at);
        }
        for w in waiters.iter().filter(|w| w.is_load) {
            let mut out = std::mem::take(&mut self.core_reqs);
            self.cores[w.core].complete(w.id, at.raw(), &mut out);
            self.schedule_core_requests(w.core, out);
        }
        // Each waiting core is dispatched once, in waiter order.
        for (i, w) in waiters.iter().enumerate() {
            if waiters[..i].iter().all(|p| p.core != w.core) {
                self.check_warm(w.core);
                self.dispatch_core(w.core);
            }
        }
    }

    /// Notifies the manager of a data access, and issues the migration it
    /// decides on.
    fn after_data_access(&mut self, bank: BankCoord, logical_row: u32, is_write: bool, at: Tick) {
        let Some(m) = self.manager.as_mut() else {
            return;
        };
        if is_write {
            m.on_write(bank, logical_row, at.raw());
            return;
        }
        // Sharing-induced heat for this row (0 without a coherent front
        // end); only adaptive policies read it.
        let shared = self
            .shared_row_heat
            .get(&(bank, logical_row))
            .copied()
            .unwrap_or(0);
        let Some(req) = m.on_data_access_shared(bank, logical_row, at.raw(), shared) else {
            return;
        };
        // Sharing-induced promotion accounting: a promoted row inside the
        // coherent shared footprint got hot because multiple cores
        // hammered it.
        if let Some(coh) = self.coherence.as_mut() {
            if coh.shared_rows.contains(&(bank, logical_row)) {
                coh.cluster.note_shared_promotion();
            }
        }
        self.next_swap_token += 1;
        let token = self.next_swap_token;
        self.pending_swaps.insert(token, req);
        self.tel.swap_begin(token, at.raw(), bank.channel as u32);
        let ch = bank.channel as usize;
        self.ctrls[ch].enqueue_swap(SwapOp {
            token,
            bank,
            phys_a: req.phys_a,
            phys_b: req.phys_b,
            kind: req.kind,
            arrival: at,
        });
        self.schedule_wake(ch);
    }

    // ---- finalisation ------------------------------------------------------

    fn finalize(self) -> RunMetrics {
        let warm_global = self.warm_global.unwrap_or((AccessMix::default(), 0, 0));
        let tpc = self.cfg.core.ticks_per_cycle;
        let cores: Vec<CoreMetrics> = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let (wi, wt, wm) = self.warm_core[i].unwrap_or((0, 0, 0));
                CoreMetrics {
                    insts: c.insts_retired() - wi,
                    cycles: (c.finish_time() - wt) / tpc,
                    llc_misses: self.core_misses[i] - wm,
                }
            })
            .collect();
        let promotions_total = self.manager.as_ref().map_or(0, |m| m.stats().promotions);
        let mix = self.access_mix.since(&warm_global.0);
        let promotions = promotions_total - warm_global.1;
        let accesses = mix.total();
        let table_reads = self.table_fetch_reads - warm_global.2;
        let llc_misses = cores.iter().map(|c| c.llc_misses).sum();
        let window_cycles = cores.iter().map(|c| c.cycles).max().unwrap_or(0);
        let model = EnergyModel::default();
        let energy = EnergyBreakdown {
            act_pre_nj: mix.fast as f64 * model.act_pre_fast_nj
                + mix.slow as f64 * model.act_pre_slow_nj,
            burst_nj: accesses as f64 * (model.read_nj + model.write_nj) / 2.0,
            migration_nj: promotions as f64 * model.swap_nj,
            background_nj: {
                let ns = window_cycles as f64 / 3.0; // 3 GHz
                self.ctrls.len() as f64 * model.background_mw * 1e-3 * ns
            },
        };
        let total_subarrays = {
            let per_bank = self.ctrls[0].channel().layout().subarrays().len();
            per_bank * self.cfg.geometry.total_banks() as usize
        };
        RunMetrics {
            design: self.design.label().to_string(),
            workload: self.workload_label,
            cores,
            access_mix: mix,
            promotions,
            memory_accesses: accesses,
            llc_misses,
            footprint_bytes: self.footprint_rows.len() as u64 * self.cfg.geometry.row_bytes as u64,
            translation: self
                .manager
                .as_ref()
                .map(|m| m.translation_stats())
                .unwrap_or_default(),
            filter: self
                .manager
                .as_ref()
                .map(|m| m.filter_stats())
                .unwrap_or_default(),
            table_fetch_reads: table_reads,
            energy,
            window_cycles,
            active_subarrays: self.subarray_activity.len(),
            total_subarrays,
            coherence: self
                .coherence
                .as_ref()
                .map(|c| crate::stats::CoherenceMetrics {
                    protocol: c.cluster.protocol_kind().label().to_string(),
                    cores: c.cluster.config().cores,
                    stats: c.cluster.stats().clone(),
                }),
            // Reported exactly when `cfg.policy` replaced the default
            // `PaperFixed` rule at assembly.
            policy: installed_policy(&self.cfg, self.design)
                .and(self.manager.as_ref())
                .map(DasManager::policy_stats)
                .map(|(kind, stats, threshold)| crate::stats::PolicyMetrics {
                    policy: kind.key().to_string(),
                    promotes: stats.promotes,
                    holds: stats.holds,
                    threshold_adjusts: stats.threshold_adjusts,
                    epochs: stats.epochs,
                    final_threshold: threshold,
                }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_workloads::spec;

    fn cfg() -> SystemConfig {
        SystemConfig::test_small()
    }

    fn workloads4() -> Vec<WorkloadConfig> {
        ["astar", "omnetpp", "soplex", "leslie3d"]
            .iter()
            .map(|n| spec::by_name(n).scaled(64))
            .collect()
    }

    #[test]
    fn address_map_is_injective_and_disjoint_across_cores() {
        let cfg = cfg();
        let wls = workloads4();
        let map = AddressMap::new(&cfg, &wls);
        let mut seen = std::collections::HashSet::new();
        for (core, w) in wls.iter().enumerate() {
            for vrow in 0..w.footprint_rows().min(500) {
                let p = map.map(core, vrow * cfg.geometry.row_bytes as u64);
                assert_eq!(p % cfg.geometry.row_bytes as u64, 0);
                assert!(
                    p < cfg.geometry.total_bytes() - cfg.geometry.total_rows(),
                    "must stay below the table region"
                );
                assert!(seen.insert(p), "core {core} row {vrow} collided");
            }
        }
    }

    #[test]
    fn address_map_preserves_offsets_within_rows() {
        let cfg = cfg();
        let wls = vec![spec::by_name("libquantum").scaled(64)];
        let map = AddressMap::new(&cfg, &wls);
        let a = map.map(0, 3 * 8192 + 128);
        let b = map.map(0, 3 * 8192 + 256);
        assert_eq!(a % 8192, 128);
        assert_eq!(b - a, 128, "same row, consecutive offsets");
    }

    #[test]
    fn profile_view_differs_for_some_rows_only() {
        let cfg = cfg();
        let wls = vec![spec::by_name("mcf").scaled(64)];
        let map = AddressMap::new(&cfg, &wls);
        let prof = map.profile_view();
        let rows = wls[0].footprint_rows();
        let moved = (0..rows)
            .filter(|&v| map.map(0, v * 8192) != prof.map(0, v * 8192))
            .count();
        let frac = moved as f64 / rows as f64;
        assert!(
            (frac - cfg.profile_realloc).abs() < 0.1,
            "≈{} of pages should be reallocated, got {frac}",
            cfg.profile_realloc
        );
    }

    #[test]
    #[should_panic(expected = "exceeds its share")]
    fn oversized_footprints_are_rejected() {
        let cfg = cfg();
        let mut w = spec::by_name("mcf");
        w.footprint_bytes = cfg.geometry.total_bytes() * 2;
        let _ = AddressMap::new(&cfg, &[w]);
    }

    #[test]
    fn recorded_stubs_capture_footprints() {
        let cfg = cfg();
        let traces = vec![vec![
            das_cpu::trace::TraceItem::load(1, 0),
            das_cpu::trace::TraceItem::load(1, 100 * 8192 + 64),
        ]];
        let stubs = recorded_workload_stubs(&cfg, &traces);
        assert_eq!(stubs.len(), 1);
        assert_eq!(stubs[0].footprint_bytes, 101 * 8192);
    }

    #[test]
    fn only_homogeneous_designs_have_a_uniform_activation_class() {
        for d in Design::every() {
            let want = match d {
                Design::Standard | Design::Salp => Some(LatencyClass::SlowMiss),
                Design::FsDram => Some(LatencyClass::FastMiss),
                _ => None,
            };
            assert_eq!(uniform_activation(&d.timing()), want, "{}", d.key());
        }
    }

    #[test]
    fn table_region_occupies_top_rows() {
        let wls = workloads4();
        let sources = wls
            .iter()
            .map(|_| Box::new(std::iter::empty()) as TraceSource);
        let sys = System::new(cfg(), Design::Standard, &wls, sources.collect(), None);
        let first = sys.table_first_row;
        assert!(first < sys.cfg.geometry.rows_per_bank);
        assert!(
            first >= sys.cfg.geometry.rows_per_bank - 2,
            "table needs only the very top rows at this scale: {first}"
        );
    }
}
