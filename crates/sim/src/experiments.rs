//! Experiment runners: profiling pre-pass, single runs, design suites and
//! the improvement metric used across all figures.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

use das_cache::hierarchy::{CacheHierarchy, CacheLevel};
use das_cache::FastMap;
use das_cpu::trace::TraceItem;
use das_dram::geometry::GlobalRowId;
use das_workloads::config::WorkloadConfig;
use das_workloads::gen::TraceGen;

use das_telemetry::TelemetryReport;

use crate::config::{Design, SystemConfig};
use crate::stats::RunMetrics;
use crate::system::{
    recorded_workload_stubs, row_share, usable_rows, AddressMap, SimError, System, TraceSource,
};

/// LLC-miss counts per row: the profile the static designs (SAS/CHARM) are
/// placed from. Consumers only look rows up, so iteration order never
/// reaches a result.
pub type RowProfile = FastMap<GlobalRowId, u64>;

/// Runs the profiling pre-pass used by the static designs (SAS/CHARM):
/// the same workloads are pushed through a fresh cache hierarchy and
/// LLC-miss row access counts are collected (§7: "each workload is
/// profiled first").
///
/// Workloads must already be scaled.
pub fn profile_row_counts(cfg: &SystemConfig, workloads: &[WorkloadConfig]) -> RowProfile {
    // Profiling observes a *different run* of the program (SPEC profiles
    // are gathered on train inputs; the measured episode runs ref): phase
    // positions will not line up with the measured episode, which is what
    // limits static placement in the paper.
    let profile_seed = cfg.seed ^ 0x5052_4F46; // "PROF"
    let gens = workloads
        .iter()
        .map(|w| TraceGen::new(w.clone(), profile_seed, 0))
        .collect();
    let addr_map = AddressMap::new(cfg, workloads).profile_view();
    let horizon = cfg.inst_budget * cfg.profile_multiplier.max(1);
    llc_miss_rows(cfg, &addr_map, gens, Some(horizon))
}

/// References per chunk handed from the profile walk's placing stage to its
/// cache stage.
const CHUNK_REFS: usize = 512;

/// Chunks that exist per walk. They circulate between the two stages, so
/// at most `CHUNKS × CHUNK_REFS` references (48 KB) are ever buffered.
const CHUNKS: usize = 4;

/// One reference of the profile walk, placed and resolved by the first
/// stage: the physical address, the row an LLC miss on it counts against
/// and the issuing core.
struct PlacedRef {
    addr: u64,
    row: GlobalRowId,
    core: u32,
    is_write: bool,
}

/// Walks `streams` (one per core, placed by `addr_map`) through a fresh
/// cache hierarchy and counts LLC misses per row. The streams interleave
/// round-robin, one reference per core at a time, and each stops when it
/// ends or after `horizon` instructions.
///
/// The interleaving only matters when the private caches are small enough
/// to let shared-LLC contention through. At scale 64 the unscaled 256 KB
/// private L2s filter it: feeding each core 512 references at a time gives
/// byte-identical fig7a and M1 profiles. Only small private caches (e.g.
/// 1 KB L1s and 4 KB L2s) tell the two orders apart.
///
/// The walk runs as two stages, joined before it returns: a helper thread
/// pulls, places and resolves the references in walk order
/// ([`place_refs`]), and the calling thread walks them through the
/// hierarchy in the same order ([`count_misses`]). No hierarchy outcome
/// feeds back into the streams, so the counts are those of one sequential
/// walk.
fn llc_miss_rows<I: Iterator<Item = TraceItem> + Send>(
    cfg: &SystemConfig,
    addr_map: &AddressMap,
    streams: Vec<I>,
    horizon: Option<u64>,
) -> RowProfile {
    let cores = streams.len();
    let (full_tx, full_rx) = sync_channel(CHUNKS);
    let (free_tx, free_rx) = sync_channel(CHUNKS);
    for _ in 0..CHUNKS {
        free_tx
            .send(Vec::with_capacity(CHUNK_REFS))
            .expect("the free list has room for every chunk");
    }
    // Each stage owns its channel ends, so a stage that stops (or panics)
    // disconnects the other instead of leaving it blocked.
    std::thread::scope(|scope| {
        let placer =
            scope.spawn(move || place_refs(cfg, addr_map, streams, horizon, free_rx, full_tx));
        let counts = count_misses(cfg, cores, full_rx, free_tx);
        if let Err(panic) = placer.join() {
            std::panic::resume_unwind(panic);
        }
        counts
    })
}

/// The second stage of [`llc_miss_rows`]: walks each chunk's references
/// through a fresh hierarchy, counts the LLC misses per row and returns
/// the emptied chunk to `free`.
fn count_misses(
    cfg: &SystemConfig,
    cores: usize,
    full: Receiver<Vec<PlacedRef>>,
    free: SyncSender<Vec<PlacedRef>>,
) -> RowProfile {
    let mut hierarchy = CacheHierarchy::new(cfg.hierarchy, cores);
    let line_mask = !(cfg.hierarchy.line_bytes - 1);
    let mut counts = RowProfile::default();
    for mut chunk in full {
        for r in &chunk {
            let core = r.core as usize;
            if hierarchy.access(core, r.addr, r.is_write).level == CacheLevel::Memory {
                *counts.entry(r.row).or_insert(0) += 1;
                hierarchy.fill_from_memory(core, r.addr & line_mask, r.is_write);
            }
        }
        chunk.clear();
        // Never blocks: the free list has room for every chunk. It fails
        // only once the first stage is done with it.
        let _ = free.send(chunk);
    }
    counts
}

/// The first stage of [`llc_miss_rows`]: pulls the streams round-robin,
/// applies the horizon, places and resolves each reference, and sends them
/// in chunks of [`CHUNK_REFS`] (the last one partial) taken from `free`.
/// Dropping `full` on return ends the walk.
fn place_refs<I: Iterator<Item = TraceItem>>(
    cfg: &SystemConfig,
    addr_map: &AddressMap,
    mut streams: Vec<I>,
    horizon: Option<u64>,
    free: Receiver<Vec<PlacedRef>>,
    full: SyncSender<Vec<PlacedRef>>,
) {
    let horizon = horizon.unwrap_or(u64::MAX);
    let line_mask = !(cfg.hierarchy.line_bytes - 1);
    let mut insts = vec![0u64; streams.len()];
    // A send or receive fails only if the cache stage has stopped (it
    // panicked), and then there is no one left to feed.
    let Ok(mut chunk) = free.recv() else { return };
    let mut live = streams.len();
    while live > 0 {
        live = 0;
        for (i, s) in streams.iter_mut().enumerate() {
            if insts[i] >= horizon {
                continue;
            }
            live += 1;
            let Some(item) = s.next() else {
                insts[i] = horizon;
                continue;
            };
            insts[i] += item.insts();
            let addr = addr_map.map(i, item.addr);
            let coord = cfg.geometry.decode(addr & line_mask);
            chunk.push(PlacedRef {
                addr,
                row: cfg.geometry.global_row_id(coord.bank, coord.row),
                core: i as u32,
                is_write: item.is_write,
            });
            if chunk.len() == CHUNK_REFS {
                if full.send(chunk).is_err() {
                    return;
                }
                let Ok(next) = free.recv() else { return };
                chunk = next;
            }
        }
    }
    if !chunk.is_empty() {
        let _ = full.send(chunk);
    }
}

/// Runs one full-system simulation of `design` over `workloads` (given at
/// full scale; footprints are scaled by `cfg.scale`).
///
/// # Errors
///
/// Returns the [`SimError`] if the run could not finish (deadlock, runaway
/// event count, stalled controller, unrecoverable consistency violation).
pub fn run_one(
    cfg: &SystemConfig,
    design: Design,
    workloads: &[WorkloadConfig],
) -> Result<RunMetrics, SimError> {
    run_one_instrumented(cfg, design, workloads).0
}

/// Like [`run_one`], but also returns the telemetry report (`None` when
/// `cfg.telemetry` is off). On a failed run the telemetry collected up to
/// the failure is still returned.
pub fn run_one_instrumented(
    cfg: &SystemConfig,
    design: Design,
    workloads: &[WorkloadConfig],
) -> (Result<RunMetrics, SimError>, Option<TelemetryReport>) {
    let scaled: Vec<WorkloadConfig> = workloads
        .iter()
        .map(|w| w.scaled(cfg.scale as u64))
        .collect();
    let profile = design
        .needs_profile()
        .then(|| profile_row_counts(cfg, &scaled));
    let sources = scaled
        .iter()
        .map(|w| Box::new(TraceGen::new(w.clone(), cfg.seed, 0)) as TraceSource)
        .collect();
    System::new(cfg.clone(), design, &scaled, sources, profile.as_ref()).run()
}

/// Runs one simulation over **recorded traces** (one per core), e.g. loaded
/// with [`das_workloads::trace_file::read_trace`]. Footprints are inferred
/// from the traces' maximum addresses. For the static designs the profile
/// is derived by walking the same traces, interleaved round-robin, through
/// a fresh cache hierarchy under the timed run's placement (an oracle
/// profile: recorded traces *are* the measured execution — document
/// accordingly when comparing).
///
/// # Errors
///
/// Returns [`SimError::FootprintExceedsShare`] before any simulation when
/// a trace's addresses span more than its share of `design`'s usable
/// rows, and otherwise the [`SimError`] if the run could not finish.
///
/// # Panics
///
/// Panics if `traces` is empty or holds an empty trace.
pub fn run_recorded(
    cfg: &SystemConfig,
    design: Design,
    traces: Vec<Vec<TraceItem>>,
) -> Result<RunMetrics, SimError> {
    let stubs = recorded_workload_stubs(cfg, &traces);
    let mut placed = cfg.clone();
    design.apply_overrides(&mut placed);
    row_share(&stubs, usable_rows(&placed, design))?;
    let profile = design.needs_profile().then(|| {
        let streams = traces.iter().map(|t| t.iter().copied()).collect();
        llc_miss_rows(cfg, &AddressMap::new(cfg, &stubs), streams, None)
    });
    let sources = traces
        .into_iter()
        .map(|t| Box::new(t.into_iter()) as TraceSource)
        .collect();
    System::new(cfg.clone(), design, &stubs, sources, profile.as_ref())
        .run()
        .0
}

/// Runs one full-system simulation with the coherent multi-core front end
/// mounted: `spec.cores` trace-fed cores with private L1s kept coherent by
/// `protocol` over a snooping bus, sharing the LLC → memctrl → DRAM path.
/// The workload streams are generated from `spec` (shared-footprint
/// producer/consumer, lock, or frontier traffic); `spec` should already be
/// scaled (see [`das_workloads::shared::SharedSpec::scaled`]).
///
/// # Errors
///
/// Returns the [`SimError`] if the run could not finish.
///
/// # Panics
///
/// Panics if `design` needs a profiling pre-pass (static designs are not
/// supported under the coherent front end).
pub fn run_one_coherent(
    cfg: &SystemConfig,
    design: Design,
    spec: &das_workloads::shared::SharedSpec,
    protocol: das_coherence::ProtocolKind,
) -> Result<RunMetrics, SimError> {
    run_one_coherent_instrumented(cfg, design, spec, protocol).0
}

/// Like [`run_one_coherent`], but also returns the telemetry report
/// (`None` when `cfg.telemetry` is off).
///
/// # Panics
///
/// Panics if `design` needs a profiling pre-pass.
pub fn run_one_coherent_instrumented(
    cfg: &SystemConfig,
    design: Design,
    spec: &das_workloads::shared::SharedSpec,
    protocol: das_coherence::ProtocolKind,
) -> (Result<RunMetrics, SimError>, Option<TelemetryReport>) {
    let scaled = spec.scaled(cfg.scale as u64);
    System::with_coherence(cfg.clone(), design, &scaled, protocol).run()
}

/// The paper's performance-improvement metric against the Std-DRAM
/// baseline: for single-programming the IPC ratio; for multi-programming
/// the mean per-core speedup (weighted speedup normalised by core count).
///
/// # Panics
///
/// Panics if the two runs have different core counts.
pub fn improvement(run: &RunMetrics, base: &RunMetrics) -> f64 {
    let ipcs = |m: &RunMetrics| m.cores.iter().map(|c| c.ipc()).collect::<Vec<f64>>();
    ipc_improvement(&ipcs(run), &ipcs(base))
}

/// [`improvement`] over per-core IPCs in core order: the mean per-core
/// speedup minus one, where a core with a zero baseline IPC counts as
/// speedup 1. Journalled reports replay it from their serialised IPCs.
///
/// # Panics
///
/// Panics if the two slices differ in length.
pub fn ipc_improvement(run: &[f64], base: &[f64]) -> f64 {
    assert_eq!(run.len(), base.len(), "mismatched systems");
    let speedups = run
        .iter()
        .zip(base)
        .map(|(&r, &b)| if b == 0.0 { 1.0 } else { r / b });
    speedups.sum::<f64>() / run.len() as f64 - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_workloads::{mixes, spec};

    fn quick_cfg() -> SystemConfig {
        SystemConfig::test_small()
    }

    fn libq() -> Vec<WorkloadConfig> {
        vec![spec::by_name("libquantum")]
    }

    #[test]
    fn standard_run_completes_and_reports() {
        let m = run_one(&quick_cfg(), Design::Standard, &libq()).unwrap();
        assert!(m.ipc() > 0.0, "IPC must be positive: {m:?}");
        assert!(m.llc_misses > 0, "libquantum must miss");
        assert_eq!(m.access_mix.fast, 0, "standard DRAM has no fast level");
        assert_eq!(m.promotions, 0);
        assert!(m.footprint_bytes > 0);
    }

    #[test]
    fn fs_dram_beats_standard() {
        let cfg = quick_cfg();
        let base = run_one(&cfg, Design::Standard, &libq()).unwrap();
        let fs = run_one(&cfg, Design::FsDram, &libq()).unwrap();
        let imp = improvement(&fs, &base);
        assert!(imp > 0.0, "FS-DRAM must improve on Std-DRAM: {imp}");
        assert_eq!(fs.access_mix.slow, 0, "FS-DRAM has no slow level");
    }

    #[test]
    fn das_promotes_and_lands_between_std_and_fs() {
        // mcf: phase-drifting pointer chase — promotions keep happening
        // after warm-up, unlike a stream that settles into the fast level.
        let cfg = quick_cfg();
        let wl = vec![spec::by_name("mcf")];
        let base = run_one(&cfg, Design::Standard, &wl).unwrap();
        let das = run_one(&cfg, Design::DasDram, &wl).unwrap();
        let fs = run_one(&cfg, Design::FsDram, &wl).unwrap();
        assert!(das.promotions > 0, "DAS must migrate rows");
        let das_imp = improvement(&das, &base);
        let fs_imp = improvement(&fs, &base);
        assert!(das_imp > 0.0, "DAS must beat Std: {das_imp}");
        assert!(
            das_imp <= fs_imp + 0.02,
            "DAS cannot beat FS by more than noise"
        );
    }

    #[test]
    fn precomputed_profile_matches_inline_computation() {
        let cfg = quick_cfg();
        let scaled: Vec<_> = libq().iter().map(|w| w.scaled(cfg.scale as u64)).collect();
        let profile = profile_row_counts(&cfg, &scaled);
        let inline = run_one(&cfg, Design::SasDram, &libq()).unwrap();
        let sources = scaled
            .iter()
            .map(|w| Box::new(TraceGen::new(w.clone(), cfg.seed, 0)) as TraceSource)
            .collect();
        let shared = System::new(cfg, Design::SasDram, &scaled, sources, Some(&profile))
            .run()
            .0
            .unwrap();
        assert_eq!(format!("{inline:?}"), format!("{shared:?}"));
    }

    #[test]
    fn tiny_event_budget_is_reported_as_runaway() {
        let cfg = quick_cfg().with_event_budget(1_000);
        match run_one(&cfg, Design::Standard, &libq()) {
            Err(SimError::EventBudgetExceeded { events, .. }) => assert!(events >= 1_000),
            other => panic!("expected EventBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn profile_counts_cover_the_footprint() {
        let cfg = quick_cfg();
        let scaled: Vec<_> = libq().iter().map(|w| w.scaled(cfg.scale as u64)).collect();
        let counts = profile_row_counts(&cfg, &scaled);
        assert!(!counts.is_empty());
        let total: u64 = counts.values().sum();
        assert!(total > 100, "plenty of misses profiled: {total}");
    }

    #[test]
    fn coherent_run_completes_and_reports_coherence() {
        use das_coherence::ProtocolKind;
        use das_workloads::shared::{SharedKind, SharedSpec, Sharing};
        // Lock: a hot shared set small enough to live in the private L1s,
        // so write contention actually invalidates peers (Ring's streaming
        // sweep evicts lines before the consumer reaches them).
        let cfg = quick_cfg();
        let spec = SharedSpec::new(SharedKind::Lock, 2, Sharing::Mid);
        let m = run_one_coherent(&cfg, Design::Standard, &spec, ProtocolKind::Mesi).unwrap();
        assert_eq!(m.cores.len(), 2);
        assert!(m.ipc_sum() > 0.0, "coherent run must retire: {m:?}");
        let coh = m.coherence.as_ref().expect("coherence metrics present");
        assert_eq!(coh.protocol, "MESI");
        assert_eq!(coh.cores, 2);
        assert!(coh.stats.bus_transactions() > 0, "bus must see traffic");
        assert!(
            coh.stats.invalidations > 0,
            "lock contention must invalidate: {:?}",
            coh.stats
        );
        assert!(
            coh.stats.interventions > 0,
            "dirty hot lines must be supplied cache-to-cache: {:?}",
            coh.stats
        );
        assert!(coh.stats.l1_hits > 0 && coh.stats.l1_misses > 0);
    }

    #[test]
    fn coherent_run_is_deterministic() {
        use das_coherence::ProtocolKind;
        use das_workloads::shared::{SharedKind, SharedSpec, Sharing};
        let cfg = quick_cfg();
        let spec = SharedSpec::new(SharedKind::Lock, 2, Sharing::High);
        let a = run_one_coherent(&cfg, Design::DasDram, &spec, ProtocolKind::Mesi).unwrap();
        let b = run_one_coherent(&cfg, Design::DasDram, &spec, ProtocolKind::Mesi).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "rebuild must replay");
    }

    #[test]
    fn dragon_updates_instead_of_invalidating() {
        use das_coherence::ProtocolKind;
        use das_workloads::shared::{SharedKind, SharedSpec, Sharing};
        let cfg = quick_cfg();
        let spec = SharedSpec::new(SharedKind::Lock, 2, Sharing::Mid);
        let m = run_one_coherent(&cfg, Design::Standard, &spec, ProtocolKind::Dragon).unwrap();
        let coh = m.coherence.as_ref().unwrap();
        assert_eq!(coh.protocol, "Dragon");
        assert_eq!(coh.stats.invalidations, 0, "Dragon never invalidates");
        assert!(coh.stats.bus_upd > 0, "Dragon updates on shared writes");
    }

    #[test]
    fn classic_runs_carry_no_coherence_metrics() {
        let m = run_one(&quick_cfg(), Design::Standard, &libq()).unwrap();
        assert!(m.coherence.is_none(), "single-core path must be untouched");
    }

    #[test]
    fn sas_uses_fast_level_without_promotions() {
        let cfg = quick_cfg();
        let sas = run_one(&cfg, Design::SasDram, &libq()).unwrap();
        assert_eq!(sas.promotions, 0, "static design never migrates");
        assert!(sas.access_mix.fast > 0, "profiled placement must hit fast");
    }

    /// The profile walk before it was split into two stages: the oracle
    /// the pipelined [`llc_miss_rows`] must reproduce.
    fn llc_miss_rows_sequential<I: Iterator<Item = TraceItem>>(
        cfg: &SystemConfig,
        addr_map: &AddressMap,
        mut streams: Vec<I>,
        horizon: Option<u64>,
    ) -> RowProfile {
        let horizon = horizon.unwrap_or(u64::MAX);
        let mut hierarchy = CacheHierarchy::new(cfg.hierarchy, streams.len());
        let mut counts = RowProfile::default();
        let mut insts = vec![0u64; streams.len()];
        let line_mask = !(cfg.hierarchy.line_bytes - 1);
        let mut live = streams.len();
        while live > 0 {
            live = 0;
            for (i, s) in streams.iter_mut().enumerate() {
                if insts[i] >= horizon {
                    continue;
                }
                live += 1;
                let Some(item) = s.next() else {
                    insts[i] = horizon;
                    continue;
                };
                insts[i] += item.insts();
                let addr = addr_map.map(i, item.addr);
                let out = hierarchy.access(i, addr, item.is_write);
                if out.level == CacheLevel::Memory {
                    let line = addr & line_mask;
                    let coord = cfg.geometry.decode(line);
                    *counts
                        .entry(cfg.geometry.global_row_id(coord.bank, coord.row))
                        .or_insert(0u64) += 1;
                    hierarchy.fill_from_memory(i, line, item.is_write);
                }
            }
        }
        counts
    }

    /// [`profile_row_counts`] over the sequential oracle walk.
    fn sequential_profile(cfg: &SystemConfig, workloads: &[WorkloadConfig]) -> RowProfile {
        let gens = workloads
            .iter()
            .map(|w| TraceGen::new(w.clone(), cfg.seed ^ 0x5052_4F46, 0))
            .collect();
        let addr_map = AddressMap::new(cfg, workloads).profile_view();
        let horizon = cfg.inst_budget * cfg.profile_multiplier.max(1);
        llc_miss_rows_sequential(cfg, &addr_map, gens, Some(horizon))
    }

    /// Both walks over recorded `traces`, placed as [`run_recorded`] places
    /// them, must agree; returns the total misses counted.
    fn assert_walks_agree(
        cfg: &SystemConfig,
        traces: &[Vec<TraceItem>],
        horizon: Option<u64>,
    ) -> u64 {
        let map = AddressMap::new(cfg, &recorded_workload_stubs(cfg, traces));
        let streams = || traces.iter().map(|t| t.iter().copied()).collect::<Vec<_>>();
        let piped = llc_miss_rows(cfg, &map, streams(), horizon);
        assert_eq!(
            piped,
            llc_miss_rows_sequential(cfg, &map, streams(), horizon)
        );
        piped.values().sum()
    }

    /// `n` loads of distinct lines, each after `gap` other instructions: on
    /// a cold hierarchy every one of them misses.
    fn distinct_loads(n: usize, gap: u32) -> Vec<TraceItem> {
        (0..n as u64)
            .map(|i| TraceItem::load(gap, i * 64))
            .collect()
    }

    /// A recorded stream: the first `n` items of `workload`'s generator.
    fn generated(workload: &str, n: usize) -> Vec<TraceItem> {
        let cfg = quick_cfg();
        let w = spec::by_name(workload).scaled(u64::from(cfg.scale));
        TraceGen::new(w, cfg.seed, 0).take(n).collect()
    }

    #[test]
    fn chunks_in_flight_stay_within_64_kb() {
        assert!(CHUNKS * CHUNK_REFS * std::mem::size_of::<PlacedRef>() <= 64 << 10);
    }

    #[test]
    fn pipelined_profile_matches_the_sequential_walk_on_fig7a_workloads() {
        let cfg = SystemConfig::scaled_by(64, 60_000);
        for name in spec::names() {
            let wl = [spec::by_name(name).scaled(u64::from(cfg.scale))];
            let piped = profile_row_counts(&cfg, &wl);
            assert!(!piped.is_empty(), "{name}: the pre-pass must miss");
            assert_eq!(piped, sequential_profile(&cfg, &wl), "{name}");
        }
    }

    #[test]
    fn pipelined_profile_matches_the_sequential_walk_on_a_four_core_mix() {
        let cfg = SystemConfig::scaled_by(64, 30_000);
        let wl = mixes::mix("M1").map(|w| w.scaled(u64::from(cfg.scale)));
        let piped = profile_row_counts(&cfg, &wl);
        assert!(!piped.is_empty());
        assert_eq!(piped, sequential_profile(&cfg, &wl));
    }

    #[test]
    fn pipelined_walk_matches_the_sequential_walk_on_recorded_traces() {
        // run_recorded's walk: no horizon, and the two cores end at
        // different points, neither on a chunk boundary.
        let traces = [generated("mcf", 20_011), generated("libquantum", 7_003)];
        assert!(assert_walks_agree(&quick_cfg(), &traces, None) > 0);
    }

    #[test]
    fn walk_interleaves_the_cores_reference_by_reference() {
        // At the default shape the 256 KB private L2s dwarf the scaled LLC,
        // so core interleaving barely moves the counts. With private
        // caches far smaller than the LLC, which lines the shared LLC
        // still holds depends on the exact round-robin order.
        let mut cfg = quick_cfg();
        cfg.hierarchy.l1_bytes = 1 << 10;
        cfg.hierarchy.l2_bytes = 4 << 10;
        let traces = [
            generated("mcf", 5_000),
            generated("soplex", 5_000),
            generated("libquantum", 5_000),
        ];
        assert!(assert_walks_agree(&cfg, &traces, None) > 0);
    }

    #[test]
    fn walk_retires_a_stream_that_ends_before_the_horizon() {
        let traces = [generated("milc", 900), generated("omnetpp", 9_000)];
        let misses = assert_walks_agree(&quick_cfg(), &traces, Some(20_000));
        assert!(misses > 0);
        let traces = [distinct_loads(300, 0), distinct_loads(2_000, 0)];
        assert_eq!(
            assert_walks_agree(&quick_cfg(), &traces, Some(1_000)),
            1_300
        );
    }

    #[test]
    fn walk_takes_the_item_that_crosses_the_horizon() {
        // Ten instructions per item: the third item starts at 20 < 25 and
        // crosses it, so it is walked; the fourth is not.
        let traces = [distinct_loads(10, 9)];
        assert_eq!(assert_walks_agree(&quick_cfg(), &traces, Some(25)), 3);
        assert_eq!(assert_walks_agree(&quick_cfg(), &traces, Some(30)), 3);
        assert_eq!(assert_walks_agree(&quick_cfg(), &traces, Some(31)), 4);
    }

    #[test]
    fn walk_handles_streams_of_whole_chunks() {
        let traces = [distinct_loads(3 * CHUNK_REFS, 0)];
        assert_eq!(
            assert_walks_agree(&quick_cfg(), &traces, None) as usize,
            3 * CHUNK_REFS
        );
        let traces = [distinct_loads(CHUNK_REFS, 0), distinct_loads(CHUNK_REFS, 0)];
        assert_eq!(
            assert_walks_agree(&quick_cfg(), &traces, None) as usize,
            2 * CHUNK_REFS
        );
    }
}
