//! Experiment runners: profiling pre-pass, single runs, design suites and
//! the improvement metric used across all figures.

use std::collections::HashMap;

use das_cache::hierarchy::{CacheHierarchy, CacheLevel};
use das_cpu::trace::TraceItem;
use das_dram::geometry::GlobalRowId;
use das_workloads::config::WorkloadConfig;
use das_workloads::gen::TraceGen;

use das_telemetry::TelemetryReport;

use crate::config::{Design, SystemConfig};
use crate::stats::RunMetrics;
use crate::system::{recorded_workload_stubs, AddressMap, SimError, System};

/// Runs the profiling pre-pass used by the static designs (SAS/CHARM):
/// the same traces are pushed through a fresh cache hierarchy and LLC-miss
/// row access counts are collected (§7: "each workload is profiled first").
///
/// Workloads must already be scaled.
pub fn profile_row_counts(
    cfg: &SystemConfig,
    workloads: &[WorkloadConfig],
) -> HashMap<GlobalRowId, u64> {
    let addr_map = AddressMap::new(cfg, workloads).profile_view();
    let mut hierarchy = CacheHierarchy::new(cfg.hierarchy, workloads.len());
    // Profiling observes a *different run* of the program (SPEC profiles
    // are gathered on train inputs; the measured episode runs ref): phase
    // positions will not line up with the measured episode, which is what
    // limits static placement in the paper.
    let profile_seed = cfg.seed ^ 0x5052_4F46; // "PROF"
    let mut gens: Vec<TraceGen> = workloads
        .iter()
        .map(|w| TraceGen::new(w.clone(), profile_seed, 0))
        .collect();
    let mut counts = HashMap::new();
    let mut insts = vec![0u64; workloads.len()];
    let line_mask = !(cfg.hierarchy.line_bytes - 1);
    // Round-robin across cores so shared-LLC contention shapes the profile
    // as it would in the timed run.
    let horizon = cfg.inst_budget * cfg.profile_multiplier.max(1);
    let mut live = workloads.len();
    while live > 0 {
        live = 0;
        for (i, g) in gens.iter_mut().enumerate() {
            if insts[i] >= horizon {
                continue;
            }
            live += 1;
            let Some(item) = g.next() else {
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
    run_one_instrumented_with_profile(cfg, design, workloads, None)
}

/// Like [`run_one_instrumented`], but accepts a precomputed profiling
/// pre-pass (as returned by [`profile_row_counts`] over the **scaled**
/// workload set under the same configuration). The experiment harness
/// memoizes the pre-pass across jobs this way: every static-design run
/// over the same (workload set, seed, scale) shares one profile instead of
/// recomputing it. `None` falls back to computing the profile in-line when
/// the design needs one, which is exactly [`run_one_instrumented`].
pub fn run_one_instrumented_with_profile(
    cfg: &SystemConfig,
    design: Design,
    workloads: &[WorkloadConfig],
    profile: Option<&HashMap<GlobalRowId, u64>>,
) -> (Result<RunMetrics, SimError>, Option<TelemetryReport>) {
    let scaled: Vec<WorkloadConfig> = workloads
        .iter()
        .map(|w| w.scaled(cfg.scale as u64))
        .collect();
    let computed;
    let profile = match profile {
        Some(p) => design.needs_profile().then_some(p),
        None if design.needs_profile() => {
            computed = profile_row_counts(cfg, &scaled);
            Some(&computed)
        }
        None => None,
    };
    System::new(cfg.clone(), design, &scaled, profile).run_instrumented()
}

/// Runs one simulation over **recorded traces** (one per core), e.g. loaded
/// with [`das_workloads::trace_file::read_trace`]. For the static designs
/// the profile is derived by replaying the same traces through a fresh
/// cache hierarchy (an oracle profile: recorded traces *are* the measured
/// execution).
///
/// # Errors
///
/// Returns the [`SimError`] if the run could not finish.
pub fn run_recorded(
    cfg: &SystemConfig,
    design: Design,
    traces: Vec<Vec<TraceItem>>,
) -> Result<RunMetrics, SimError> {
    let profile = if design.needs_profile() {
        // Trace addresses are workload-local and go through the same
        // physical placement as the timed run (no reallocation: a recorded
        // trace profiles its own execution, so static placement is oracle
        // here — document accordingly when comparing).
        let mut dcfg = cfg.clone();
        design.apply_overrides(&mut dcfg);
        let stubs = recorded_workload_stubs(&dcfg, &traces);
        let addr_map = AddressMap::new(&dcfg, &stubs);
        let mut hierarchy = CacheHierarchy::new(dcfg.hierarchy, traces.len());
        let mut counts = HashMap::new();
        let line_mask = !(dcfg.hierarchy.line_bytes - 1);
        for (core, t) in traces.iter().enumerate() {
            for item in t {
                let addr = addr_map.map(core, item.addr);
                let out = hierarchy.access(core, addr, item.is_write);
                if out.level == CacheLevel::Memory {
                    let line = addr & line_mask;
                    let coord = dcfg.geometry.decode(line);
                    *counts
                        .entry(dcfg.geometry.global_row_id(coord.bank, coord.row))
                        .or_insert(0u64) += 1;
                    hierarchy.fill_from_memory(core, line, item.is_write);
                }
            }
        }
        Some(counts)
    } else {
        None
    };
    System::from_recorded(cfg.clone(), design, traces, profile.as_ref()).run()
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
    System::with_coherence(cfg.clone(), design, &scaled, protocol).run_instrumented()
}

/// The paper's performance-improvement metric against the Std-DRAM
/// baseline: for single-programming the IPC ratio; for multi-programming
/// the mean per-core speedup (weighted speedup normalised by core count).
///
/// # Panics
///
/// Panics if the two runs have different core counts.
pub fn improvement(run: &RunMetrics, base: &RunMetrics) -> f64 {
    assert_eq!(run.cores.len(), base.cores.len(), "mismatched systems");
    let speedups: Vec<f64> = run
        .cores
        .iter()
        .zip(&base.cores)
        .map(|(r, b)| {
            let bi = b.ipc();
            if bi == 0.0 {
                1.0
            } else {
                r.ipc() / bi
            }
        })
        .collect();
    speedups.iter().sum::<f64>() / speedups.len() as f64 - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_workloads::spec;

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
        let shared =
            run_one_instrumented_with_profile(&cfg, Design::SasDram, &libq(), Some(&profile))
                .0
                .unwrap();
        assert_eq!(inline.promotions, shared.promotions);
        assert_eq!(inline.memory_accesses, shared.memory_accesses);
        assert_eq!(inline.llc_misses, shared.llc_misses);
        assert_eq!(inline.window_cycles, shared.window_cycles);
        assert_eq!(inline.access_mix, shared.access_mix);
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
}
