//! End-to-end integration tests spanning every crate: full-system runs on
//! each design, conservation invariants, determinism, and multi-core
//! behaviour.

use das_sim::config::{Design, SystemConfig};
use das_sim::experiments::{improvement, profile_row_counts, run_one as run_one_checked};
use das_sim::stats::RunMetrics;
use das_sim::SimError;
use das_workloads::config::WorkloadConfig;
use das_workloads::{mixes, spec};

fn cfg() -> SystemConfig {
    SystemConfig::test_small()
}

fn run_one(cfg: &SystemConfig, design: Design, workloads: &[WorkloadConfig]) -> RunMetrics {
    run_one_checked(cfg, design, workloads).expect("simulation must finish")
}

fn soplex() -> Vec<WorkloadConfig> {
    vec![spec::by_name("soplex")]
}

fn sanity(m: &RunMetrics) {
    assert!(m.ipc() > 0.0, "{}: zero IPC", m.design);
    assert!(m.llc_misses > 0, "{}: no misses", m.design);
    assert!(m.memory_accesses > 0, "{}: no DRAM traffic", m.design);
    assert!(m.footprint_bytes > 0);
    assert!(m.window_cycles > 0);
    let (rb, f, s) = m.access_mix.fractions();
    assert!(
        (rb + f + s - 1.0).abs() < 1e-9,
        "{}: mix fractions must sum to 1",
        m.design
    );
    assert!(m.energy.total_nj() > 0.0);
}

#[test]
fn every_design_runs_and_reports_sane_metrics() {
    let extras = [
        Design::TlDram,
        Design::DasInclusive,
        Design::ClrDram,
        Design::Lisa,
        Design::Salp,
    ];
    for design in Design::all().into_iter().chain(extras) {
        let m = run_one(&cfg(), design, &soplex());
        sanity(&m);
        match design {
            Design::Standard => {
                assert_eq!(m.access_mix.fast, 0);
                assert_eq!(m.promotions, 0);
            }
            Design::FsDram => {
                assert_eq!(m.access_mix.slow, 0);
                assert_eq!(m.promotions, 0);
            }
            // SALP keeps homogeneous timing: nothing to promote into.
            Design::SasDram | Design::Charm | Design::Salp => assert_eq!(m.promotions, 0),
            Design::DasDram
            | Design::DasDramFm
            | Design::DasInclusive
            | Design::TlDram
            | Design::ClrDram
            | Design::Lisa => {
                assert!(m.promotions > 0, "dynamic designs must migrate")
            }
        }
    }
}

#[test]
fn identical_runs_are_deterministic() {
    let a = run_one(&cfg(), Design::DasDram, &soplex());
    let b = run_one(&cfg(), Design::DasDram, &soplex());
    assert_eq!(a.cores[0].insts, b.cores[0].insts);
    assert_eq!(a.cores[0].cycles, b.cores[0].cycles);
    assert_eq!(a.llc_misses, b.llc_misses);
    assert_eq!(a.promotions, b.promotions);
    assert_eq!(a.access_mix, b.access_mix);
}

#[test]
fn different_seeds_differ() {
    let mut c2 = cfg();
    c2.seed = 1234;
    let a = run_one(&cfg(), Design::DasDram, &soplex());
    let b = run_one(&c2, Design::DasDram, &soplex());
    assert_ne!(
        (a.cores[0].cycles, a.llc_misses),
        (b.cores[0].cycles, b.llc_misses),
        "different seeds should perturb the run"
    );
}

#[test]
fn design_ordering_holds_for_a_latency_bound_workload() {
    let wl = vec![spec::by_name("mcf")];
    let base = run_one(&cfg(), Design::Standard, &wl);
    let sas = improvement(&run_one(&cfg(), Design::SasDram, &wl), &base);
    let das = improvement(&run_one(&cfg(), Design::DasDram, &wl), &base);
    let fm = improvement(&run_one(&cfg(), Design::DasDramFm, &wl), &base);
    let fs = improvement(&run_one(&cfg(), Design::FsDram, &wl), &base);
    assert!(fs > 0.0);
    assert!(das > 0.0, "DAS must beat standard DRAM: {das}");
    assert!(
        fm >= das - 0.02,
        "free migration can only help: {fm} vs {das}"
    );
    assert!(fs >= fm - 0.02, "FS is the upper bound: {fs} vs {fm}");
    assert!(
        das > sas,
        "dynamic must beat static on a phase-drifting workload"
    );
}

#[test]
fn multi_core_mix_runs_all_four_cores() {
    let mut c = cfg();
    c.inst_budget = 200_000;
    let wl: Vec<WorkloadConfig> = mixes::mix("M5").iter().map(|w| w.scaled(2)).collect();
    let m = run_one(&c, Design::DasDram, &wl);
    assert_eq!(m.cores.len(), 4);
    for (i, core) in m.cores.iter().enumerate() {
        assert!(core.ipc() > 0.0, "core {i} made no progress");
        assert!(core.insts > 0);
    }
    sanity(&m);
}

#[test]
fn multi_core_improvement_exceeds_zero() {
    let mut c = cfg();
    c.inst_budget = 200_000;
    let wl: Vec<WorkloadConfig> = mixes::mix("M5").iter().map(|w| w.scaled(2)).collect();
    let base = run_one(&c, Design::Standard, &wl);
    let das = run_one(&c, Design::DasDram, &wl);
    assert!(improvement(&das, &base) > 0.0);
}

#[test]
fn profiling_is_reproducible_and_nonempty() {
    let c = cfg();
    let scaled: Vec<_> = soplex().iter().map(|w| w.scaled(c.scale as u64)).collect();
    let a = profile_row_counts(&c, &scaled);
    let b = profile_row_counts(&c, &scaled);
    assert_eq!(a, b);
    assert!(a.len() > 32, "profile should cover many rows: {}", a.len());
}

#[test]
fn refresh_can_be_enabled_without_deadlock() {
    let mut c = cfg();
    c.refresh = true;
    c.inst_budget = 150_000;
    let m = run_one(&c, Design::DasDram, &soplex());
    sanity(&m);
}

#[test]
fn watchdog_stops_a_wake_storm_and_spares_a_normal_run() {
    // A zero same-tick-wake allowance turns the first repeated wake into a
    // stall; the default allowance lets the same run finish.
    let mcf = [spec::by_name("mcf")];
    let strict = cfg().with_watchdog_wakes(0);
    match run_one_checked(&strict, Design::DasDram, &mcf) {
        Err(SimError::Stalled { channel, wakes, .. }) => assert_eq!((channel, wakes), (0, 1)),
        other => panic!("expected a watchdog stall, got {other:?}"),
    }
    sanity(&run_one(&cfg(), Design::DasDram, &mcf));
}

#[test]
fn warmup_fraction_changes_measured_window() {
    let mut c = cfg();
    c.warmup_frac = 0.0;
    let all = run_one(&c, Design::Standard, &soplex());
    c.warmup_frac = 0.5;
    let half = run_one(&c, Design::Standard, &soplex());
    assert!(half.cores[0].insts < all.cores[0].insts);
    assert!(half.cores[0].insts >= c.inst_budget / 3);
}

#[test]
fn charm_beats_sas_via_faster_column_path() {
    // CHARM = SAS + optimised fast-region CL; on a workload with real fast
    // hits it must not be slower.
    let wl = vec![spec::by_name("milc")];
    let base = run_one(&cfg(), Design::Standard, &wl);
    let sas = improvement(&run_one(&cfg(), Design::SasDram, &wl), &base);
    let charm = improvement(&run_one(&cfg(), Design::Charm, &wl), &base);
    assert!(charm >= sas - 0.005, "CHARM {charm} should be >= SAS {sas}");
}

#[test]
fn footprint_metric_tracks_workload_size() {
    let c = cfg();
    let small = run_one(&c, Design::Standard, &[spec::by_name("libquantum")]);
    let large = run_one(&c, Design::Standard, &[spec::by_name("mcf")]);
    assert!(large.footprint_bytes > small.footprint_bytes);
}

#[test]
fn inclusive_alternative_runs_and_tracks_exclusive() {
    let wl = vec![spec::by_name("omnetpp")];
    let base = run_one(&cfg(), Design::Standard, &wl);
    let excl = run_one(&cfg(), Design::DasDram, &wl);
    let incl = run_one(&cfg(), Design::DasInclusive, &wl);
    assert!(incl.promotions > 0, "inclusive must fill");
    let (ei, ii) = (improvement(&excl, &base), improvement(&incl, &base));
    assert!(ii > 0.0, "inclusive must beat standard: {ii}");
    assert!(
        (ei - ii).abs() < 0.08,
        "managements should be comparable: {ei} vs {ii}"
    );
}

#[test]
fn tl_dram_baseline_runs_with_cheap_copies() {
    let wl = vec![spec::by_name("omnetpp")];
    let base = run_one(&cfg(), Design::Standard, &wl);
    let tl = run_one(&cfg(), Design::TlDram, &wl);
    assert!(tl.promotions > 0, "TL-DRAM must cache into near segments");
    assert!(improvement(&tl, &base) > 0.0);
    // Far segments pay the isolation penalty: some slow traffic remains,
    // but near-segment caching dominates.
    assert!(tl.fast_activation_ratio() > 0.5);
}

#[test]
fn recorded_traces_run_end_to_end() {
    use das_cpu::trace::TraceItem;
    use das_sim::experiments::run_recorded;
    let mut items = Vec::new();
    for i in 0..30_000u64 {
        let addr = (i * 37 % 256) * 8192 + (i.wrapping_mul(0x9e37_79b9) >> 9) % 128 * 64;
        items.push(TraceItem::load(20, addr));
    }
    let mut c = cfg();
    c.inst_budget = u64::MAX;
    let base = run_recorded(&c, Design::Standard, vec![items.clone()]).unwrap();
    let das = run_recorded(&c, Design::DasDram, vec![items.clone()]).unwrap();
    let sas = run_recorded(&c, Design::SasDram, vec![items]).unwrap();
    assert!(base.ipc() > 0.0 && das.ipc() > 0.0 && sas.ipc() > 0.0);
    assert!(das.promotions > 0);
    assert!(
        improvement(&das, &base) > 0.0,
        "a hot-ring trace must benefit from DAS"
    );
}

#[test]
fn salp_composes_with_designs() {
    let wl = vec![spec::by_name("milc")];
    let base = run_one(&cfg(), Design::Standard, &wl);
    let mut salp_cfg = cfg();
    salp_cfg.salp = true;
    let std_salp = run_one(&salp_cfg, Design::Standard, &wl);
    let das_salp = run_one(&salp_cfg, Design::DasDram, &wl);
    assert!(
        improvement(&std_salp, &base) > 0.0,
        "SALP alone must help milc"
    );
    assert!(
        improvement(&das_salp, &base) > improvement(&std_salp, &base),
        "DAS should stack on top of SALP"
    );
}
