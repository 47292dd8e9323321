//! Identity locks over the design table and the migration-policy layer.
//! Each compares two runs that must agree byte for byte, so they hold at
//! any instruction budget and run small.
//!
//! * **Designs.** LISA is the DAS machinery with LISA's copy cost and
//!   nothing else; CLR-DRAM shrinks the visible address space; the
//!   non-paper architectures complete.
//! * **Policies.** The default path (`cfg.policy == None`) never grows a
//!   `policy` key. It runs the manager's built-in `PaperFixed` rule, so
//!   configuring `PaperFixed` explicitly matches every metric and only
//!   appends the `policy` block.
//! * **Renders.** The telemetry render names its exports relative to the
//!   output directory, so it is the same however that directory is spelled.

use das_dram::timing::TimingSet;
use das_harness::cli::{
    build_catalog_manifest, execute_jobs, render_experiment_outputs, ExecOptions,
};
use das_policy::PolicyKind;
use das_sim::config::{Design, SystemConfig};
use das_sim::experiments::{run_one, run_one_coherent};
use das_sim::report::run_report;
use das_workloads::shared::{SharedKind, SharedSpec, Sharing};
use das_workloads::{config::WorkloadConfig, spec};

/// The pinned job set: one streaming and one pointer-chasing benchmark.
const PINNED: [&str; 2] = ["libquantum", "mcf"];

fn wl(name: &str) -> Vec<WorkloadConfig> {
    vec![spec::by_name(name)]
}

/// Full report bytes: every metric, mix counter, energy figure and core
/// stat the harness journals.
fn report_bytes(cfg: &SystemConfig, design: Design, name: &str) -> String {
    let m = run_one(cfg, design, &wl(name)).expect("run completes");
    run_report(&m, None).render()
}

/// The report with its `policy` accounting block spliced out (unchanged
/// when no policy ran). The block holds no nested objects, so it ends at
/// the first `}` after its opening brace.
fn sans_policy(report: &str) -> String {
    match report.find(",\"policy\":{") {
        Some(at) => {
            let end = report[at..].find('}').expect("block closes") + at + 1;
            format!("{}{}", &report[..at], &report[end..])
        }
        None => report.to_string(),
    }
}

#[test]
fn telemetry_render_ignores_the_output_dir_spelling() {
    let manifest = build_catalog_manifest(&["telemetry".to_string()], 200_000, 64, &[]).unwrap();
    let abs = std::env::temp_dir().join(format!("das-telemetry-render-{}", std::process::id()));
    std::fs::create_dir_all(&abs).unwrap();
    let opts = ExecOptions {
        threads: 1,
        out_dir: &abs,
        progress: false,
        trace_store: None,
    };
    let reports = execute_jobs(&manifest.experiments[0].jobs, &opts, None).unwrap();
    // The same directory, spelled relative to the working directory.
    let cwd = std::env::current_dir().unwrap();
    let up: std::path::PathBuf = cwd.components().skip(1).map(|_| "..").collect();
    let rel = up.join(abs.strip_prefix("/").unwrap());
    let render = |dir: &std::path::Path| {
        render_experiment_outputs(dir, &manifest, &reports, false).unwrap();
        std::fs::read_to_string(abs.join("telemetry.txt")).unwrap()
    };
    let (absolute, relative) = (render(&abs), render(&rel));
    let _ = std::fs::remove_dir_all(&abs);
    assert!(absolute.contains("run report: "), "{absolute}");
    assert_eq!(absolute, relative);
}

#[test]
fn new_backends_complete() {
    let cfg = SystemConfig::test_small();
    for design in [Design::ClrDram, Design::Lisa, Design::Salp] {
        let m = run_one(&cfg, design, &wl("libquantum")).expect("run completes");
        assert!(m.cores[0].ipc() > 0.0, "{design:?} makes progress");
        assert!(m.memory_accesses > 0);
        if design == Design::Salp {
            // No fast level: nothing to promote, every miss slow.
            assert_eq!(m.promotions, 0);
            assert_eq!(m.access_mix.fast, 0);
            assert!(m.access_mix.slow > 0);
        } else {
            assert!(m.promotions > 0, "{design:?} promotes rows");
        }
    }
}

#[test]
fn lisa_is_das_machinery_with_a_cheaper_cost_model() {
    // Running the DAS design with LISA's timing set forced through the
    // override must reproduce LISA byte for byte: the design changes the
    // copy cost and nothing else.
    let cfg = SystemConfig::test_small();
    let mut das_as_lisa_cfg = cfg.clone();
    das_as_lisa_cfg.timing_override = Some(TimingSet::lisa());
    // The reports differ only in the leading design label; everything
    // from the workload key on (all metrics, mixes, energy) must match.
    let body = |report: String| {
        let at = report.find("\"workload\"").expect("report has a workload");
        report[at..].to_string()
    };
    for name in PINNED {
        let lisa = body(report_bytes(&cfg, Design::Lisa, name));
        let das_as_lisa = body(report_bytes(&das_as_lisa_cfg, Design::DasDram, name));
        assert_eq!(lisa, das_as_lisa, "{name}: LISA == DAS + LISA copy cost");
    }
    let das = TimingSet::asymmetric();
    let lisa = TimingSet::lisa();
    assert_eq!((lisa.slow, lisa.fast), (das.slow, das.fast));
    assert!(lisa.swap < das.swap);
}

#[test]
fn clr_dram_shrinks_the_visible_address_space() {
    // The same workload still fits (the address map packs it into fewer
    // usable rows), and the run serves fast accesses, unlike the baseline.
    let cfg = SystemConfig::test_small();
    let m = run_one(&cfg, Design::ClrDram, &wl("mcf")).expect("clr run");
    assert!(m.access_mix.fast > 0, "morphed rows serve fast accesses");
    let std = run_one(&cfg, Design::Standard, &wl("mcf")).expect("std run");
    assert_eq!(std.access_mix.fast, 0);
}

#[test]
fn default_runs_never_grow_a_policy_key() {
    let cfg = SystemConfig::test_small();
    for design in [Design::Standard, Design::DasDram, Design::Lisa] {
        let report = report_bytes(&cfg, design, "mcf");
        assert!(
            !report.contains("\"policy\""),
            "{design:?}: policy-free runs must keep the pre-policy schema"
        );
    }
}

#[test]
fn paper_fixed_through_the_trait_is_byte_identical() {
    let cfg = SystemConfig::test_small();
    let ruled_cfg = cfg.clone().with_policy(PolicyKind::PaperFixed);
    for design in [Design::DasDram, Design::Lisa, Design::ClrDram] {
        for name in PINNED {
            let bare = report_bytes(&cfg, design, name);
            let ruled = report_bytes(&ruled_cfg, design, name);
            assert_eq!(
                bare,
                sans_policy(&ruled),
                "{design:?}/{name}: PaperFixed through MigrationPolicy must \
                 reproduce the fixed-threshold filter byte for byte"
            );
            assert!(
                ruled.contains("\"policy\":{\"policy\":\"paper_fixed\""),
                "{design:?}/{name}: the accounting block is appended"
            );
        }
    }
}

#[test]
fn adaptive_policies_actually_change_decisions() {
    // The trait is not a pass-through: cost-aware demands more reuse before
    // paying a 3 tRC swap, so it must diverge on at least one pinned run.
    let cfg = SystemConfig::test_small();
    let cost_cfg = cfg.clone().with_policy(PolicyKind::CostAware);
    let diverged = PINNED.iter().any(|name| {
        let bare = report_bytes(&cfg, Design::DasDram, name);
        let ruled = report_bytes(&cost_cfg, Design::DasDram, name);
        bare != sans_policy(&ruled)
    });
    assert!(
        diverged,
        "CostAware must change at least one pinned run, else the policy \
         plumbing is dead code"
    );
}

#[test]
fn coherent_runs_feed_sharing_heat_to_policies_deterministically() {
    // Under the coherent front end, sharing-induced accesses aggregate into
    // per-row heat that adaptive policies read. The wiring must be
    // replay-exact and must leave PaperFixed untouched: the paper's filter
    // never looks at the sharing signal.
    let spec = SharedSpec::new(SharedKind::Lock, 2, Sharing::High);
    let proto = das_coherence::ProtocolKind::Mesi;
    let cfg = SystemConfig::test_small();
    let bare = run_one_coherent(&cfg, Design::DasDram, &spec, proto).expect("run");
    for kind in [PolicyKind::PaperFixed, PolicyKind::CostAware] {
        let ruled_cfg = cfg.clone().with_policy(kind);
        let a = run_one_coherent(&ruled_cfg, Design::DasDram, &spec, proto).expect("run");
        let b = run_one_coherent(&ruled_cfg, Design::DasDram, &spec, proto).expect("run");
        let ra = run_report(&a, None).render();
        assert_eq!(ra, run_report(&b, None).render(), "{kind:?}: replay-exact");
        let p = a.policy.as_ref().expect("policy block present");
        assert!(
            p.promotes > 0 || p.holds > 0,
            "{kind:?}: policy observed traffic"
        );
        if kind == PolicyKind::PaperFixed {
            assert_eq!(
                run_report(&bare, None).render(),
                sans_policy(&ra),
                "sharing heat must not perturb the paper's fixed filter"
            );
        }
    }
}

#[test]
fn policies_are_deterministic_across_repeat_runs() {
    let cfg = SystemConfig::test_small();
    for kind in das_policy::ALL_POLICIES {
        let ruled_cfg = cfg.clone().with_policy(kind);
        let a = report_bytes(&ruled_cfg, Design::DasDram, "mcf");
        let b = report_bytes(&ruled_cfg, Design::DasDram, "mcf");
        assert_eq!(a, b, "{kind:?}: replay must be exact");
    }
}
