//! Output lock for the simulation loop: the rendered report of one job per
//! DRAM backend, of the CHARM, DAS-FM, inclusive and TL-DRAM designs and of
//! a feedback-policy job on a scarce fast level must stay byte-identical,
//! and so must a closed-page and an FCFS job.
//! The digests were captured before the controller cached its scheduling
//! pick and the event queue moved to compact heap entries (the four extra
//! designs before the request path's per-request lookups became O(1), the
//! closed-page and FCFS jobs before the controller queues became
//! age-ordered); any change to the loop that moves a single report byte
//! fails here. The feedback job's digest was re-captured when the policy
//! block lost its `demotes` key, by stripping that key from the old report.
//!
//! CHARM runs the profile pre-pass through the cache hierarchy, and the
//! inclusive design is the only one that clears the translation registers
//! on a fill commit.
//!
//! Refresh is on (the catalog default), so the refresh-deadline edge of
//! the controller's pick cache is exercised. The closed-page and FCFS jobs
//! pin the controller's other two scheduling paths: precharging rows no
//! queued request wants, and serving strictly by age.
//!
//! The three `recorded_*` jobs replay one in-memory single-core trace
//! through `run_recorded` with an unbounded instruction budget: SAS pins
//! the recorded profile walk, DAS and Std-DRAM the recorded trace source.

use das_cpu::trace::TraceItem;
use das_dram::geometry::FastRatio;
use das_memctrl::controller::{PagePolicy, SchedulerKind};
use das_policy::PolicyKind;
use das_sim::config::{Design, SystemConfig};
use das_sim::experiments::{run_one, run_recorded};
use das_sim::report::run_report;
use das_sim::stats::RunMetrics;
use das_workloads::spec;

/// Instructions of each locked run.
const INSTS: u64 = 500_000;

/// (job label, FNV-1a digest of the rendered report).
const LOCKED: [(&str, u64); 17] = [
    ("std", 0xec97_fffc_1d58_e275),
    ("sas", 0xa13f_35ca_bd1f_5ad0),
    ("charm", 0xdcc2_45e4_83c5_4291),
    ("das", 0x5be5_8d5e_6ace_9049),
    ("das_fm", 0xc095_8e82_23b3_d4bd),
    ("das_incl", 0xc10e_036c_6cc6_7348),
    ("fs", 0x07cd_87ec_cb96_7c3f),
    ("tl", 0xdff5_ee0f_fff9_17af),
    ("lisa", 0xf00e_680c_2b0c_79c5),
    ("clr", 0xeca1_b5ab_4ac0_e8a4),
    ("salp", 0x8395_26ac_95bb_4573),
    ("das_feedback_1/32", 0x600c_afed_cf6a_49ef),
    ("das_closed", 0x693f_e7c9_150e_df9e),
    ("das_fcfs", 0xcc11_3ccd_c516_2681),
    ("recorded_std", 0x0d9b_218f_1bf6_d23c),
    ("recorded_sas", 0xe575_2ebb_5a96_eba3),
    ("recorded_das", 0xb02c_1619_0f24_494f),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The configuration and design of the locked job named `label`.
fn job(label: &str) -> (SystemConfig, Design) {
    let cfg = SystemConfig::scaled_by(64, INSTS);
    match label {
        "std" => (cfg, Design::Standard),
        "sas" => (cfg, Design::SasDram),
        "charm" => (cfg, Design::Charm),
        "das" => (cfg, Design::DasDram),
        "das_fm" => (cfg, Design::DasDramFm),
        "das_incl" => (cfg, Design::DasInclusive),
        "fs" => (cfg, Design::FsDram),
        "tl" => (cfg, Design::TlDram),
        "lisa" => (cfg, Design::Lisa),
        "clr" => (cfg, Design::ClrDram),
        "salp" => (cfg, Design::Salp),
        "das_feedback_1/32" => (
            cfg.with_policy(PolicyKind::Feedback)
                .with_fast_ratio(FastRatio::new(1, 32)),
            Design::DasDram,
        ),
        "das_closed" => {
            let mut cfg = cfg;
            cfg.controller.page_policy = PagePolicy::Closed;
            (cfg, Design::DasDram)
        }
        "das_fcfs" => {
            let mut cfg = cfg;
            cfg.controller.scheduler = SchedulerKind::Fcfs;
            (cfg, Design::DasDram)
        }
        other => unreachable!("unknown locked job {other}"),
    }
}

/// A hot-ring trace: 30k loads cycling over 256 rows, a few lines each.
fn ring_trace() -> Vec<TraceItem> {
    (0..30_000u64)
        .map(|i| {
            let addr = (i * 37 % 256) * 8192 + (i.wrapping_mul(0x9e37_79b9) >> 9) % 128 * 64;
            TraceItem::load(20, addr)
        })
        .collect()
}

/// Runs the locked job named `label`.
fn run(label: &str) -> RunMetrics {
    if let Some(key) = label.strip_prefix("recorded_") {
        let mut cfg = SystemConfig::scaled_by(64, INSTS);
        cfg.inst_budget = u64::MAX;
        let design = Design::parse(key).expect("a design key");
        return run_recorded(&cfg, design, vec![ring_trace()]).expect("run completes");
    }
    let (cfg, design) = job(label);
    run_one(&cfg, design, &[spec::by_name("mcf")]).expect("run completes")
}

#[test]
fn sim_loop_reports_are_byte_identical() {
    let mut mismatches = Vec::new();
    for (label, want) in LOCKED {
        let m = run(label);
        let got = fnv1a(run_report(&m, None).render().as_bytes());
        if got != want {
            mismatches.push(format!("{label}: {got:#018x} != {want:#018x}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "report digests moved: {mismatches:?}"
    );
}
