//! Output lock for the simulation loop: the rendered report of one job per
//! DRAM backend, of the CHARM, DAS-FM, inclusive and TL-DRAM designs, of a
//! feedback-policy job on a scarce fast level and of a fault-injected job
//! must stay byte-identical, and so must a closed-page and an FCFS job.
//! The digests were captured before the controller cached its scheduling
//! pick and the event queue moved to compact heap entries (the four extra
//! designs before the request path's per-request lookups became O(1), the
//! closed-page and FCFS jobs before the controller queues became
//! age-ordered); any change to the loop that moves a single report byte
//! fails here.
//!
//! CHARM runs the profile pre-pass through the cache hierarchy, and the
//! inclusive design is the only one that clears the translation registers
//! on a fill commit.
//!
//! Refresh is on (the catalog default), so the refresh-deadline edge of
//! the controller's pick cache is exercised. The closed-page and FCFS jobs
//! pin the controller's other two scheduling paths: precharging rows no
//! queued request wants, and serving strictly by age. The fault-injected job runs
//! the periodic invariant audit every `INVARIANT_EVENTS` events and seeds
//! translation corruption with the event count, so its digest also guards
//! the order and number of processed events.
//!
//! The three `recorded_*` jobs replay one in-memory single-core trace
//! through `run_recorded` with an unbounded instruction budget: SAS pins
//! the recorded profile walk, DAS and Std-DRAM the recorded trace source.

use das_cpu::trace::TraceItem;
use das_dram::geometry::FastRatio;
use das_faults::FaultPlan;
use das_memctrl::controller::{PagePolicy, SchedulerKind};
use das_policy::PolicyKind;
use das_sim::config::{Design, SystemConfig};
use das_sim::experiments::{run_one, run_recorded};
use das_sim::report::run_report;
use das_sim::stats::RunMetrics;
use das_workloads::spec;

/// Instructions of each locked run.
const INSTS: u64 = 500_000;

/// Audit cadence of the fault-injected job (the fault sweep's setting).
const INVARIANT_EVENTS: u64 = 10_000;

/// (job label, FNV-1a digest of the rendered report).
const LOCKED: [(&str, u64); 18] = [
    ("std", 0xc0df_03f3_5270_4ae0),
    ("sas", 0xc6a0_cd31_6bc7_dd2b),
    ("charm", 0xdcb7_3b3c_6f95_36ec),
    ("das", 0x1e15_e78b_726f_a71c),
    ("das_fm", 0x27a1_ad1c_92eb_825c),
    ("das_incl", 0xee72_5b69_1657_51a5),
    ("fs", 0x3d16_004b_8f26_d084),
    ("tl", 0xd4af_242d_7b58_fe68),
    ("lisa", 0x2652_3b17_602b_a756),
    ("clr", 0x0187_1e2d_8a1b_0d95),
    ("salp", 0x5755_600f_052b_eec8),
    ("das_feedback_1/32", 0xed7f_158f_7fad_76d5),
    ("das_faults", 0x57a4_8c3f_967a_280b),
    ("das_closed", 0xe7bc_3e69_0c16_f4c3),
    ("das_fcfs", 0x4937_5fbb_d682_4a48),
    ("recorded_std", 0x223d_b4ab_2ce2_f1d5),
    ("recorded_sas", 0xee03_da43_003c_0700),
    ("recorded_das", 0xd1ab_a214_6c2c_8a42),
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
        "das_faults" => (
            cfg.with_faults(FaultPlan::uniform(0x5eed, 0.01))
                .with_invariant_checks(INVARIANT_EVENTS),
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
        if label == "das_faults" {
            assert!(
                m.faults.invariant_checks_passed > 0 && m.faults.total_injected() > 0,
                "the fault job must inject faults and run the audit"
            );
        }
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
