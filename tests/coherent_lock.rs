//! Output lock for the coherent front end: the rendered report of every
//! shared-footprint kind under both protocols on DAS-DRAM, and of one job
//! per protocol on Std-DRAM (the coherent workload's baseline), must stay
//! byte-identical. The digests below were captured before the private
//! L1s moved from a stamp-scan tag store to an O(1) LRU list; any change
//! to the cluster that moves a single report byte fails here.
//!
//! The budget is large enough that every private L1 fills and evicts, so
//! the LRU victim path is part of what the digests cover.

use das_coherence::ProtocolKind;
use das_sim::config::{Design, SystemConfig};
use das_sim::experiments::run_one_coherent;
use das_sim::report::run_report;
use das_workloads::shared::{SharedKind, SharedSpec, Sharing};

/// Per-core instructions of each locked run.
const INSTS: u64 = 150_000;

/// Cores of each locked run (the catalog's coherent default).
const CORES: usize = 4;

/// (design, kind, protocol, FNV-1a digest of the rendered report).
const LOCKED: [(Design, SharedKind, ProtocolKind, u64); 8] = [
    (
        Design::DasDram,
        SharedKind::Ring,
        ProtocolKind::Mesi,
        0x8cc4_36f3_a19a_407b,
    ),
    (
        Design::DasDram,
        SharedKind::Ring,
        ProtocolKind::Dragon,
        0xec93_4999_6ae5_cf34,
    ),
    (
        Design::DasDram,
        SharedKind::Lock,
        ProtocolKind::Mesi,
        0x4c4a_acf1_e360_6f06,
    ),
    (
        Design::DasDram,
        SharedKind::Lock,
        ProtocolKind::Dragon,
        0xebed_7880_1be4_9112,
    ),
    (
        Design::DasDram,
        SharedKind::Frontier,
        ProtocolKind::Mesi,
        0x54b8_8582_1deb_34d3,
    ),
    (
        Design::DasDram,
        SharedKind::Frontier,
        ProtocolKind::Dragon,
        0xcfde_6cf4_a319_998c,
    ),
    (
        Design::Standard,
        SharedKind::Ring,
        ProtocolKind::Mesi,
        0x0dfd_2693_9198_ee53,
    ),
    (
        Design::Standard,
        SharedKind::Lock,
        ProtocolKind::Dragon,
        0x5264_8380_f46e_3555,
    ),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn coherent_reports_are_byte_identical() {
    let mut cfg = SystemConfig::test_small();
    cfg.inst_budget = INSTS;
    let l1_lines = cfg.hierarchy.l1_bytes / cfg.hierarchy.line_bytes;
    let mut mismatches = Vec::new();
    for (design, kind, protocol, want) in LOCKED {
        let spec = SharedSpec::new(kind, CORES, Sharing::Mid);
        let m = run_one_coherent(&cfg, design, &spec, protocol).expect("run completes");
        let coh = m.coherence.as_ref().expect("coherence block present");
        assert!(
            coh.stats.l1_misses > CORES as u64 * l1_lines,
            "{design:?}/{kind:?}/{protocol:?}: {} misses never exercise LRU eviction",
            coh.stats.l1_misses
        );
        let got = fnv1a(run_report(&m, None).render().as_bytes());
        if got != want {
            mismatches.push(format!(
                "{design:?}/{kind:?}/{protocol:?}: {got:#018x} != {want:#018x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "report digests moved: {mismatches:?}"
    );
}
