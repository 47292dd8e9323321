//! Output lock for the SAS/CHARM profiling pre-pass: the per-row LLC-miss
//! counts of the fig7a grid's 10 workloads at 300k instructions must stay
//! exactly the same. The digest is FNV-1a over each workload's name and
//! its `(row, count)` pairs sorted by row, and was captured from the
//! sequential walk before the pre-pass was split over two threads.

use das_harness::catalog::{by_id, BuildParams};
use das_sim::experiments::profile_row_counts;

/// Instructions per job; the pre-pass walks `profile_multiplier` × this.
const INSTS: u64 = 300_000;

/// FNV-1a digest of the 10 sorted profiles.
const LOCKED: u64 = 0xeceb_b6ef_7922_e1e3;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn fig7a_profiles_are_byte_identical() {
    let jobs = (by_id("fig7a").unwrap().build)(&BuildParams::new(INSTS, 64));
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut profiled = 0;
    for job in jobs.iter().filter(|j| j.design == "sas") {
        let (cfg, _, workloads) = job.materialize().unwrap();
        let scaled: Vec<_> = workloads
            .iter()
            .map(|w| w.scaled(u64::from(cfg.scale)))
            .collect();
        let mut pairs: Vec<(u64, u64)> = profile_row_counts(&cfg, &scaled)
            .into_iter()
            .map(|(row, n)| (row.0, n))
            .collect();
        pairs.sort_unstable();
        h = fnv1a(h, job.workload.as_bytes());
        for (row, n) in pairs {
            h = fnv1a(h, &row.to_le_bytes());
            h = fnv1a(h, &n.to_le_bytes());
        }
        profiled += 1;
    }
    assert_eq!(profiled, 10, "fig7a profiles every single-program workload");
    assert_eq!(h, LOCKED, "profile digest moved: {h:#018x}");
}
