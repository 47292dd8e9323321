//! The job lists of the four workloads.
//!
//! Every job simulates the catalog's episode (catalog seed 42), so the
//! simulated results — and every simulated metric and report digest —
//! are the same on every run: a change to them is a model change. The
//! benchmark's `--seed` decides how that work reaches the host: the order
//! the batch runner executes the jobs in, and the served workload's
//! arrival schedule and job order (see `serve`). Lists come from the
//! harness catalog where one exists and carry, per job, the index of the
//! Std-DRAM baseline its gain is measured against.

use das_harness::catalog::{self, BuildParams};
use das_harness::manifest::{JobSpec, Overrides};

use crate::stats::SplitMix64;

/// Per-core instructions of the single-benchmark batch jobs (catalog
/// default).
pub const BATCH_INSTS: u64 = 3_000_000;
/// Capacity scale (catalog default).
pub const SCALE: u32 = 64;
/// The catalog's seed, which every job's simulated episode uses.
pub const CATALOG_SEED: u64 = 42;
/// Per-core instructions of a served job.
pub const SERVE_INSTS: u64 = 300_000;

/// One job of a workload.
#[derive(Debug, Clone)]
pub struct BenchJob {
    /// The job as the harness runs it.
    pub spec: JobSpec,
    /// Index of the Std-DRAM job this one's gain is measured against.
    pub base: Option<usize>,
    /// Design key under which the gain enters the paper comparison
    /// (`None`: the paper has no such bar).
    pub paper_key: Option<&'static str>,
}

/// A workload's jobs plus which of the paper's figures its gains compare
/// with.
#[derive(Debug, Clone)]
pub struct JobList {
    /// Jobs in list (catalog) order; reports and digests use this order.
    pub jobs: Vec<BenchJob>,
    /// Execution order: a seeded permutation of the job indices.
    pub order: Vec<usize>,
    /// The paper figure (design key, gain %) the gains are held against.
    pub paper: &'static [(&'static str, f64)],
    /// Id of the job re-run directly to check the harness path.
    pub pinned: String,
}

const PAPER_KEYS: [&str; 5] = ["sas", "charm", "das", "das_fm", "fs"];

fn paper_key(design: &str) -> Option<&'static str> {
    PAPER_KEYS.iter().copied().find(|k| *k == design)
}

/// Links every job to its baseline: the job whose id is `base_id(id)`.
fn link(specs: Vec<JobSpec>, base_id: impl Fn(&str) -> Option<String>) -> Vec<BenchJob> {
    let ids: Vec<String> = specs.iter().map(|s| s.id.clone()).collect();
    specs
        .into_iter()
        .map(|spec| {
            let base = base_id(&spec.id)
                .filter(|b| *b != spec.id)
                .and_then(|b| ids.iter().position(|i| *i == b));
            BenchJob {
                paper_key: paper_key(&spec.design),
                base,
                spec,
            }
        })
        .collect()
}

fn catalog_jobs(exp: &str, insts: u64) -> Vec<JobSpec> {
    let e = catalog::by_id(exp).expect("catalog experiment");
    (e.build)(&BuildParams::new(insts, SCALE))
}

/// A seeded execution order over `n` jobs.
fn seeded_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    SplitMix64::new(seed).shuffle(&mut order);
    order
}

/// `<exp>/<row>/<col>` → `<exp>/<row>/<replacement>`.
fn sibling(id: &str, col: &str) -> String {
    match id.rsplit_once('/') {
        Some((row, _)) => format!("{row}/{col}"),
        None => id.to_string(),
    }
}

/// fig7a_warm: the Fig. 7a grid at catalog defaults — 10 benchmarks ×
/// Std/SAS/CHARM/DAS/DAS-FM/FS, 3 M insts, scale 64.
pub fn fig7a(seed: u64) -> JobList {
    let jobs = link(catalog_jobs("fig7a", BATCH_INSTS), |id| {
        Some(sibling(id, "std"))
    });
    JobList {
        order: seeded_order(jobs.len(), seed),
        jobs,
        paper: &crate::stats::PAPER_FIG7A,
        pinned: "fig7a/mcf/das".to_string(),
    }
}

/// Per-core instructions of a coherent job: the `coherent_protocol` set
/// as `harness --exp coherent_protocol --insts 1000000` builds it. A third
/// of the catalog default, so each job repeats several times per run
/// (the cluster simulates at ~4 M insts/s).
pub const COHERENT_INSTS: u64 = 500_000;

/// coherent_shared: the `coherent_protocol` set — shared ring/lock/
/// frontier × MESI/Dragon × Std/DAS, 4 cores at 500 k insts each.
pub fn coherent(seed: u64) -> JobList {
    let jobs = link(
        catalog_jobs("coherent_protocol", 2 * COHERENT_INSTS),
        |id| {
            let (row, col) = id.rsplit_once('/')?;
            let proto = col.split('_').next()?;
            Some(format!("{row}/{proto}_std"))
        },
    );
    JobList {
        order: seeded_order(jobs.len(), seed),
        jobs,
        paper: &crate::stats::PAPER_FIG7D,
        pinned: "coherent_protocol/lock/mesi_das".to_string(),
    }
}

/// Benchmarks of the migration-churn workload: the two capacity-bound
/// pointer chasers, a hot-set workload and the write-heavy stream.
pub const CHURN_BENCHES: [&str; 4] = ["mcf", "milc", "omnetpp", "lbm"];
/// Dynamic backends compared under churn.
pub const CHURN_BACKENDS: [&str; 3] = ["das", "lisa", "clr"];
/// Policies compared under churn (explicit tokens, so the policy layer is
/// installed on both).
pub const CHURN_POLICIES: [&str; 2] = ["paper_fixed", "feedback"];
/// The scarce fast level of the churn workload: 1/32 of each bank.
pub const CHURN_FAST_DEN: u32 = 32;

/// policy_churn: {mcf, milc, omnetpp, lbm} × {Std, DAS/LISA/CLR ×
/// {paper_fixed, feedback}} at a 1/32 fast level, 3 M insts.
pub fn policy_churn(seed: u64) -> JobList {
    let mut specs = Vec::new();
    for name in CHURN_BENCHES {
        let job = |col: String, design: &str, policy: Option<&str>| JobSpec {
            id: format!("policy_churn/{name}/{col}"),
            design: design.to_string(),
            workload: name.to_string(),
            insts: BATCH_INSTS,
            scale: SCALE,
            seed: CATALOG_SEED,
            ov: Overrides {
                fast_ratio_den: Some(CHURN_FAST_DEN),
                policy: policy.map(str::to_string),
                ..Overrides::default()
            },
        };
        specs.push(job("std".to_string(), "std", None));
        for backend in CHURN_BACKENDS {
            for policy in CHURN_POLICIES {
                specs.push(job(format!("{backend}_{policy}"), backend, Some(policy)));
            }
        }
    }
    let mut jobs = link(specs, |id| Some(sibling(id, "std")));
    // Only the paper's own rule on the paper's backend enters the paper
    // comparison.
    for j in &mut jobs {
        if j.spec.ov.policy.as_deref() != Some("paper_fixed") {
            j.paper_key = None;
        }
    }
    JobList {
        order: seeded_order(jobs.len(), seed),
        jobs,
        paper: &crate::stats::PAPER_FIG7A,
        pinned: "policy_churn/mcf/das_feedback".to_string(),
    }
}

/// serve_open_loop's distinct jobs: Fig. 7a's 10 benchmarks × Std/DAS at
/// 300 k insts. The order in which they are served is the schedule's
/// business (`serve::plan`).
pub fn serve_distinct() -> JobList {
    let mut specs = Vec::new();
    for name in das_workloads::spec::names() {
        for design in ["std", "das"] {
            specs.push(JobSpec {
                id: format!("serve/{name}/{design}"),
                design: design.to_string(),
                workload: name.to_string(),
                insts: SERVE_INSTS,
                scale: SCALE,
                seed: CATALOG_SEED,
                ov: Overrides::default(),
            });
        }
    }
    let jobs = link(specs, |id| Some(sibling(id, "std")));
    JobList {
        order: (0..jobs.len()).collect(),
        jobs,
        paper: &crate::stats::PAPER_FIG7A,
        pinned: "serve/mcf/das".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_reproduce_the_catalog_whatever_the_seed() {
        for seed in [42, 7] {
            let grid = fig7a(seed);
            assert_eq!(grid.jobs.len(), 60);
            let catalog = catalog_jobs("fig7a", BATCH_INSTS);
            assert!(grid.jobs.iter().zip(&catalog).all(|(a, b)| a.spec == *b));
            let coh = coherent(seed);
            assert_eq!(coh.jobs.len(), 12);
            assert!(coh.jobs.iter().all(|j| j.spec.insts == COHERENT_INSTS));
            assert_eq!(policy_churn(seed).jobs.len(), 28);
        }
        assert_eq!(serve_distinct().jobs.len(), 20);
    }

    #[test]
    fn the_seed_permutes_the_execution_order() {
        let (a, b) = (fig7a(42).order, fig7a(7).order);
        assert_ne!(a, b);
        assert_eq!(a, fig7a(42).order);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..60).collect::<Vec<_>>());
    }

    #[test]
    fn every_non_baseline_job_has_a_std_baseline() {
        for list in [fig7a(7), coherent(7), policy_churn(7), serve_distinct()] {
            for j in &list.jobs {
                if j.spec.design == "std" {
                    assert_eq!(j.base, None, "{}", j.spec.id);
                } else {
                    let b = &list.jobs[j.base.expect("baseline")].spec;
                    assert_eq!(b.design, "std");
                    assert_eq!(b.workload, j.spec.workload);
                    assert_eq!(b.ov.protocol, j.spec.ov.protocol);
                }
                assert_eq!(j.spec.seed, CATALOG_SEED);
            }
            assert!(list.jobs.iter().any(|j| j.spec.id == list.pinned));
        }
    }
}
