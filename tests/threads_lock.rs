//! `--threads` determinism lock: the `policy_search_rank` slice CI's
//! policy smoke compares (`harness --exp policy_search_rank --insts 60000
//! --only libquantum`, every policy on every dynamic exclusive backend)
//! must render the same bytes whether its jobs run on one worker thread
//! or two. Policies are pure decision functions and each job owns its
//! simulator, so the pool's scheduling must never reach a report.

use das_harness::catalog::{by_id, BuildParams};
use das_harness::cli::{execute_jobs, ExecOptions};
use das_harness::journal;
use das_harness::render::RenderCtx;

const EXP: &str = "policy_search_rank";

/// Runs the slice on `threads` workers and returns every job's report
/// followed by the experiment's rendered text and JSON document.
fn rendered(threads: usize) -> Vec<String> {
    let exp = by_id(EXP).expect("catalog experiment");
    let mut params = BuildParams::new(60_000, 64);
    params.only = vec!["libquantum".to_string()];
    let jobs = (exp.build)(&params);
    let out_dir = std::env::temp_dir();
    let opts = ExecOptions {
        threads,
        out_dir: &out_dir,
        progress: false,
        trace_store: None,
    };
    let reports = execute_jobs(&jobs, &opts, None).unwrap();
    assert_eq!(reports.len(), jobs.len());
    let ctx = RenderCtx {
        insts: params.insts,
        scale: params.scale,
        jobs: &jobs,
        reports: &reports,
    };
    let mut out: Vec<String> = reports.iter().map(|r| r.render()).collect();
    out.push((exp.render)(&ctx));
    out.push(journal::runs_doc(&reports).render());
    out
}

#[test]
fn policy_search_slice_is_identical_on_one_and_two_threads() {
    let serial = rendered(1);
    let parallel = rendered(2);
    // Every policy on more than one backend, plus the two renders.
    assert!(serial.len() > 10, "{} outputs", serial.len());
    assert!(serial[serial.len() - 2].contains("ranking (DAS-DRAM):"));
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(a, b, "output {i} differs between 1 and 2 threads");
    }
    assert_eq!(serial.len(), parallel.len());
}
