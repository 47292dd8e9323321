//! Output lock against the checked-in golden journal line: the DAS job of
//! the cross-architecture ranking and the `paper_fixed` DAS job of the
//! policy search must both journal exactly the bytes of
//! `ci/golden_cross_arch_das.jsonl`. Routing DAS through the backend
//! trait and shipping adaptive policies must never move the default path.
//!
//! Each job is built by the harness catalog with the same flags as
//! `harness --exp <id> --insts 60000 --only libquantum`, executed by the
//! harness runner and appended through the harness journal, so the line
//! compared is the one a `harness` run writes. Regenerate the golden only
//! for a deliberate, reviewed output change.

use std::fs;

use das_harness::catalog::{by_id, BuildParams};
use das_harness::journal::Journal;
use das_harness::profile::ProfileCache;
use das_harness::runner;

const GOLDEN: &str = include_str!("../ci/golden_cross_arch_das.jsonl");

/// The job id the golden line carries.
const GOLDEN_JOB: &str = "cross_arch_rank/libquantum/das";

/// Runs catalog job `job_id` of experiment `exp` and returns its journal
/// line, newline included.
fn journal_line(exp: &str, job_id: &str) -> String {
    let mut params = BuildParams::new(60_000, 64);
    params.only = vec!["libquantum".to_string()];
    let jobs = (by_id(exp).expect("catalog experiment").build)(&params);
    let job = jobs
        .iter()
        .find(|j| j.id == job_id)
        .unwrap_or_else(|| panic!("{exp} has no job {job_id}"));
    let dir = std::env::temp_dir();
    let path = dir.join(format!(
        "das-golden-lock-{}-{exp}.jsonl",
        std::process::id()
    ));
    let report = runner::execute(job, &ProfileCache::new(), &dir, None).unwrap();
    let mut journal = Journal::create(&path, "golden-lock", 1).unwrap();
    journal.append(&job.id, report).unwrap();
    drop(journal);
    let text = fs::read_to_string(&path).unwrap();
    let _ = fs::remove_file(&path);
    // Line 1 is the journal header; line 2 is the run.
    let line = text.split_inclusive('\n').nth(1).expect("run line");
    line.to_string()
}

#[test]
fn cross_arch_das_matches_golden() {
    let line = journal_line("cross_arch_rank", GOLDEN_JOB);
    assert_eq!(line, GOLDEN);
}

#[test]
fn policy_search_paper_fixed_matches_golden() {
    let job = "policy_search_rank/libquantum/das_paper_fixed";
    let line = journal_line("policy_search_rank", job).replacen(
        &format!("\"job\":\"{job}\""),
        &format!("\"job\":\"{GOLDEN_JOB}\""),
        1,
    );
    assert_eq!(line, GOLDEN);
}
