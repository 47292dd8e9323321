//! Whole-catalog output lock: every experiment of the catalog, built at
//! `--insts 20000 --only mcf,M1,ring` (one row per grid, 186 runs over
//! 37 experiments), executed on two worker threads with a journal and
//! rendered into a scratch directory, must reproduce the journal bytes
//! and the rendered `.txt` bytes (concatenated in file-name order) of
//! the locked digests. This is the in-process twin of
//!
//! ```text
//! harness --all --insts 20000 --only mcf,M1,ring --threads 2 --json-dir D
//! ```
//!
//! whose `D/journal.jsonl` and `LC_ALL=C cat D/*.txt` have the same bytes.
//! It pins every job id, job order, spec and renderer of the catalog, so
//! a change to how an experiment describes its grid or reads its cells
//! that moves a single byte fails here.

use std::path::PathBuf;

use das_harness::catalog;
use das_harness::cli::{
    build_catalog_manifest, execute_jobs, render_experiment_outputs, ExecOptions,
};
use das_harness::journal::Journal;
use das_harness::manifest::JobSpec;

const INSTS: u64 = 20_000;
const SCALE: u32 = 64;
const ONLY: [&str; 3] = ["mcf", "M1", "ring"];

/// FNV-1a digests of the journal and of the concatenated renders.
const JOURNAL_DIGEST: u64 = 0x625d_7fb2_f5f2_1880;
const RENDER_DIGEST: u64 = 0x79b7_7bf9_33f4_f647;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn catalog_journal_and_renders_are_byte_identical() {
    let ids: Vec<String> = catalog::ids().iter().map(|s| s.to_string()).collect();
    let only: Vec<String> = ONLY.iter().map(|s| s.to_string()).collect();
    let manifest = build_catalog_manifest(&ids, INSTS, SCALE, &only).expect("catalog builds");
    manifest.validate().expect("catalog manifest validates");
    assert_eq!(manifest.experiments.len(), 37);
    let jobs: Vec<JobSpec> = manifest
        .experiments
        .iter()
        .flat_map(|e| e.jobs.iter().cloned())
        .collect();
    assert_eq!(jobs.len(), 186);

    let dir: PathBuf = std::env::temp_dir().join(format!("catalog_lock_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal_path = dir.join("journal.jsonl");
    let mut journal = Journal::create(&journal_path, &manifest.fingerprint(), jobs.len()).unwrap();
    let opts = ExecOptions {
        threads: 2,
        out_dir: &dir,
        progress: false,
        trace_store: None,
    };
    let reports = execute_jobs(&jobs, &opts, Some(&mut journal)).expect("catalog runs");
    drop(journal);
    render_experiment_outputs(&dir, &manifest, &reports, false).expect("catalog renders");

    let journal_bytes = std::fs::read(&journal_path).unwrap();
    let mut txt: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    txt.sort();
    assert_eq!(txt.len(), 37);
    let mut renders = Vec::new();
    for p in &txt {
        renders.extend(std::fs::read(p).unwrap());
    }
    std::fs::remove_dir_all(&dir).unwrap();

    let (journal_got, render_got) = (fnv1a(&journal_bytes), fnv1a(&renders));
    assert_eq!(
        (journal_got, render_got),
        (JOURNAL_DIGEST, RENDER_DIGEST),
        "catalog digests moved: journal {journal_got:#018x}, renders {render_got:#018x}"
    );
}
