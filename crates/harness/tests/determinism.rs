//! The harness's three load-bearing guarantees, end to end:
//!
//! 1. an N-thread run journals and renders **byte-identical** output to a
//!    serial run,
//! 2. a journal truncated mid-write (the crash case) resumes and converges
//!    to the byte-identical final journal, and
//! 3. the `harness` binary's emit → execute → validate → resume loop works
//!    from the command line.

use std::fs;
use std::path::PathBuf;

use das_harness::catalog::{by_id, BuildParams};
use das_harness::cli::{execute_jobs, ExecOptions};
use das_harness::journal::{self, Journal};
use das_harness::manifest::{ExperimentPlan, JobSpec, Manifest};
use das_harness::render::RenderCtx;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("das-harness-it").join(name);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Fig. 8a over one benchmark: 5 jobs (Std baseline + four thresholds).
/// Deliberately small and fast; the SAS/CHARM profile-memo path is covered
/// by the unit tests and the CI catalog journal pin.
fn small_manifest() -> Manifest {
    let mut p = BuildParams::new(100_000, 64);
    p.only = vec!["libquantum".to_string()];
    let jobs = (by_id("fig8a").unwrap().build)(&p);
    assert_eq!(jobs.len(), 5);
    Manifest {
        insts: 100_000,
        scale: 64,
        experiments: vec![ExperimentPlan {
            id: "fig8a".to_string(),
            jobs,
        }],
    }
}

fn run_to_journal(m: &Manifest, dir: &PathBuf, threads: usize) -> (Vec<u8>, String) {
    let flat: Vec<JobSpec> = m
        .experiments
        .iter()
        .flat_map(|e| e.jobs.iter().cloned())
        .collect();
    let path = dir.join("journal.jsonl");
    let _ = fs::remove_file(&path);
    let mut jr = Journal::create(&path, &m.fingerprint(), flat.len()).unwrap();
    let opts = ExecOptions {
        threads,
        out_dir: dir,
        progress: false,
        trace_store: None,
    };
    let reports = execute_jobs(&flat, &opts, Some(&mut jr)).unwrap();
    drop(jr);
    let ctx = RenderCtx {
        insts: m.insts,
        scale: m.scale,
        jobs: &m.experiments[0].jobs,
        reports: &reports,
    };
    let text = (by_id(&m.experiments[0].id).unwrap().render)(&ctx);
    (fs::read(&path).unwrap(), text)
}

#[test]
fn parallel_run_is_bit_identical_to_serial() {
    let m = small_manifest();
    let (serial_journal, serial_text) = run_to_journal(&m, &tmp_dir("serial"), 1);
    let (parallel_journal, parallel_text) = run_to_journal(&m, &tmp_dir("parallel"), 8);
    assert_eq!(
        serial_journal, parallel_journal,
        "journal bytes must not depend on the thread count"
    );
    assert_eq!(serial_text, parallel_text);
    assert!(serial_text.starts_with("# Figure 8a"));
}

#[test]
fn truncated_journal_resumes_and_converges() {
    let m = small_manifest();
    let dir = tmp_dir("resume");
    let (full, _) = run_to_journal(&m, &dir, 2);
    let path = dir.join("journal.jsonl");

    // Crash simulation: keep the header + two complete runs, then a torn
    // half-line from a run that was being appended when the power died.
    let text = String::from_utf8(full.clone()).unwrap();
    let keep: Vec<&str> = text.lines().take(3).collect();
    let truncated = format!(
        "{}\n{{\"job\":\"fig8a/libquantum/t4\",\"repo",
        keep.join("\n")
    );
    fs::write(&path, truncated).unwrap();

    let flat: Vec<JobSpec> = m
        .experiments
        .iter()
        .flat_map(|e| e.jobs.iter().cloned())
        .collect();
    let ids: Vec<&str> = flat.iter().map(|j| j.id.as_str()).collect();
    let mut jr = Journal::resume(&path, &m.fingerprint(), &ids).unwrap();
    assert_eq!(jr.done(), 2, "torn tail dropped, two complete runs kept");
    let opts = ExecOptions {
        threads: 2,
        out_dir: &dir,
        progress: false,
        trace_store: None,
    };
    let reports = execute_jobs(&flat, &opts, Some(&mut jr)).unwrap();
    drop(jr);
    assert_eq!(reports.len(), flat.len());
    assert_eq!(
        fs::read(&path).unwrap(),
        full,
        "resumed journal converges to the uninterrupted bytes"
    );
    let doc = journal::load(&path).unwrap();
    assert_eq!(doc.runs.len() as u64, doc.jobs);
}

#[test]
fn cross_arch_manifest_round_trips_and_journal_validates() {
    let exe = env!("CARGO_BIN_EXE_harness");
    let dir = tmp_dir("cross-arch");
    let manifest_path = dir.join("cross.json");
    let out_dir = dir.join("out");
    let run = |args: &[&str]| {
        let out = std::process::Command::new(exe)
            .args(args)
            .output()
            .expect("spawn harness");
        assert!(
            out.status.success(),
            "harness {args:?} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };

    // The `cross_arch_*` glob emits the whole six-experiment family; the
    // document round-trips through the current schema.
    run(&[
        "--exp",
        "cross_arch_*",
        "--insts",
        "60000",
        "--only",
        "mcf",
        "--emit-manifest",
        manifest_path.to_str().unwrap(),
    ]);
    let text = fs::read_to_string(&manifest_path).unwrap();
    assert!(
        text.contains(&format!(
            "\"das_manifest\":{}",
            das_harness::manifest::MANIFEST_VERSION
        )),
        "cross-arch manifests carry the current schema version"
    );
    let m = Manifest::parse(&text).unwrap();
    assert_eq!(m.experiments.len(), 6);
    assert!(m
        .experiments
        .iter()
        .all(|e| e.id.starts_with("cross_arch_")));
    for key in ["clr", "lisa", "salp"] {
        assert!(
            m.jobs().iter().any(|j| j.design == key),
            "family covers design {key}"
        );
    }
    // `--emit-manifest` writes a trailing newline around the rendered doc.
    assert_eq!(
        format!("{}\n", m.render()),
        text,
        "round trip is byte-stable"
    );

    // Execute the smallest family member and structurally validate its
    // journal through the same `--validate-journal` path CI uses.
    run(&[
        "--exp",
        "cross_arch_salp",
        "--insts",
        "60000",
        "--only",
        "mcf",
        "--threads",
        "2",
        "--json-dir",
        out_dir.to_str().unwrap(),
    ]);
    let txt = fs::read_to_string(out_dir.join("cross_arch_salp.txt")).unwrap();
    assert!(txt.starts_with("# Cross-architecture: SALP composition"));
    let journal_path = out_dir.join("journal.jsonl");
    let verdict = run(&["--validate-journal", journal_path.to_str().unwrap()]);
    assert!(verdict.contains("valid (6/6 runs"), "{verdict}");
}

#[test]
fn harness_binary_emit_execute_validate_resume() {
    let exe = env!("CARGO_BIN_EXE_harness");
    let dir = tmp_dir("cli");
    let manifest_path = dir.join("m.json");
    let out_dir = dir.join("out");
    let run = |args: &[&str]| {
        let out = std::process::Command::new(exe)
            .args(args)
            .output()
            .expect("spawn harness");
        assert!(
            out.status.success(),
            "harness {args:?} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };

    run(&[
        "--exp",
        "fig8c",
        "--insts",
        "100000",
        "--only",
        "libquantum",
        "--emit-manifest",
        manifest_path.to_str().unwrap(),
    ]);
    let m = Manifest::parse(&fs::read_to_string(&manifest_path).unwrap()).unwrap();
    assert_eq!(m.jobs().len(), 4);

    run(&[
        "--manifest",
        manifest_path.to_str().unwrap(),
        "--threads",
        "2",
        "--json-dir",
        out_dir.to_str().unwrap(),
    ]);
    let txt = fs::read(out_dir.join("fig8c.txt")).unwrap();
    let journal_path = out_dir.join("journal.jsonl");
    let journal_bytes = fs::read(&journal_path).unwrap();
    let verdict = run(&["--validate-journal", journal_path.to_str().unwrap()]);
    assert!(verdict.contains("valid (4/4 runs"), "{verdict}");

    // Drop the final journal line (a crash between fsyncs) and resume: the
    // journal and the rendered table must converge to the same bytes.
    let text = String::from_utf8(journal_bytes.clone()).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    lines.pop();
    fs::write(&journal_path, format!("{}\n", lines.join("\n"))).unwrap();
    run(&[
        "--manifest",
        manifest_path.to_str().unwrap(),
        "--threads",
        "2",
        "--json-dir",
        out_dir.to_str().unwrap(),
        "--resume",
    ]);
    assert_eq!(fs::read(&journal_path).unwrap(), journal_bytes);
    assert_eq!(fs::read(out_dir.join("fig8c.txt")).unwrap(), txt);
}
