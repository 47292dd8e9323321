//! The `harness` command-line driver.
//!
//! [`harness_main`] is the experiment CLI: it executes any manifest (or
//! any subset of the catalog) across threads with a resumable fsync'd
//! journal, writing `<id>.txt` / `<id>.json` per experiment. Its
//! execution core ([`execute_jobs`], [`build_catalog_manifest`],
//! [`render_experiment_outputs`]) is shared with `das-serve`, so served
//! artifacts are byte-identical to direct runs.
//!
//! Argument parsing is pure and `Result`-based ([`parse_harness_args`]):
//! a malformed flag prints a structured usage error to stderr and exits
//! with code 2 — never a panic or backtrace. Runtime failures
//! (unreadable manifest, simulation error) keep exit code 1.

use std::path::{Path, PathBuf};

use das_telemetry::json::Value;

use crate::catalog::{self, BuildParams};
use crate::journal::{self, Journal};
use crate::manifest::{ExperimentPlan, JobSpec, Manifest};
use crate::pool::run_ordered;
use crate::profile::ProfileCache;
use crate::render::RenderCtx;
use crate::runner;

/// How a batch of jobs should execute.
pub struct ExecOptions<'a> {
    /// Worker threads (any value ≥ 1 yields identical results).
    pub threads: usize,
    /// Anchor for relative side-effect exports (`trace_path`).
    pub out_dir: &'a Path,
    /// Emit `[k/n] id` progress lines on stderr.
    pub progress: bool,
    /// When set, serve reference streams from this content-addressed
    /// `.dtr` store instead of regenerating them per run (results are
    /// bit-identical either way).
    pub trace_store: Option<&'a das_trace::TraceStore>,
}

/// Executes `jobs` on the pool, skipping the prefix already present in
/// `journal` (when given) and appending each new run to it in job order.
/// Returns every report — journalled and fresh — in job order.
///
/// # Errors
///
/// Returns the first simulation or journal failure; runs completed before
/// it are already journalled, so a rerun with `--resume` picks up there.
pub fn execute_jobs(
    jobs: &[JobSpec],
    opts: &ExecOptions,
    mut journal: Option<&mut Journal>,
) -> Result<Vec<Value>, String> {
    let done = journal.as_ref().map_or(0, |j| j.done());
    let total = jobs.len();
    if opts.progress && done > 0 {
        eprintln!("resuming: {done}/{total} runs already journalled");
    }
    let mut reports: Vec<Value> = journal
        .as_ref()
        .map(|j| j.entries.clone())
        .unwrap_or_default();
    let pending = &jobs[done..];
    let profiles = ProfileCache::new();
    let mut failure: Option<String> = None;
    run_ordered(
        opts.threads,
        pending.len(),
        |i| {
            let start = std::time::Instant::now();
            let result = runner::execute(&pending[i], &profiles, opts.out_dir, opts.trace_store);
            (result, start.elapsed())
        },
        |i, (result, wall)| {
            if failure.is_some() {
                return;
            }
            match result {
                Ok(report) => {
                    let job = &pending[i];
                    if let Some(j) = journal.as_deref_mut() {
                        if let Err(e) = j.append(&job.id, report.clone()) {
                            failure = Some(e);
                            return;
                        }
                    }
                    if opts.progress {
                        // Perf recorder: every run reports its host wall
                        // time and instruction rate (stderr only — the
                        // journalled report bytes are untouched).
                        eprintln!(
                            "[{}/{total}] {} ({:.0} ms, {:.2} M insts/s)",
                            done + i + 1,
                            job.id,
                            wall.as_secs_f64() * 1e3,
                            insts_retired(&report) as f64 / wall.as_secs_f64().max(1e-9) / 1e6,
                        );
                    }
                    reports.push(report);
                }
                Err(e) => failure = Some(e),
            }
        },
    );
    match failure {
        Some(e) => Err(e),
        None => Ok(reports),
    }
}

/// Sum of retired instructions across a run report's cores (zero when the
/// report carries no core metrics — the perf line then just shows 0).
fn insts_retired(report: &Value) -> u64 {
    report
        .get_path("metrics/cores")
        .and_then(Value::as_arr)
        .map(|cores| {
            cores
                .iter()
                .filter_map(|c| c.get("insts").and_then(Value::as_u64))
                .sum()
        })
        .unwrap_or(0)
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// Prints a usage error to stderr and exits with code 2 (the
/// argument-error convention), never panicking.
fn usage_die(msg: &str, usage: &str) -> ! {
    eprintln!("error: {msg}\n{usage}");
    std::process::exit(2);
}

/// Opens the content-addressed trace store, honouring `--no-trace-store`
/// (which wins over `--trace-store DIR`).
fn open_trace_store(dir: Option<String>, disabled: bool) -> Option<das_trace::TraceStore> {
    match (dir, disabled) {
        (Some(d), false) => Some(
            das_trace::TraceStore::open(Path::new(&d))
                .unwrap_or_else(|e| die(&format!("cannot open trace store {d}: {e}"))),
        ),
        _ => None,
    }
}

/// One-line session summary of the store's hit/miss/byte counters.
fn store_summary(store: &das_trace::TraceStore) -> String {
    let s = store.stats();
    format!(
        "trace store: {} hits, {} misses, {} KiB written, {} KiB read -> {}",
        s.hits,
        s.misses,
        s.bytes_written / 1024,
        s.bytes_read / 1024,
        store.dir().display()
    )
}

fn write_or_die(path: &Path, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        die(&format!("cannot write {}: {e}", path.display()));
    }
}

// ---------------------------------------------------------------------------
// Argument parsing (pure, Result-based; no process exits)
// ---------------------------------------------------------------------------

fn need(args: &mut dyn Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn need_u64(args: &mut dyn Iterator<Item = String>, flag: &str) -> Result<u64, String> {
    let v = need(args, flag)?;
    match v.parse::<u64>() {
        Ok(0) => Err(format!("{flag} needs a positive integer, got 0")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("{flag} needs a positive integer, got {v:?}")),
    }
}

fn need_u32(args: &mut dyn Iterator<Item = String>, flag: &str) -> Result<u32, String> {
    u32::try_from(need_u64(args, flag)?).map_err(|_| format!("{flag} is out of range"))
}

fn need_list(args: &mut dyn Iterator<Item = String>, flag: &str) -> Result<Vec<String>, String> {
    Ok(need(args, flag)?.split(',').map(str::to_string).collect())
}

/// Usage line of the standalone `harness` binary ([`harness_main`]).
pub const HARNESS_USAGE: &str = "usage: harness (--manifest PATH | --all | --exp a,b) \
     [--insts N] [--scale N] [--only a,b] [--threads N] [--resume] \
     [--json-dir DIR] [--emit-manifest PATH] [--validate-journal PATH] \
     [--trace-store DIR] [--no-trace-store]";

/// Parsed flags of the standalone `harness` binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessArgs {
    /// `--manifest PATH`.
    pub manifest_path: Option<String>,
    /// `--all` (the whole catalog).
    pub all: bool,
    /// `--exp a,b` (catalog subset).
    pub exp_ids: Vec<String>,
    /// `--insts N`.
    pub insts: u64,
    /// `--scale N`.
    pub scale: u32,
    /// `--only a,b`.
    pub only: Vec<String>,
    /// `--threads N`.
    pub threads: usize,
    /// `--resume`.
    pub resume: bool,
    /// `--json-dir DIR`.
    pub json_dir: Option<String>,
    /// `--emit-manifest PATH`.
    pub emit_manifest: Option<String>,
    /// `--trace-store DIR`.
    pub trace_store_dir: Option<String>,
    /// `--no-trace-store`.
    pub no_trace_store: bool,
    /// `--validate-journal PATH` (check a journal and exit).
    pub validate_journal: Option<String>,
}

impl Default for HarnessArgs {
    fn default() -> HarnessArgs {
        HarnessArgs {
            manifest_path: None,
            all: false,
            exp_ids: Vec::new(),
            insts: 3_000_000,
            scale: 64,
            only: Vec::new(),
            threads: 1,
            resume: false,
            json_dir: None,
            emit_manifest: None,
            trace_store_dir: None,
            no_trace_store: false,
            validate_journal: None,
        }
    }
}

/// Parses the `harness` orchestrator's arguments.
///
/// # Errors
///
/// Returns a usage message naming the offending flag and value — callers
/// print it and exit 2.
pub fn parse_harness_args<I: IntoIterator<Item = String>>(args: I) -> Result<HarnessArgs, String> {
    let mut out = HarnessArgs::default();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--manifest" => out.manifest_path = Some(need(&mut args, "--manifest")?),
            "--all" => out.all = true,
            "--exp" => out.exp_ids = need_list(&mut args, "--exp")?,
            "--insts" => out.insts = need_u64(&mut args, "--insts")?,
            "--scale" => out.scale = need_u32(&mut args, "--scale")?,
            "--only" => out.only = need_list(&mut args, "--only")?,
            "--threads" => out.threads = need_u64(&mut args, "--threads")? as usize,
            "--resume" => out.resume = true,
            "--json-dir" => out.json_dir = Some(need(&mut args, "--json-dir")?),
            "--emit-manifest" => out.emit_manifest = Some(need(&mut args, "--emit-manifest")?),
            "--trace-store" => out.trace_store_dir = Some(need(&mut args, "--trace-store")?),
            "--no-trace-store" => out.no_trace_store = true,
            "--validate-journal" => {
                out.validate_journal = Some(need(&mut args, "--validate-journal")?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if out.validate_journal.is_none()
        && out.manifest_path.is_none()
        && !out.all
        && out.exp_ids.is_empty()
    {
        return Err("nothing to run (pass --manifest, --all or --exp)".into());
    }
    Ok(out)
}

/// The experiment-family vocabulary quoted by `--exp` diagnostics, so an
/// unknown id or empty glob tells the user what the catalog groups into.
fn known_families() -> String {
    catalog::FAMILIES.join(", ")
}

/// Builds a manifest from catalog ids + grid parameters (the `--exp` /
/// `--all` path of the harness, and the `submit_experiment` request of
/// `das-serve`). An id ending in `*` expands to every catalog experiment
/// with that prefix in presentation order (`--exp cross_arch_*` runs the
/// whole family).
///
/// # Errors
///
/// Returns a message naming an unknown experiment id or a glob that
/// matches nothing, quoting the known family prefixes.
pub fn build_catalog_manifest(
    ids: &[String],
    insts: u64,
    scale: u32,
    only: &[String],
) -> Result<Manifest, String> {
    let params = BuildParams {
        only: only.to_vec(),
        ..BuildParams::new(insts, scale)
    };
    let mut expanded: Vec<&'static str> = Vec::new();
    for id in ids {
        if let Some(prefix) = id.strip_suffix('*') {
            let matches: Vec<&'static str> = catalog::ids()
                .into_iter()
                .filter(|e| e.starts_with(prefix))
                .collect();
            if matches.is_empty() {
                return Err(format!(
                    "no experiments match {id:?} (known families: {})",
                    known_families()
                ));
            }
            expanded.extend(matches);
        } else {
            let exp = catalog::by_id(id).ok_or_else(|| {
                format!(
                    "unknown experiment {id:?} (known families: {})",
                    known_families()
                )
            })?;
            expanded.push(exp.id);
        }
    }
    let mut experiments = Vec::new();
    for id in expanded {
        let exp = catalog::by_id(id).expect("expanded ids come from the catalog");
        experiments.push(ExperimentPlan {
            id: exp.id.to_string(),
            jobs: (exp.build)(&params),
        });
    }
    Ok(Manifest {
        insts,
        scale,
        experiments,
    })
}

/// Renders every experiment's `<id>.txt` and `<id>.json` into `out_dir`
/// from `reports` (aligned with the manifest's flat job order). This is
/// the shared tail of a `harness` run and a `dasctl` fetch — one code
/// path, so artifacts fetched from a `das-serve` server are byte-identical
/// to a direct run's.
///
/// # Errors
///
/// Returns a message on unknown experiment ids, a report/job count
/// mismatch, or a write failure.
pub fn render_experiment_outputs(
    out_dir: &Path,
    manifest: &Manifest,
    reports: &[Value],
    progress: bool,
) -> Result<(), String> {
    let total: usize = manifest.experiments.iter().map(|e| e.jobs.len()).sum();
    if reports.len() != total {
        return Err(format!(
            "{} reports for {total} jobs — cannot render",
            reports.len()
        ));
    }
    let mut offset = 0;
    for e in &manifest.experiments {
        let n = e.jobs.len();
        let exp = catalog::by_id(&e.id)
            .ok_or_else(|| format!("manifest names unknown experiment {:?}", e.id))?;
        let report_path = out_dir.join(format!("{}.json", e.id));
        let exp_reports = &reports[offset..offset + n];
        let ctx = RenderCtx {
            insts: manifest.insts,
            scale: manifest.scale,
            jobs: &e.jobs,
            reports: exp_reports,
        };
        let text = (exp.render)(&ctx);
        let txt_path = out_dir.join(format!("{}.txt", e.id));
        std::fs::write(&txt_path, &text)
            .map_err(|err| format!("cannot write {}: {err}", txt_path.display()))?;
        // The telemetry experiment historically exports its bare run
        // report; everything else exports the legacy runs document.
        let json_doc = if e.id == "telemetry" && n == 1 {
            exp_reports[0].render()
        } else {
            journal::runs_doc(exp_reports).render()
        };
        std::fs::write(&report_path, &json_doc)
            .map_err(|err| format!("cannot write {}: {err}", report_path.display()))?;
        if progress {
            eprintln!("rendered {}", txt_path.display());
        }
        offset += n;
    }
    Ok(())
}

/// Entry point of the standalone `harness` binary.
///
/// Selects a run matrix (`--manifest PATH`, the full catalog via `--all`,
/// or a subset via `--exp a,b`), executes it on `--threads N` workers with
/// an fsync'd journal at `<json-dir>/journal.jsonl` (`--resume` continues
/// a previous run), and writes `<id>.txt` + `<id>.json` per experiment.
/// `--emit-manifest PATH` writes the matrix instead of executing;
/// `--validate-journal PATH` structurally checks a journal and exits.
/// Malformed arguments print a usage error to stderr and exit 2.
pub fn harness_main() {
    let args = parse_harness_args(std::env::args().skip(1))
        .unwrap_or_else(|e| usage_die(&e, HARNESS_USAGE));
    if let Some(path) = &args.validate_journal {
        match journal::load(Path::new(path)) {
            Ok(doc) => {
                println!(
                    "{path}: valid ({}/{} runs, manifest fp {})",
                    doc.runs.len(),
                    doc.jobs,
                    doc.fingerprint
                );
                return;
            }
            Err(e) => die(&format!("{path}: invalid journal: {e}")),
        }
    }
    let manifest = if let Some(path) = &args.manifest_path {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
        Manifest::parse(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")))
    } else {
        let ids: Vec<String> = if args.all {
            catalog::ids().iter().map(|s| s.to_string()).collect()
        } else {
            args.exp_ids.clone()
        };
        build_catalog_manifest(&ids, args.insts, args.scale, &args.only)
            .unwrap_or_else(|e| usage_die(&e, HARNESS_USAGE))
    };
    if let Err(e) = manifest.validate() {
        die(&format!("invalid manifest: {e}"));
    }
    if let Some(path) = args.emit_manifest {
        write_or_die(Path::new(&path), &(manifest.render() + "\n"));
        eprintln!("wrote manifest ({} jobs): {path}", manifest.jobs().len());
        return;
    }
    let out_dir = PathBuf::from(args.json_dir.unwrap_or_else(|| ".".to_string()));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        die(&format!("cannot create {}: {e}", out_dir.display()));
    }
    let journal_path = out_dir.join("journal.jsonl");
    let fp = manifest.fingerprint();
    let flat: Vec<JobSpec> = manifest
        .experiments
        .iter()
        .flat_map(|e| e.jobs.iter().cloned())
        .collect();
    let ids: Vec<&str> = flat.iter().map(|j| j.id.as_str()).collect();
    let mut jr = if args.resume {
        Journal::resume(&journal_path, &fp, &ids)
    } else {
        Journal::create(&journal_path, &fp, ids.len())
    }
    .unwrap_or_else(|e| die(&e));
    let store = open_trace_store(args.trace_store_dir, args.no_trace_store);
    let opts = ExecOptions {
        threads: args.threads,
        out_dir: &out_dir,
        progress: true,
        trace_store: store.as_ref(),
    };
    let reports = execute_jobs(&flat, &opts, Some(&mut jr)).unwrap_or_else(|e| die(&e));
    render_experiment_outputs(&out_dir, &manifest, &reports, true).unwrap_or_else(|e| die(&e));
    if let Some(s) = &store {
        println!("{}", store_summary(s));
    }
    println!(
        "done: {} runs across {} experiments -> {}",
        flat.len(),
        manifest.experiments.len(),
        out_dir.display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Overrides;

    fn quick_job(id: &str, design: &str) -> JobSpec {
        JobSpec {
            id: id.into(),
            design: design.into(),
            workload: "libquantum".into(),
            insts: 100_000,
            scale: 64,
            seed: 42,
            ov: Overrides::default(),
        }
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn execute_jobs_skips_the_journalled_prefix() {
        let dir = std::env::temp_dir().join("das-harness-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let jpath = dir.join("skip.jsonl");
        let jobs = vec![quick_job("t/a/std", "std"), quick_job("t/b/das", "das")];
        let opts = ExecOptions {
            threads: 1,
            out_dir: &dir,
            progress: false,
            trace_store: None,
        };
        let fresh = {
            let _ = std::fs::remove_file(&jpath);
            let mut j = Journal::create(&jpath, "fp", 2).unwrap();
            execute_jobs(&jobs, &opts, Some(&mut j)).unwrap()
        };
        // Resume with the first run already journalled: only job 2 runs,
        // and the combined reports are byte-identical.
        let ids: Vec<&str> = jobs.iter().map(|j| j.id.as_str()).collect();
        let mut j = {
            let mut j = Journal::create(&jpath, "fp", 2).unwrap();
            j.append("t/a/std", fresh[0].clone()).unwrap();
            drop(j);
            Journal::resume(&jpath, "fp", &ids).unwrap()
        };
        assert_eq!(j.done(), 1);
        let resumed = execute_jobs(&jobs, &opts, Some(&mut j)).unwrap();
        assert_eq!(resumed.len(), 2);
        assert_eq!(resumed[0].render(), fresh[0].render());
        assert_eq!(resumed[1].render(), fresh[1].render());
    }

    #[test]
    fn execute_jobs_surfaces_the_first_failure() {
        let mut bad = quick_job("t/bad/std", "std");
        bad.ov.event_budget = Some(100);
        let opts = ExecOptions {
            threads: 2,
            out_dir: Path::new("."),
            progress: false,
            trace_store: None,
        };
        let err = execute_jobs(&[quick_job("t/ok/std", "std"), bad], &opts, None).unwrap_err();
        assert!(err.contains("t/bad/std"), "{err}");
    }

    #[test]
    fn harness_args_reject_each_malformed_flag() {
        for (args, needle) in [
            (vec!["--exp"], "--exp needs a value"),
            (vec!["--manifest"], "--manifest needs a value"),
            (vec!["--all", "--insts", "abc"], "--insts"),
            (vec!["--all", "--scale", "x"], "--scale"),
            (vec!["--all", "--threads", "1.5"], "--threads"),
            (vec!["--all", "--json-dir"], "needs a value"),
            (vec!["--all", "--validate-journal"], "needs a value"),
            (vec!["--all", "--wat"], "unknown argument"),
            (vec![], "nothing to run"),
            (vec!["--insts", "100"], "nothing to run"),
        ] {
            let err = parse_harness_args(argv(&args)).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
        let a = parse_harness_args(argv(&["--exp", "fig8a", "--resume"])).unwrap();
        assert_eq!(a.exp_ids, vec!["fig8a".to_string()]);
        assert!(a.resume);
        // --validate-journal alone is a complete invocation.
        let a = parse_harness_args(argv(&["--validate-journal", "j.jsonl"])).unwrap();
        assert_eq!(a.validate_journal.as_deref(), Some("j.jsonl"));
    }

    #[test]
    fn build_catalog_manifest_rejects_unknown_ids() {
        let err = build_catalog_manifest(&["nosuch".to_string()], 100_000, 64, &[]).unwrap_err();
        assert!(err.contains("nosuch"), "{err}");
        let m = build_catalog_manifest(
            &["fig8a".to_string()],
            100_000,
            64,
            &["libquantum".to_string()],
        )
        .unwrap();
        assert_eq!(m.experiments.len(), 1);
        assert!(!m.experiments[0].jobs.is_empty());
        m.validate().unwrap();
    }

    #[test]
    fn build_catalog_manifest_expands_prefix_globs() {
        let m = build_catalog_manifest(
            &["cross_arch_*".to_string()],
            100_000,
            64,
            &["libquantum".to_string()],
        )
        .unwrap();
        assert_eq!(m.experiments.len(), 6, "the whole cross_arch family");
        assert!(m
            .experiments
            .iter()
            .all(|e| e.id.starts_with("cross_arch_")));
        m.validate().unwrap();
        // Globs matching nothing are an error, not an empty grid — and the
        // message lists the family vocabulary.
        let err = build_catalog_manifest(&["warp_*".to_string()], 100_000, 64, &[]).unwrap_err();
        assert!(err.contains("warp_*"), "{err}");
        assert!(err.contains("known families"), "{err}");
        assert!(
            err.contains("cross_arch") && err.contains("coherent"),
            "{err}"
        );
        let err = build_catalog_manifest(&["warp".to_string()], 100_000, 64, &[]).unwrap_err();
        assert!(err.contains("unknown experiment"), "{err}");
        assert!(err.contains("known families"), "{err}");
        // A bare `*` is the full catalog.
        let all = build_catalog_manifest(&["*".to_string()], 100_000, 64, &[]).unwrap();
        assert_eq!(all.experiments.len(), crate::catalog::ids().len());
    }

    #[test]
    fn policy_search_glob_expands_to_the_family() {
        let m = build_catalog_manifest(
            &["policy_search_*".to_string()],
            100_000,
            64,
            &["mcf".to_string()],
        )
        .unwrap();
        assert_eq!(
            m.experiments
                .iter()
                .map(|e| e.id.as_str())
                .collect::<Vec<_>>(),
            [
                "policy_search_rank",
                "policy_search_size",
                "policy_search_adapt"
            ]
        );
        m.validate().unwrap();
        // The family vocabulary mentions the new group in diagnostics.
        let err = build_catalog_manifest(&["warp".to_string()], 100_000, 64, &[]).unwrap_err();
        assert!(err.contains("policy_search"), "{err}");
    }

    #[test]
    fn render_experiment_outputs_checks_report_count() {
        let m = build_catalog_manifest(
            &["fig8a".to_string()],
            100_000,
            64,
            &["libquantum".to_string()],
        )
        .unwrap();
        let err = render_experiment_outputs(Path::new("."), &m, &[], false).unwrap_err();
        assert!(err.contains("reports"), "{err}");
    }
}
