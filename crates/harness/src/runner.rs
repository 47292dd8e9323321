//! Executes one [`JobSpec`] to its journalled run report.
//!
//! This is the only place where manifest data meets the simulator: the job
//! is materialised, the profiling pre-pass is fetched from the shared
//! memo (computed at most once per distinct key), the run executes (with
//! telemetry when the job asks for it) and the report
//! [`Value`] that will be journalled (and that every renderer consumes)
//! is assembled. A job with a `trace_path` override also exports its
//! Chrome trace-event document as an execution-time side effect, so a
//! resumed run that skips the job keeps the file from the first pass.
//!
//! With a [`TraceStore`], the main run's reference streams come from
//! content-addressed `.dtr` files instead of in-process generation: each
//! distinct `(workload spec, seed, scale, insts)` episode is materialized
//! once per grid and replayed from disk afterwards. The replayed prefix is
//! exactly what the cores consume (see `das_workloads::dtr`), so
//! store-served reports are bit-identical to generator-backed ones —
//! locked by the tests below. The SAS/CHARM profiling pre-pass stays
//! generator-based: it walks a different seed and horizon and is memoized
//! separately in [`ProfileCache`].

use std::path::Path;

use das_sim::experiments::run_one_coherent_instrumented;
use das_sim::report::run_report;
use das_sim::{System, TraceSource};
use das_telemetry::json::{self, Value};
use das_trace::TraceStore;
use das_workloads::config::WorkloadConfig;
use das_workloads::dtr;
use das_workloads::gen::TraceGen;

use crate::manifest::JobSpec;
use crate::profile::{profile_key, ProfileCache};

/// Runs one job, returning the report to journal.
///
/// `out_dir` anchors relative side-effect exports (`trace_path`); `store`,
/// when given, serves the main run's reference streams from disk. Traces
/// absent from the store are materialized first (once per key); after the
/// run every stream's health is checked, so a truncated or corrupted trace
/// fails the job loudly instead of silently cutting it short.
///
/// # Errors
///
/// Returns a readable message naming the job on simulation, trace-store,
/// or export failure.
pub fn execute(
    job: &JobSpec,
    profiles: &ProfileCache,
    out_dir: &Path,
    store: Option<&TraceStore>,
) -> Result<Value, String> {
    let (cfg, design, workloads) = job.materialize()?;
    // The telemetry report is `None` unless the job sets `telemetry_epoch`.
    let (res, tel) = if let Some((spec, protocol)) = job.coherent_spec()? {
        // Coherent runs synthesize their shared-footprint streams
        // in-process (deterministic by construction), so the trace store
        // is bypassed.
        run_one_coherent_instrumented(&cfg, design, &spec, protocol)
    } else {
        let profile = design
            .needs_profile()
            .then(|| profiles.get_or_compute(&profile_key(job), &cfg, &workloads));
        let scaled: Vec<WorkloadConfig> = workloads
            .iter()
            .map(|w| w.scaled(u64::from(cfg.scale)))
            .collect();
        let mut sources: Vec<TraceSource> = Vec::with_capacity(scaled.len());
        let mut statuses = Vec::new();
        for w in &scaled {
            let Some(store) = store else {
                sources.push(Box::new(TraceGen::new(w.clone(), cfg.seed, 0)));
                continue;
            };
            let fp = dtr::episode_fingerprint(w, cfg.seed, cfg.scale, cfg.inst_budget);
            store
                .get_or_materialize(&fp, |out| {
                    dtr::record_episode(w, cfg.seed, cfg.inst_budget, out).map(|_| ())
                })
                .map_err(|e| format!("job {}: cannot materialize {} trace: {e}", job.id, w.name))?;
            let reader = store
                .open_stream(&fp)
                .map_err(|e| format!("job {}: cannot open {} trace: {e}", job.id, w.name))?;
            statuses.push((w.name.clone(), reader.status()));
            sources.push(Box::new(reader));
        }
        let out = System::new(cfg, design, &scaled, sources, profile.as_deref()).run();
        for (name, status) in &statuses {
            if let Some(e) = status.error() {
                return Err(format!(
                    "job {}: trace stream for {name} failed mid-run: {e}",
                    job.id
                ));
            }
        }
        out
    };
    let m = res.map_err(|e| {
        format!(
            "simulation failed: {} over {} (job {}): {e}",
            design.label(),
            job.workload,
            job.id
        )
    })?;
    if let Some(rel) = &job.ov.trace_path {
        let tel = tel
            .as_ref()
            .ok_or_else(|| format!("job {}: trace_path needs telemetry_epoch", job.id))?;
        let doc = tel.chrome_trace_json();
        json::validate(&doc).map_err(|e| format!("job {}: trace does not parse: {e}", job.id))?;
        let path = out_dir.join(rel);
        std::fs::write(&path, doc).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    }
    Ok(run_report(&m, tel.as_ref()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{JobSpec, Overrides};

    fn quick(id: &str, design: &str) -> JobSpec {
        JobSpec {
            id: id.into(),
            design: design.into(),
            workload: "libquantum".into(),
            insts: 200_000,
            scale: 64,
            seed: 42,
            ov: Overrides::default(),
        }
    }

    fn store_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "das-harness-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn execute_produces_a_valid_report() {
        let profiles = ProfileCache::new();
        let report = execute(&quick("t/std", "std"), &profiles, Path::new("."), None).unwrap();
        assert_eq!(
            report.get("design").and_then(Value::as_str),
            Some("Std-DRAM")
        );
        assert!(report.get_path("metrics/ipc_sum").is_some());
        json::validate(&report.render()).unwrap();
        assert!(profiles.is_empty(), "standard DRAM needs no profile");
    }

    #[test]
    fn report_matches_direct_run_exactly() {
        let job = quick("t/das", "das");
        let profiles = ProfileCache::new();
        let via_harness = execute(&job, &profiles, Path::new("."), None).unwrap();
        let (cfg, design, wl) = job.materialize().unwrap();
        let direct = das_sim::experiments::run_one(&cfg, design, &wl).unwrap();
        assert_eq!(via_harness.render(), run_report(&direct, None).render());
    }

    #[test]
    fn store_served_run_is_bit_identical_to_generator_backed() {
        // The determinism contract of the whole subsystem: a cold run
        // (materializes the trace), a warm run (replays it), and a plain
        // generator-backed run must render byte-identical reports.
        let dir = store_dir("identical");
        let store = TraceStore::open(&dir).unwrap();
        let job = quick("t/das-store", "das");
        let profiles = ProfileCache::new();
        let cold = execute(&job, &profiles, Path::new("."), Some(&store)).unwrap();
        let warm = execute(&job, &profiles, Path::new("."), Some(&store)).unwrap();
        let direct = execute(&job, &profiles, Path::new("."), None).unwrap();
        assert_eq!(cold.render(), direct.render(), "cold store run differs");
        assert_eq!(warm.render(), direct.render(), "warm store run differs");
        let s = store.stats();
        assert_eq!((s.misses, s.hits), (1, 1));
        assert!(s.bytes_written > 0);
        assert_eq!(s.bytes_read, 2 * s.bytes_written, "two replays of one file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_serves_static_designs_with_shared_profile() {
        // A profiled design exercises both caches at once: the profile
        // memo (generator-based pre-pass) and the trace store (main run).
        let dir = store_dir("sas");
        let store = TraceStore::open(&dir).unwrap();
        let job = quick("t/sas-store", "sas");
        let profiles = ProfileCache::new();
        let stored = execute(&job, &profiles, Path::new("."), Some(&store)).unwrap();
        let direct = execute(&job, &profiles, Path::new("."), None).unwrap();
        assert_eq!(stored.render(), direct.render());
        assert_eq!(profiles.len(), 1, "profile computed once, shared");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_store_entry_fails_the_job_loudly() {
        let dir = store_dir("corrupt");
        let store = TraceStore::open(&dir).unwrap();
        let job = quick("t/corrupt", "std");
        let profiles = ProfileCache::new();
        execute(&job, &profiles, Path::new("."), Some(&store)).unwrap();
        // Truncate the materialized trace: the replay must not silently
        // simulate a shorter episode.
        let entry = std::fs::read_dir(&dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let bytes = std::fs::read(&entry).unwrap();
        std::fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();
        let err = execute(&job, &profiles, Path::new("."), Some(&store)).unwrap_err();
        assert!(err.contains("t/corrupt"), "error names the job: {err}");
        assert!(
            err.contains("mid-run") || err.contains("truncated"),
            "error names the cause: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn coherent_job_runs_and_ignores_the_store() {
        let dir = store_dir("coherent");
        let store = TraceStore::open(&dir).unwrap();
        let mut job = quick("t/coh", "das");
        job.workload = "shared:lock".into();
        job.ov.cores = Some(2);
        let profiles = ProfileCache::new();
        let stored = execute(&job, &profiles, Path::new("."), Some(&store)).unwrap();
        let direct = execute(&job, &profiles, Path::new("."), None).unwrap();
        assert_eq!(stored.render(), direct.render());
        let s = store.stats();
        assert_eq!((s.hits, s.misses), (0, 0), "coherent runs bypass the store");
        assert_eq!(
            stored
                .get_path("metrics/coherence/protocol")
                .and_then(Value::as_str),
            Some("MESI")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn event_budget_override_fails_loudly() {
        let mut job = quick("t/budget", "std");
        job.ov.event_budget = Some(1_000);
        let err = execute(&job, &ProfileCache::new(), Path::new("."), None).unwrap_err();
        assert!(err.contains("t/budget"), "error names the job: {err}");
    }
}
