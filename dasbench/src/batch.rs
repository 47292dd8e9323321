//! The three batch workloads: one job at a time on one thread, each
//! through `das_harness::runner::execute` (the harness layer's public
//! call), with the trace store warmed during set-up.
//!
//! The loop is closed — the next job is due the moment the previous
//! result returns — so the `serve_*` latency metrics of a batch workload
//! are plain job wall times, and `serve_max_jps` is the completion rate
//! the single runner sustains (jobs ÷ pass time, a fixed multiple of
//! `minsts_per_s`).

use std::time::{Duration, Instant};

use das_harness::profile::ProfileCache;
use das_harness::report::ReportView;
use das_harness::runner;
use das_telemetry::json;
use das_trace::TraceStore;

use crate::common::{self, direct_report, fresh_dir, report_insts, sim_summary, warm_store};
use crate::jobs::JobList;
use crate::layers;
use crate::stats;
use crate::{Checks, Ctx, RunResult};

/// Set-up is repeated at least this often per run; `setup_s` is the
/// median of the repetitions.
pub const MIN_SETUPS: usize = 3;
/// ...and until the repetitions add up to this many seconds, so that a
/// set-up of milliseconds is still measured over many repetitions.
pub const MIN_SETUP_TOTAL_S: f64 = 0.5;

/// The timed phase makes at least this many whole passes over the job
/// list, so that every job's cost is the fastest of at least two
/// repetitions however slow the host is.
pub const MIN_PASSES: usize = 2;

/// Whether another set-up repetition is due, given those made so far (s).
pub fn more_setups(done: &[f64]) -> bool {
    done.len() < MIN_SETUPS || done.iter().sum::<f64>() < MIN_SETUP_TOTAL_S
}

/// One execution of one job in the timed phase.
struct JobRun {
    job: usize,
    wall: Duration,
    /// Reference-speed factor: the mean of the samples taken just before
    /// and just after the job.
    speed: f64,
    report: Result<String, String>,
}

/// The host-time end-to-end metrics of a batch run, from its set-up
/// repetitions and each job's cost (s).
pub fn host_metrics(setup_s: &[f64], job_s: &[f64], insts: u64) -> [(&'static str, f64); 5] {
    let job_ms: Vec<f64> = job_s.iter().map(|s| s * 1e3).collect();
    let pass_s: f64 = job_s.iter().sum();
    [
        ("setup_s", stats::median(setup_s).unwrap_or(0.0)),
        ("minsts_per_s", insts as f64 / pass_s / 1e6),
        ("serve_p50_ms", stats::median(&job_ms).unwrap_or(0.0)),
        (
            "serve_p90_ms",
            stats::percentile(&job_ms, 90.0).unwrap_or(0.0),
        ),
        ("serve_max_jps", job_s.len() as f64 / pass_s),
    ]
}

/// Renders metrics as one `name value` list.
pub fn metric_list(metrics: &[(&'static str, f64)]) -> String {
    metrics
        .iter()
        .map(|(k, v)| format!("{k} {v:.6}"))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Runs one batch workload.
///
/// # Errors
///
/// Set-up failures (the run cannot start); everything after set-up is
/// counted in the result instead.
pub fn run(ctx: &mut Ctx, build: fn(u64) -> JobList) -> Result<RunResult, String> {
    let root = ctx.tracer.open("workload", None, "");
    // Every set-up repetition and every timed job is bracketed by speed
    // samples (`common::Calibrator`) and scaled by their mean.
    let (mut setup_raw, mut setup_s) = (Vec::new(), Vec::new());
    let mut speed = ctx.cal.sample();
    let mut last: Option<(JobList, TraceStore, std::path::PathBuf)> = None;
    let mut k = 0;
    while more_setups(&setup_raw) {
        let t0 = Instant::now();
        let jobs = build(ctx.seed);
        let dir = ctx.work.join(format!("setup{k}"));
        fresh_dir(&dir)?;
        let store = TraceStore::open(&dir.join("store"))
            .map_err(|e| format!("cannot open trace store: {e}"))?;
        warm_store(&store, &jobs)?;
        let wall = t0.elapsed().as_secs_f64();
        let after = ctx.cal.sample();
        setup_raw.push(wall);
        setup_s.push(wall * (speed + after) / 2.0);
        speed = after;
        if let Some((_, _, old)) = last.replace((jobs, store, dir)) {
            let _ = std::fs::remove_dir_all(old);
        }
        k += 1;
    }
    let (jobs, store, dir) = last.expect("at least one set-up");
    let before = store.stats();

    // Timed phase: `MIN_PASSES` whole passes over the job list, then
    // further jobs in the same (seeded) order until `seconds` have elapsed.
    // Each pass gets a fresh profile memo, as a fresh `harness` invocation
    // would.
    let t_start = Instant::now();
    let mut runs: Vec<JobRun> = Vec::new();
    let mut passes = 0;
    'timed: loop {
        let profiles = ProfileCache::new();
        for &i in &jobs.order {
            let j = &jobs.jobs[i];
            let t0 = Instant::now();
            let res = runner::execute(&j.spec, &profiles, &dir, Some(&store));
            let t1 = Instant::now();
            let after = ctx.cal.sample();
            ctx.tracer
                .record("harness.execute", t0, t1, root, &j.spec.id);
            runs.push(JobRun {
                job: i,
                wall: t1 - t0,
                speed: (speed + after) / 2.0,
                report: res.map(|v| v.render()),
            });
            speed = after;
            if passes >= MIN_PASSES && t_start.elapsed().as_secs_f64() >= ctx.seconds {
                break 'timed;
            }
        }
        passes += 1;
        if passes >= MIN_PASSES && t_start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    let timed = t_start.elapsed();
    let after = store.stats();

    // Output checks.
    let mut checks = Checks::default();
    let mut first: Vec<Option<String>> = vec![None; jobs.jobs.len()];
    for r in &runs {
        let id = &jobs.jobs[r.job].spec.id;
        match &r.report {
            Err(e) => checks.fail(format!("{id}: {e}")),
            Ok(text) => {
                let valid = json::validate(text).is_ok();
                checks.check(valid, || format!("{id}: report is not valid JSON"));
                match &first[r.job] {
                    None => first[r.job] = Some(text.clone()),
                    Some(f) => checks.check(f == text, || {
                        format!("{id}: a repeated run rendered a different report")
                    }),
                }
            }
        }
    }
    let reports: Vec<String> = match first.into_iter().collect::<Option<Vec<_>>>() {
        Some(r) => r,
        None => return Ok(checks.into_failed_result("a job produced no report")),
    };
    let pinned = jobs
        .jobs
        .iter()
        .position(|j| j.spec.id == jobs.pinned)
        .expect("pinned job is in the list");
    match direct_report(&jobs.jobs[pinned].spec) {
        Ok((text, _)) => checks.check(text == reports[pinned], || {
            format!(
                "{}: direct run differs from the harness report",
                jobs.pinned
            )
        }),
        Err(e) => checks.fail(e),
    }
    let sim = match sim_summary(&jobs, &reports) {
        Ok(s) => s,
        Err(e) => return Ok(checks.into_failed_result(&e)),
    };
    workload_checks(&jobs, &reports, &sim, &mut checks);

    // End-to-end metrics. Host contention on a shared machine only ever
    // adds time and comes in bursts of seconds, so each job's cost is the
    // fastest of its repetitions (spread over the timed phase by the pass
    // structure), each repetition scaled to reference speed by the speed
    // samples around it; the closed-loop latency metrics are the
    // distribution of those costs over the job list.
    let n = jobs.jobs.len();
    let (mut raw_wall, mut job_wall) = (vec![f64::INFINITY; n], vec![f64::INFINITY; n]);
    for r in &runs {
        let w = r.wall.as_secs_f64();
        raw_wall[r.job] = raw_wall[r.job].min(w);
        job_wall[r.job] = job_wall[r.job].min(w * r.speed);
    }
    let insts: u64 = reports
        .iter()
        .map(|r| json::parse(r).map(|v| report_insts(&v)).unwrap_or(0))
        .sum();
    let mut out = RunResult::new(checks);
    for (k, v) in host_metrics(&setup_s, &job_wall, insts) {
        out.e2e(k, v);
    }
    out.e2e("paper_gap_pp", sim.paper_gap_pp);
    out.e2e("ipc_gain_pct", sim.ipc_gain_pct);
    out.note(format!(
        "timed {} job runs ({:.2} passes) in {:.3} s; {} set-ups; median speed {:.4}",
        runs.len(),
        runs.len() as f64 / n as f64,
        timed.as_secs_f64(),
        setup_s.len(),
        ctx.cal.speed()
    ));
    out.note(format!(
        "unscaled: {}",
        metric_list(&host_metrics(&setup_raw, &raw_wall, insts))
    ));
    out.note(format!("digest {:016x}", sim.digest));
    for (k, g) in &sim.by_design {
        out.note(format!("gmean gain {k}: {g:+.4} %"));
    }

    if ctx.tracer.enabled() {
        let lookups = after.hits + after.misses - before.hits - before.misses;
        let store_hit_ratio = if lookups == 0 {
            0.0
        } else {
            (after.hits - before.hits) as f64 / lookups as f64
        };
        let input = layers::LayerInput {
            jobs: &jobs,
            reports: &reports,
            // Measured (unscaled) times: the replays are measured too.
            job_wall_ns: raw_wall.iter().map(|s| s * 1e9).collect(),
            store: Some(&store),
            store_hit_ratio,
            harness_overhead_ns: layers::harness_overhead_ns(
                ctx,
                &[&jobs.jobs[pinned].spec],
                root,
            )?,
            pinned,
        };
        layers::replay(ctx, &input, root, &mut out)?;
    }
    ctx.tracer.close(root);
    out.e2e("peak_rss_mb", common::peak_rss_mb(&ctx.cal));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

/// The workload-specific output checks: the Fig. 7a design ordering and
/// the policy controllers' divergence under churn.
fn workload_checks(
    jobs: &JobList,
    reports: &[String],
    sim: &common::SimSummary,
    checks: &mut Checks,
) {
    if jobs.pinned.starts_with("fig7a/") {
        let g = |k: &str| sim.by_design.get(k).copied().unwrap_or(f64::NAN);
        let ordered = g("sas") < g("charm")
            && g("charm") < g("das")
            && g("das") <= g("das_fm")
            && g("das_fm") <= g("fs");
        checks.check(ordered, || {
            format!(
                "gmean order SAS < CHARM < DAS <= DAS-FM <= FS violated: {:?}",
                sim.by_design
            )
        });
    }
    if jobs.pinned.starts_with("policy_churn/") {
        let window = |id: &str| -> Option<u64> {
            let i = jobs.jobs.iter().position(|j| j.spec.id == id)?;
            let v = json::parse(&reports[i]).ok()?;
            Some(ReportView(&v).u64("metrics/window_cycles"))
        };
        let (a, b) = (
            window("policy_churn/mcf/das_paper_fixed"),
            window("policy_churn/mcf/das_feedback"),
        );
        checks.check(a.is_some() && a != b, || {
            format!("mcf: feedback and paper_fixed report the same window_cycles ({a:?})")
        });
    }
}
