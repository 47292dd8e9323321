//! serve_open_loop: `das-serve` on loopback, fed an open-loop Poisson
//! schedule of single-benchmark jobs at fixed rates.
//!
//! The server runs in this process on its own threads with one
//! simulation worker and a warm trace store. One client holds two
//! connections for the whole run: the load generator submits each job on
//! the first when it falls due, whatever the server is doing, and a second
//! thread streams every job's result frame back on the other (a `stream`
//! request occupies its connection until the job ends).
//! Latency runs from the due time to the result frame (see `openloop`).
//! The run is a series of segments — [`ROUNDS`] rounds over the rate
//! ladder — each a seeded Poisson schedule of the 20 distinct jobs in a
//! seeded order; a segment's results are all in before the next starts.

use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use das_harness::profile::ProfileCache;
use das_harness::runner;
use das_serve::client::{into_ok, Client};
use das_serve::proto;
use das_serve::server::{Server, ServerConfig};
use das_telemetry::json::{self, Value};
use das_trace::TraceStore;

use crate::common::{self, direct_report, fresh_dir, report_insts, sim_summary, warm_store};
use crate::jobs::{self, JobList};
use crate::layers;
use crate::openloop::{self, Outcome, RateSummary};
use crate::stats::{self, SplitMix64};
use crate::{Checks, Ctx, RunResult};

/// The fixed offered rates, jobs/s, ascending.
pub const RATES: [f64; 3] = [8.0, 16.0, 24.0];
/// Rounds over the rate ladder. Each round serves every distinct job
/// once per rate, so every rate gets `ROUNDS x 20 = 120` jobs — enough
/// that ten lie beyond the reported p90 — spread over the whole run
/// rather than one window of it.
pub const ROUNDS: usize = 6;
/// The rate whose p50/p90 are reported.
pub const REPORTED_RATE: f64 = 16.0;
/// p90 latency limit a rate must meet to count as sustained, ms.
pub const LATENCY_LIMIT_MS: f64 = 250.0;
/// A run whose generator sent its p90 job later than this after its due
/// time did not deliver the schedule, and is counted as failed.
pub const MAX_GEN_LAG_MS: f64 = 25.0;
/// Runs of each distinct job through the harness in the benchmark's own
/// thread, against which the server's per-job overhead is measured.
const LOCAL_RUNS: usize = 3;
/// Server admission capacity (outstanding jobs).
const CAPACITY: usize = 64;

/// One job's result as the streaming connection saw it.
struct Collected {
    started: Option<Instant>,
    result: Instant,
    report: Result<String, String>,
}

/// A running in-process server.
struct Running {
    addr: String,
    thread: JoinHandle<Result<(), String>>,
}

fn start_server(dir: &std::path::Path) -> Result<Running, String> {
    let cfg = ServerConfig {
        threads: 1,
        capacity: CAPACITY,
        out_dir: dir.join("out"),
        trace_store_dir: Some(dir.join("store")),
        read_timeout: Duration::from_secs(120),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg)?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("cannot read server address: {e}"))?
        .to_string();
    let thread = std::thread::spawn(move || server.run());
    Ok(Running { addr, thread })
}

/// Drains the server (every admitted job finishes) and joins its thread.
fn stop_server(s: Running) -> Result<(), String> {
    let mut c = Client::connect(&s.addr)?;
    c.request(&proto::request("drain").set("wait", true))?;
    drop(c);
    s.thread
        .join()
        .map_err(|_| "server thread panicked".to_string())?
}

/// One segment of the plan: a rate, due times (ms from the segment's
/// start) and the distinct job each slot submits.
struct Segment {
    rate: f64,
    due: Vec<f64>,
    order: Vec<usize>,
}

/// The seeded open-loop plan, in execution order.
fn plan(seed: u64, distinct: usize) -> Vec<Segment> {
    let mut rng = SplitMix64::new(seed ^ 0x5345_5256);
    let mut segments = Vec::new();
    for _ in 0..ROUNDS {
        for rate in RATES {
            let due = openloop::poisson_schedule(&mut rng, distinct, rate);
            let mut order: Vec<usize> = (0..distinct).collect();
            rng.shuffle(&mut order);
            segments.push(Segment { rate, due, order });
        }
    }
    segments
}

/// The client's two connections: one submits, one streams results.
struct Connections {
    submit: Client,
    stream: Option<Client>,
}

/// Streams the result of every job id received on `rx`, in order, over
/// `client`.
fn collect(
    client: &mut Client,
    rx: mpsc::Receiver<(usize, String)>,
    slots: usize,
) -> Vec<Option<Collected>> {
    let mut out: Vec<Option<Collected>> = (0..slots).map(|_| None).collect();
    for (slot, id) in rx {
        let req = proto::request("stream").set("jobs", Value::Arr(vec![Value::Str(id)]));
        if client.send(&req).is_err() {
            break;
        }
        let mut started = None;
        loop {
            let frame = match client.next_frame() {
                Ok(f) => f,
                Err(_) => return out,
            };
            let now = Instant::now();
            let frame = match into_ok(frame) {
                Ok(f) => f,
                Err(e) => {
                    out[slot] = Some(Collected {
                        started,
                        result: now,
                        report: Err(e),
                    });
                    break;
                }
            };
            match frame.get("kind").and_then(Value::as_str) {
                Some("progress") => started = Some(now),
                Some("result") => {
                    let report = match (
                        frame.get("state").and_then(Value::as_str),
                        frame.get("report"),
                    ) {
                        (Some("done"), Some(r)) => Ok(r.render()),
                        (state, _) => Err(format!(
                            "job ended {state:?}: {}",
                            frame
                                .get("error")
                                .and_then(Value::as_str)
                                .unwrap_or("no report")
                        )),
                    };
                    out[slot] = Some(Collected {
                        started,
                        result: now,
                        report,
                    });
                }
                Some("stream_end") => break,
                _ => {}
            }
        }
    }
    out
}

/// One segment's raw outcome; times in ms from the run's origin.
struct SegmentRun {
    rate: f64,
    /// Reference-speed factor sampled around the segment.
    speed: f64,
    due: Vec<f64>,
    order: Vec<usize>,
    sent: Vec<f64>,
    submitted: Vec<Result<(), String>>,
    collected: Vec<Option<Collected>>,
}

fn ms_since(t0: Instant, t: Instant) -> f64 {
    if t >= t0 {
        (t - t0).as_secs_f64() * 1e3
    } else {
        -((t0 - t).as_secs_f64() * 1e3)
    }
}

/// Runs one segment: submits on schedule from this thread while a second
/// thread streams results back, then waits for every result. The
/// schedule is stretched by `stretch` (see [`run`]).
fn run_segment(
    ctx: &mut Ctx,
    conns: &mut Connections,
    jobs: &JobList,
    seg: &Segment,
    stretch: f64,
    origin: Instant,
    parent: Option<usize>,
) -> Result<SegmentRun, String> {
    let mut stream = conns
        .stream
        .take()
        .ok_or("the result connection was lost")?;
    let (tx, rx) = mpsc::channel();
    let n = seg.due.len();
    let collector = std::thread::spawn(move || {
        let out = collect(&mut stream, rx, n);
        (stream, out)
    });
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut sent = Vec::with_capacity(n);
    let mut submitted = Vec::with_capacity(n);
    for (slot, (&d, &j)) in seg.due.iter().zip(&seg.order).enumerate() {
        let at = t0 + Duration::from_secs_f64(d * stretch / 1e3);
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        let s = Instant::now();
        sent.push(ms_since(origin, s));
        let spec = &jobs.jobs[j].spec;
        let req = proto::request("submit_job").set("job", spec.to_value());
        let resp = conns.submit.request(&req);
        ctx.tracer
            .record("serve.submit", s, Instant::now(), parent, &spec.id);
        match resp {
            Ok(v) => match v.get("job").and_then(Value::as_str) {
                Some(id) => {
                    let _ = tx.send((slot, id.to_string()));
                    submitted.push(Ok(()));
                }
                None => submitted.push(Err("submit reply without a job id".to_string())),
            },
            Err(e) => submitted.push(Err(e)),
        }
    }
    drop(tx);
    let (stream, collected) = collector
        .join()
        .map_err(|_| "result collector panicked".to_string())?;
    conns.stream = Some(stream);
    let base = ms_since(origin, t0);
    Ok(SegmentRun {
        rate: seg.rate,
        speed: 1.0,
        due: seg.due.iter().map(|d| base + d * stretch).collect(),
        order: seg.order.clone(),
        sent,
        submitted,
        collected,
    })
}

/// Runs the served workload.
///
/// # Errors
///
/// Set-up failures (no server could be started).
pub fn run(ctx: &mut Ctx) -> Result<RunResult, String> {
    let root = ctx.tracer.open("workload", None, "");
    // Set-up repetitions and segments are bracketed by speed samples
    // (`common::Calibrator`) and scaled by their mean.
    let (mut setup_raw, mut setup_s) = (Vec::new(), Vec::new());
    let mut speed = ctx.cal.sample();
    let mut last: Option<(JobList, Vec<Segment>, Running, std::path::PathBuf)> = None;
    let mut k = 0;
    while crate::batch::more_setups(&setup_raw) {
        let t0 = Instant::now();
        let jobs = jobs::serve_distinct();
        let plan = plan(ctx.seed, jobs.jobs.len());
        let dir = ctx.work.join(format!("setup{k}"));
        fresh_dir(&dir)?;
        {
            let store = TraceStore::open(&dir.join("store"))
                .map_err(|e| format!("cannot open trace store: {e}"))?;
            warm_store(&store, &jobs)?;
        }
        let server = start_server(&dir)?;
        Client::connect(&server.addr)?.request(&proto::request("ping"))?;
        let wall = t0.elapsed().as_secs_f64();
        let after = ctx.cal.sample();
        setup_raw.push(wall);
        setup_s.push(wall * (speed + after) / 2.0);
        speed = after;
        if let Some((_, _, old, old_dir)) = last.replace((jobs, plan, server, dir)) {
            stop_server(old)?;
            let _ = std::fs::remove_dir_all(old_dir);
        }
        k += 1;
    }
    let (jobs, plan, server, dir) = last.expect("at least one set-up");
    let mut conns = Connections {
        submit: Client::connect(&server.addr)?,
        stream: Some(Client::connect(&server.addr)?),
    };

    let t_start = Instant::now();
    let mut runs = Vec::new();
    // The rates are offered at reference speed: a segment's schedule is
    // stretched by the sample taken just before it, so a host running at
    // half speed sees half the rate, and the same load relative to its
    // speed. Its latencies are then scaled back like every host time.
    for seg in &plan {
        let span = ctx.tracer.open("serve.segment", root, "");
        let mut run = run_segment(ctx, &mut conns, &jobs, seg, 1.0 / speed, t_start, span)?;
        ctx.tracer.close(span);
        let after = ctx.cal.sample();
        run.speed = (speed + after) / 2.0;
        speed = after;
        runs.push(run);
    }
    let timed = t_start.elapsed();
    drop(conns);
    let mut checks = Checks::default();
    let store_hit_ratio = Client::connect(&server.addr)
        .and_then(|mut c| c.request(&proto::request("stats")))
        .map(|v| {
            let n = |k: &str| v.get_path(k).and_then(Value::as_u64).unwrap_or(0);
            let (hits, misses) = (n("trace_store/hits"), n("trace_store/misses"));
            hits as f64 / (hits + misses).max(1) as f64
        })
        .unwrap_or(0.0);
    let drained = stop_server(server);
    checks.check(drained.is_ok(), || {
        format!("server did not drain cleanly: {drained:?}")
    });

    // Reference reports: every distinct job run directly. The same job
    // through the harness on the same warm store, in this thread, is what
    // the server's per-job overhead is measured against.
    let store = TraceStore::open(&dir.join("store"))
        .map_err(|e| format!("cannot reopen trace store: {e}"))?;
    let mut refs = Vec::new();
    let mut local_ns = Vec::new();
    for j in &jobs.jobs {
        let text = match direct_report(&j.spec) {
            Ok((text, _)) => text,
            Err(e) => return Ok(checks.into_failed_result(&e)),
        };
        checks.check(json::validate(&text).is_ok(), || {
            format!("{}: direct report is not valid JSON", j.spec.id)
        });
        // Its fastest of a few runs, like the server's fastest serving.
        let mut fastest = f64::INFINITY;
        for _ in 0..LOCAL_RUNS {
            let t0 = Instant::now();
            let local = runner::execute(&j.spec, &ProfileCache::new(), &dir, Some(&store));
            fastest = fastest.min(t0.elapsed().as_secs_f64() * 1e9);
            checks.check(local.is_ok_and(|v| v.render() == text), || {
                format!("{}: harness report differs from the direct run", j.spec.id)
            });
        }
        local_ns.push(fastest);
        refs.push(text);
    }

    // Outcomes: a served report must match the direct run byte for byte.
    let mut by_rate: Vec<Vec<(Vec<f64>, Vec<Outcome>)>> = vec![Vec::new(); RATES.len()];
    // Host times are reported at reference speed (`common::Calibrator`),
    // each segment's by the samples taken around it.
    let mut scaled: Vec<Vec<f64>> = vec![Vec::new(); RATES.len()];
    let mut unscaled: Vec<Vec<f64>> = vec![Vec::new(); RATES.len()];
    let (mut queue_ms, mut overhead_ms) = (Vec::new(), Vec::new());
    let mut exec_ns: Vec<Vec<f64>> = vec![Vec::new(); jobs.jobs.len()];
    let mut exec_scaled_ns: Vec<Vec<f64>> = vec![Vec::new(); jobs.jobs.len()];
    for r in &runs {
        let mut outcomes = Vec::with_capacity(r.due.len());
        for slot in 0..r.due.len() {
            let job = r.order[slot];
            let id = &jobs.jobs[job].spec.id;
            let sent = r.sent[slot];
            let outcome = match (&r.submitted[slot], &r.collected[slot]) {
                (Err(e), _) if e.starts_with(proto::code::BUSY) => {
                    checks.fail(format!("{id} at {} jobs/s refused: {e}", r.rate));
                    Outcome::Refused { sent }
                }
                (Err(e), _) => {
                    checks.fail(format!("{id} at {} jobs/s not admitted: {e}", r.rate));
                    Outcome::Failed { sent }
                }
                (Ok(()), None) => {
                    checks.fail(format!("{id} at {} jobs/s: no result frame", r.rate));
                    Outcome::Failed { sent }
                }
                (Ok(()), Some(c)) => {
                    let ok = c.report.as_ref().is_ok_and(|t| *t == refs[job]);
                    checks.check(ok, || {
                        format!(
                            "{id} at {} jobs/s: served report differs from direct run ({:?})",
                            r.rate,
                            c.report.as_ref().err()
                        )
                    });
                    if let (true, Some(st)) = (ok, c.started) {
                        let raw_ms = (c.result - st).as_secs_f64() * 1e3;
                        exec_ns[job].push(raw_ms * 1e6);
                        exec_scaled_ns[job].push(raw_ms * 1e6 * r.speed);
                        queue_ms.push(ms_since(t_start, st) - sent);
                    }
                    let result = ms_since(t_start, c.result);
                    if ok {
                        overhead_ms.push(result - sent - local_ns[job] / 1e6);
                        Outcome::Done { sent, result }
                    } else {
                        Outcome::Failed { sent }
                    }
                }
            };
            outcomes.push(outcome);
        }
        let i = RATES
            .iter()
            .position(|&x| x == r.rate)
            .expect("rate on the ladder");
        unscaled[i].extend(openloop::latencies(&r.due, &outcomes));
        scaled[i].extend(
            openloop::latencies(&r.due, &outcomes)
                .into_iter()
                .map(|l| l * r.speed),
        );
        by_rate[i].push((r.due.clone(), outcomes));
    }
    let summaries: Vec<(f64, RateSummary)> = RATES
        .iter()
        .zip(&by_rate)
        .map(|(&rate, segs)| (rate, openloop::summarize_segments(segs)))
        .collect();
    let lags: Vec<f64> = summaries
        .iter()
        .flat_map(|(_, s)| s.lag_ms.iter().copied())
        .collect();
    // Server-side cost of each distinct job: its fastest start-to-result
    // time over every time it was served.
    let exec_min: Vec<f64> = exec_ns
        .iter()
        .map(|e| e.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let insts: u64 = refs
        .iter()
        .map(|r| json::parse(r).map(|v| report_insts(&v)).unwrap_or(0))
        .sum();
    // Each distinct job is served 18 times: its typical (median) cost.
    let busy_s = |ns: &[Vec<f64>]| -> f64 {
        ns.iter()
            .map(|e| stats::median(e).unwrap_or(f64::INFINITY))
            .sum::<f64>()
            / 1e9
    };
    let minsts_per_s = |busy_s: f64| {
        if busy_s.is_finite() && busy_s > 0.0 {
            insts as f64 / busy_s / 1e6
        } else {
            0.0
        }
    };
    let gen_lag = stats::percentile(&lags, 90.0).unwrap_or(0.0);
    checks.check(gen_lag <= MAX_GEN_LAG_MS, || {
        format!("generator fell behind its schedule: p90 lag {gen_lag:.3} ms")
    });
    let sim = match sim_summary(&jobs, &refs) {
        Ok(s) => s,
        Err(e) => return Ok(checks.into_failed_result(&e)),
    };
    let ri = RATES
        .iter()
        .position(|&r| r == REPORTED_RATE)
        .expect("reported rate is on the ladder");
    let reported = &summaries[ri].1;
    checks.check(
        stats::tail_percentile(reported.jobs).is_some_and(|p| p >= 90.0),
        || format!("{} samples cannot support a p90", reported.jobs),
    );

    let mut out = RunResult::new(checks);
    out.e2e("setup_s", stats::median(&setup_s).expect("set-up ran"));
    out.e2e("minsts_per_s", minsts_per_s(busy_s(&exec_scaled_ns)));
    out.e2e("paper_gap_pp", sim.paper_gap_pp);
    out.e2e("ipc_gain_pct", sim.ipc_gain_pct);
    out.e2e(
        "serve_p50_ms",
        stats::percentile(&scaled[ri], 50.0).unwrap_or(0.0),
    );
    out.e2e(
        "serve_p90_ms",
        stats::percentile(&scaled[ri], 90.0).unwrap_or(0.0),
    );
    out.e2e(
        "serve_max_jps",
        openloop::max_sustained_rate(&summaries, LATENCY_LIMIT_MS),
    );
    out.note(format!(
        "served {} jobs in {} segments in {:.3} s; {} set-ups; median speed {:.4}",
        runs.iter().map(|r| r.due.len()).sum::<usize>(),
        runs.len(),
        timed.as_secs_f64(),
        setup_s.len(),
        ctx.cal.speed()
    ));
    out.note(format!(
        "unscaled: {}",
        crate::batch::metric_list(&[
            ("setup_s", stats::median(&setup_raw).unwrap_or(0.0)),
            ("minsts_per_s", minsts_per_s(busy_s(&exec_ns))),
            (
                "serve_p50_ms",
                stats::percentile(&unscaled[ri], 50.0).unwrap_or(0.0)
            ),
            (
                "serve_p90_ms",
                stats::percentile(&unscaled[ri], 90.0).unwrap_or(0.0)
            ),
        ])
    ));
    for (rate, s) in &summaries {
        out.note(format!(
            "rate {rate:>4} jobs/s: p50 {:.3} ms  p90 {:.3} ms  refused {}  failed {}  backlog growing {}",
            s.p50_ms, s.p90_ms, s.refused, s.failed, s.backlog_growing
        ));
    }
    let mut costs: Vec<(f64, &str)> = exec_min
        .iter()
        .zip(&jobs.jobs)
        .map(|(ns, j)| (ns / 1e6, j.spec.id.as_str()))
        .collect();
    costs.sort_by(|a, b| a.0.total_cmp(&b.0));
    out.note(format!(
        "fastest server-side cost per job (ms): {}",
        costs
            .iter()
            .map(|(ms, id)| format!("{id} {ms:.2}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.note(format!("digest {:016x}", sim.digest));
    for (k, g) in &sim.by_design {
        out.note(format!("gmean gain {k}: {g:+.4} %"));
    }
    out.layer("serve.gen_lag_ms", gen_lag);
    out.layer(
        "serve.queue_ms_p50",
        stats::median(&queue_ms).unwrap_or(0.0),
    );
    out.layer(
        "serve.overhead_ms_p50",
        stats::median(&overhead_ms).unwrap_or(0.0),
    );

    if ctx.tracer.enabled() {
        let specs: Vec<_> = jobs.jobs.iter().map(|j| &j.spec).collect();
        let input = layers::LayerInput {
            jobs: &jobs,
            reports: &refs,
            // What the server spent executing each job (start to result),
            // as measured: the replays are measured too.
            job_wall_ns: exec_min.clone(),
            store: Some(&store),
            store_hit_ratio,
            harness_overhead_ns: layers::harness_overhead_ns(ctx, &specs, root)?,
            pinned: jobs
                .jobs
                .iter()
                .position(|j| j.spec.id == jobs.pinned)
                .expect("pinned job is in the list"),
        };
        layers::replay(ctx, &input, root, &mut out)?;
    }
    ctx.tracer.close(root);
    out.e2e("peak_rss_mb", common::peak_rss_mb(&ctx.cal));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}
