//! `dasbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path dasbench/Cargo.toml -- \
//!     --workload fig7a_warm --seed 42 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload, checks its outputs, prints every metric by name
//! with its unit, and ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of the
//! traced run with `--trace 1`. See `dasbench/README.md`.

mod batch;
mod common;
mod jobs;
mod layers;
mod openloop;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use spans::Tracer;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "fig7a_warm",
    "coherent_shared",
    "policy_churn",
    "serve_open_loop",
];

/// End-to-end metrics and their units (`--trace 0`).
pub const E2E_METRICS: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("minsts_per_s", "Minst/s"),
    ("peak_rss_mb", "MB"),
    ("paper_gap_pp", "pp"),
    ("ipc_gain_pct", "%"),
    ("serve_p50_ms", "ms"),
    ("serve_p90_ms", "ms"),
    ("serve_max_jps", "jobs/s"),
];

/// Per-layer metrics and their units (`--trace 1`). A layer that does no
/// work on a workload reports 0.
pub const LAYER_METRICS: [(&str, &str); 33] = [
    ("workloads.gen_ns_per_item", "ns"),
    ("trace.decode_ns_per_record", "ns"),
    ("trace.bytes_per_record", "B"),
    ("trace.store_hit_ratio", "ratio"),
    ("cpu.ipc_sum", "ipc"),
    ("cache.access_ns", "ns"),
    ("cache.l1_hit_ratio", "ratio"),
    ("cache.llc_mpki", "1/kinst"),
    ("coherence.access_ns", "ns"),
    ("coherence.l1_miss_ratio", "ratio"),
    ("coherence.bus_tx_per_kinst", "1/kinst"),
    ("coherence.invalidations_per_kinst", "1/kinst"),
    ("core.access_ns", "ns"),
    ("core.tcache_hit_ratio", "ratio"),
    ("core.promotions_per_kinst", "1/kinst"),
    ("core.aborted_promotion_ratio", "ratio"),
    ("policy.observe_ns", "ns"),
    ("policy.promote_ratio", "ratio"),
    ("memctrl.request_ns", "ns"),
    ("memctrl.row_hit_ratio", "ratio"),
    ("memctrl.read_latency_ns_p50", "ns"),
    ("memctrl.read_latency_ns_p99", "ns"),
    ("dram.fast_act_ratio", "ratio"),
    ("dram.swaps_per_kinst", "1/kinst"),
    ("sim.run_ms", "ms"),
    ("sim.host_ns_per_mem_access", "ns"),
    ("sim.unattributed_frac", "ratio"),
    ("harness.overhead_ms_per_job", "ms"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.gen_lag_ms", "ms"),
    ("trace_overhead_frac", "ratio"),
    ("bench.failed_frac", "ratio"),
];

/// The default seed: the catalog's.
pub const DEFAULT_SEED: u64 = 42;

const USAGE: &str =
    "usage: dasbench --workload <fig7a_warm|coherent_shared|policy_churn|serve_open_loop> \
                     [--seed N (default 42)] [--seconds N (default 10)] [--trace 0|1]";

/// What one run needs from the command line, plus its scratch space and
/// span recorder.
pub struct Ctx {
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Scratch directory of this run (removed at exit).
    pub work: PathBuf,
    /// Span recorder (enabled for the traced run).
    pub tracer: Tracer,
    /// Host-speed calibration (see `common::Calibrator`).
    pub cal: common::Calibrator,
}

/// Output checks: every operation attempted, and the ones that failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted (jobs run, reports compared, orderings checked).
    pub attempted: u64,
    /// Operations failed, refused, or with a wrong output.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one operation; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, what: String) {
        self.check(false, || what);
    }

    /// A result carrying only these checks plus one more failure `why`.
    pub fn into_failed_result(mut self, why: &str) -> RunResult {
        self.fail(why.to_string());
        RunResult::new(self)
    }
}

/// Everything a run reports.
#[derive(Debug)]
pub struct RunResult {
    /// Output checks.
    pub checks: Checks,
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl RunResult {
    /// An empty result around `checks`.
    pub fn new(checks: Checks) -> RunResult {
        RunResult {
            checks,
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Sets an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        debug_assert!(E2E_METRICS.iter().any(|(n, _)| *n == name), "{name}");
        self.e2e.insert(name, value);
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(LAYER_METRICS.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name, value);
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<RunResult, String> {
    let work =
        PathBuf::from(".dasbench_work").join(format!("{}-{}", args.workload, std::process::id()));
    common::fresh_dir(&work)?;
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        work: work.clone(),
        tracer: Tracer::new(args.trace),
        cal: common::Calibrator::new(),
    };
    let res = match args.workload.as_str() {
        "fig7a_warm" => batch::run(&mut ctx, jobs::fig7a),
        "coherent_shared" => batch::run(&mut ctx, jobs::coherent),
        "policy_churn" => batch::run(&mut ctx, jobs::policy_churn),
        "serve_open_loop" => serve::run(&mut ctx),
        other => Err(format!("unknown workload {other:?}")),
    };
    if ctx.tracer.enabled() {
        let path = PathBuf::from(".dasbench_out")
            .join(format!("spans-{}-s{}.json", args.workload, args.seed));
        ctx.tracer.write(&path)?;
    }
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".dasbench_work");
    res
}

/// Renders a metric value with every digit it has (shortest round-trip
/// form); non-finite values, which JSON cannot carry, become -1.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1.0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut res = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let c = &res.checks;
    let failed_frac = c.failed as f64 / c.attempted.max(1) as f64;
    res.layers.insert("bench.failed_frac", failed_frac);
    println!(
        "# dasbench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for line in &res.notes {
        println!("{line}");
    }
    for f in &c.failures {
        println!("FAILED: {f}");
    }
    let (table, values): (&[(&str, &str)], &BTreeMap<&str, f64>) = if args.trace {
        (&LAYER_METRICS, &res.layers)
    } else {
        (&E2E_METRICS, &res.e2e)
    };
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let v = values.get(name).copied().unwrap_or(0.0);
        println!("{name:<36} {v:>16.6} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(v)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        c.failed == 0,
        c.attempted.max(1),
        c.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn arguments_parse_with_defaults_and_reject_garbage() {
        let a = args("--workload policy_churn").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, false));
        let a = args("--workload serve_open_loop --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload fig7a_warm --trace 2").is_err());
        assert!(args("--workload fig7a_warm --seconds 0").is_err());
        assert!(args("--workload fig7a_warm --bogus").is_err());
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = E2E_METRICS
            .iter()
            .chain(LAYER_METRICS.iter())
            .map(|(n, _)| *n)
            .collect();
        for n in &names {
            assert!(n.len() <= 64);
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len);
        assert_eq!(num(f64::INFINITY), "-1.0");
        assert_eq!(num(0.1), "0.1");
    }
}
