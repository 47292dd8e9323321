//! Server-side job state: the registry every connection handler reads
//! and every worker takes its jobs from, plus the request/admission
//! metrics the `stats` request reports.
//!
//! The registry is plain data behind one mutex (the server pairs it with
//! a condvar for state-change waits); all transition logic lives here so
//! it can be unit-tested without sockets. Lifecycle:
//! `Queued → Running → Done|Failed`, or `Queued → Cancelled` (a running
//! simulation is never interrupted — cancellation only prevents a start).
//! The registry is also the server's only work queue: workers take the
//! oldest still-queued job in admission order.

use std::collections::{BTreeMap, HashMap, VecDeque};

use das_harness::manifest::JobSpec;
use das_telemetry::hist::LatencyHistogram;
use das_telemetry::json::Value;

/// A job's lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished with a report.
    Done,
    /// Finished with an error (including a contained panic).
    Failed,
    /// Cancelled while still queued.
    Cancelled,
}

impl JobState {
    /// The wire/journal spelling of the state.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the job can never change state again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// Everything the server remembers about one admitted job.
#[derive(Debug)]
pub struct JobEntry {
    /// The spec the job was admitted with.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// The run report (`Done` only).
    pub report: Option<Value>,
    /// The failure message (`Failed` only).
    pub error: Option<String>,
}

/// Per-state job counts (the `stats` response's queue-depth block).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Jobs waiting for a worker.
    pub queued: u64,
    /// Jobs executing.
    pub running: u64,
    /// Jobs finished successfully.
    pub done: u64,
    /// Jobs finished with an error.
    pub failed: u64,
    /// Jobs cancelled while queued.
    pub cancelled: u64,
}

/// The admitted-job table, keyed by ticket-prefixed id (`t3/fig8a/...`),
/// and the order in which its queued jobs start.
#[derive(Debug, Default)]
pub struct Registry {
    jobs: HashMap<String, JobEntry>,
    /// Queued ids in admission order. A cancelled id stays until it
    /// reaches the front, where [`Registry::start_next`] drops it.
    queue: VecDeque<String>,
}

impl Registry {
    /// Records a freshly admitted job as `Queued`, behind every job
    /// admitted before it.
    pub fn insert_queued(&mut self, id: String, spec: JobSpec) {
        self.queue.push_back(id.clone());
        self.jobs.insert(
            id,
            JobEntry {
                spec,
                state: JobState::Queued,
                report: None,
                error: None,
            },
        );
    }

    /// The entry for `id`, if admitted.
    pub fn entry(&self, id: &str) -> Option<&JobEntry> {
        self.jobs.get(id)
    }

    /// Starts the oldest job that is still `Queued` (`Queued → Running`),
    /// handing back its id and the spec to execute. Ids cancelled since
    /// admission are dropped on the way; `None` means nothing is queued.
    pub fn start_next(&mut self) -> Option<(String, JobSpec)> {
        while let Some(id) = self.queue.pop_front() {
            match self.jobs.get_mut(&id) {
                Some(e) if e.state == JobState::Queued => {
                    e.state = JobState::Running;
                    let spec = e.spec.clone();
                    return Some((id, spec));
                }
                _ => {}
            }
        }
        None
    }

    /// Records a running job's outcome (`Done` with a report or `Failed`
    /// with an error). Ignored for jobs not `Running` — a defensive no-op,
    /// since only the worker that started the job calls this.
    pub fn finish(&mut self, id: &str, outcome: Result<Value, String>) {
        let Some(e) = self.jobs.get_mut(id) else {
            return;
        };
        if e.state != JobState::Running {
            return;
        }
        match outcome {
            Ok(report) => {
                e.state = JobState::Done;
                e.report = Some(report);
            }
            Err(msg) => {
                e.state = JobState::Failed;
                e.error = Some(msg);
            }
        }
    }

    /// Transitions `Queued → Cancelled`. Returns whether the cancellation
    /// took effect (false for running or already-terminal jobs).
    pub fn cancel_queued(&mut self, id: &str) -> bool {
        match self.jobs.get_mut(id) {
            Some(e) if e.state == JobState::Queued => {
                e.state = JobState::Cancelled;
                true
            }
            _ => false,
        }
    }

    /// Jobs that are not yet terminal (queued + running) — the quantity
    /// admission control bounds.
    pub fn outstanding(&self) -> usize {
        self.jobs
            .values()
            .filter(|e| !e.state.is_terminal())
            .count()
    }

    /// Per-state counts.
    pub fn counts(&self) -> Counts {
        let mut c = Counts::default();
        for e in self.jobs.values() {
            match e.state {
                JobState::Queued => c.queued += 1,
                JobState::Running => c.running += 1,
                JobState::Done => c.done += 1,
                JobState::Failed => c.failed += 1,
                JobState::Cancelled => c.cancelled += 1,
            }
        }
        c
    }

    /// All admitted job ids with their states, sorted by id (the `list`
    /// response — sorted so the output is deterministic).
    pub fn list(&self) -> Vec<(String, JobState)> {
        let mut out: Vec<_> = self
            .jobs
            .iter()
            .map(|(id, e)| (id.clone(), e.state))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// One per-label aggregate of finished jobs' reports, served under its
/// own `stats` key and projected as one Prometheus counter family.
#[derive(Debug)]
pub struct Aggregate {
    /// The `stats` response key (`label → {jobs, counters..}`).
    pub key: &'static str,
    /// The report block summed (`metrics/coherence`).
    pub block: &'static str,
    /// The block's label field the sums are kept per; also the
    /// Prometheus label naming it.
    pub label: &'static str,
    /// The block's counters summed per label, in render order after
    /// `jobs`.
    pub counters: &'static [&'static str],
    /// A derived ratio rendered after the counters, as
    /// `(key, hits, misses)`: `hits / (hits + misses)`, 0 with no
    /// accesses. Not a counter, so the Prometheus family leaves it out.
    pub hit_rate: Option<(&'static str, &'static str, &'static str)>,
    /// Prometheus family name.
    pub family: &'static str,
    /// Prometheus label naming the counter.
    pub counter_label: &'static str,
    /// Prometheus `HELP` text.
    pub help: &'static str,
}

/// The report aggregates the server keeps: the coherent runs' bus
/// counters per protocol and the migration policies' actions per policy.
pub const AGGREGATES: [Aggregate; 2] = [
    Aggregate {
        key: "coherence",
        block: "metrics/coherence",
        label: "protocol",
        counters: &[
            "bus_transactions",
            "invalidations",
            "interventions",
            "bus_upd",
            "writeback_flushes",
            "bus_wait_cycles",
            "l1_hits",
            "l1_misses",
        ],
        hit_rate: Some(("l1_hit_rate", "l1_hits", "l1_misses")),
        family: "das_coherence_total",
        counter_label: "kind",
        help: "Coherence-bus counters aggregated per protocol.",
    },
    Aggregate {
        key: "policy",
        block: "metrics/policy",
        label: "policy",
        counters: &["promotes", "holds", "threshold_adjusts", "epochs"],
        hit_rate: None,
        family: "das_policy_actions_total",
        counter_label: "action",
        help: "Migration-policy action counters aggregated per policy.",
    },
];

/// Admission and request counters plus per-request-kind latency
/// histograms (microseconds).
#[derive(Debug, Default)]
pub struct Metrics {
    /// Jobs admitted.
    pub admitted: u64,
    /// Submissions rejected with `busy`.
    pub rejected_busy: u64,
    /// Submissions rejected with `draining`.
    pub rejected_draining: u64,
    /// Orphaned jobs re-driven from the journal after a crash restart.
    pub recovered: u64,
    /// Frames that violated the codec (answered with `frame`/`parse`).
    pub malformed_frames: u64,
    /// Latency per request kind, in microseconds. BTreeMap so the stats
    /// JSON renders in a deterministic key order.
    latency: BTreeMap<String, LatencyHistogram>,
    /// Wall-clock execution time of completed jobs (milliseconds,
    /// success and failure alike).
    job_wall: LatencyHistogram,
    /// Per-label sums of finished jobs' reports, one map per
    /// [`AGGREGATES`] row (same index). Each label maps to its job count
    /// followed by the row's counters. BTreeMap for deterministic render;
    /// a map stays empty (and its key absent from the stats response)
    /// until a job whose report carries the row's block finishes.
    aggregates: [BTreeMap<String, Vec<u64>>; AGGREGATES.len()],
}

impl Metrics {
    /// Records one handled request of `kind` taking `micros`.
    pub fn record_request(&mut self, kind: &str, micros: u64) {
        self.latency
            .entry(kind.to_string())
            .or_default()
            .record(micros);
    }

    /// Records one executed job taking `millis` of wall time.
    pub fn record_job_wall(&mut self, millis: u64) {
        self.job_wall.record(millis);
    }

    /// The job wall-time distribution as `{summary}`.
    pub fn job_latency_value(&self) -> Value {
        Value::obj().set("summary", self.job_wall.summary_value())
    }

    /// The per-kind latency summaries as a JSON object
    /// (`kind → {count,min,max,mean,p50,p95,p99}`).
    pub fn latency_value(&self) -> Value {
        let mut v = Value::obj();
        for (kind, h) in &self.latency {
            v = v.set(kind, h.summary_value());
        }
        v
    }

    /// Folds a finished job's report into every [`AGGREGATES`] row whose
    /// block it carries; a report without the block (a classic or
    /// policy-free run) leaves that row alone.
    pub fn record_report(&mut self, report: &Value) {
        for (agg, sums) in AGGREGATES.iter().zip(&mut self.aggregates) {
            let Some(block) = report.get_path(agg.block) else {
                continue;
            };
            let Some(label) = block.get(agg.label).and_then(Value::as_str) else {
                continue;
            };
            let row = sums
                .entry(label.to_string())
                .or_insert_with(|| vec![0; 1 + agg.counters.len()]);
            row[0] += 1;
            for (sum, counter) in row[1..].iter_mut().zip(agg.counters) {
                *sum += block.get(counter).and_then(Value::as_u64).unwrap_or(0);
            }
        }
    }

    /// Each [`AGGREGATES`] row that has folded at least one report, as
    /// its `stats` key and `label → {jobs, counters.., derived ratio}`.
    pub fn aggregate_values(&self) -> impl Iterator<Item = (&'static str, Value)> + '_ {
        AGGREGATES
            .iter()
            .zip(&self.aggregates)
            .filter(|(_, sums)| !sums.is_empty())
            .map(|(agg, sums)| {
                let mut v = Value::obj();
                for (label, row) in sums {
                    let mut counters = Value::obj().set("jobs", row[0]);
                    for (name, &sum) in agg.counters.iter().zip(&row[1..]) {
                        counters = counters.set(name, sum);
                    }
                    if let Some((key, hits, misses)) = agg.hit_rate {
                        let n = |name| counters.get(name).and_then(Value::as_u64).unwrap_or(0);
                        let (hits, misses) = (n(hits), n(misses));
                        let rate = if hits + misses == 0 {
                            0.0
                        } else {
                            hits as f64 / (hits + misses) as f64
                        };
                        counters = counters.set(key, rate);
                    }
                    v = v.set(label, counters);
                }
                (agg.key, v)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_harness::manifest::Overrides;

    /// The `stats` value of aggregate `key`, if any report was folded.
    fn aggregate(m: &Metrics, key: &str) -> Option<Value> {
        m.aggregate_values()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }

    fn spec(id: &str) -> JobSpec {
        JobSpec {
            id: id.into(),
            design: "std".into(),
            workload: "libquantum".into(),
            insts: 100_000,
            scale: 64,
            seed: 42,
            ov: Overrides::default(),
        }
    }

    #[test]
    fn lifecycle_transitions_follow_the_state_machine() {
        let mut r = Registry::default();
        r.insert_queued("t1/a".into(), spec("a"));
        r.insert_queued("t1/b".into(), spec("b"));
        assert_eq!(r.outstanding(), 2);

        // Queued → Running → Done.
        let (id, s) = r.start_next().expect("queued job starts");
        assert_eq!((id.as_str(), s.id.as_str()), ("t1/a", "a"));
        assert_eq!(r.entry("t1/a").unwrap().state, JobState::Running);
        r.finish("t1/a", Ok(Value::obj().set("n", 1u64)));
        assert_eq!(r.entry("t1/a").unwrap().state, JobState::Done);
        assert!(r.entry("t1/a").unwrap().report.is_some());

        // Queued → Cancelled; a cancelled job never starts.
        assert!(r.cancel_queued("t1/b"));
        assert!(!r.cancel_queued("t1/b"), "already terminal");
        assert!(r.start_next().is_none());
        assert_eq!(r.outstanding(), 0);

        let c = r.counts();
        assert_eq!((c.done, c.cancelled), (1, 1));
        assert_eq!(
            r.list(),
            vec![
                ("t1/a".to_string(), JobState::Done),
                ("t1/b".to_string(), JobState::Cancelled)
            ]
        );
    }

    #[test]
    fn jobs_start_in_admission_order_skipping_cancelled_ones() {
        let mut r = Registry::default();
        // Admission order, not id order: "t9" is admitted before "t10".
        for id in ["t9/z", "t10/a", "t11/m", "t12/b"] {
            r.insert_queued(id.into(), spec(id));
        }
        assert!(r.cancel_queued("t10/a"));
        assert!(r.cancel_queued("t12/b"));
        let (first, _) = r.start_next().unwrap();
        r.insert_queued("t13/c".into(), spec("c"));
        let rest: Vec<String> = std::iter::from_fn(|| r.start_next().map(|(id, _)| id)).collect();
        assert_eq!(first, "t9/z");
        assert_eq!(rest, ["t11/m", "t13/c"]);
        let c = r.counts();
        assert_eq!((c.queued, c.running, c.cancelled), (0, 3, 2));
    }

    #[test]
    fn failure_and_unknown_ids_are_handled() {
        let mut r = Registry::default();
        r.insert_queued("t2/x".into(), spec("x"));
        assert!(!r.cancel_queued("nosuch"));
        r.finish("t2/x", Err("too early".into())); // still queued: no-op
        assert_eq!(r.entry("t2/x").unwrap().state, JobState::Queued);
        r.start_next().unwrap();
        assert!(!r.cancel_queued("t2/x"), "running jobs are not cancelled");
        r.finish("t2/x", Err("boom".into()));
        let e = r.entry("t2/x").unwrap();
        assert_eq!(e.state, JobState::Failed);
        assert_eq!(e.error.as_deref(), Some("boom"));
    }

    #[test]
    fn metrics_aggregate_latency_per_kind() {
        let mut m = Metrics::default();
        m.record_request("status", 100);
        m.record_request("status", 300);
        m.record_request("submit_job", 50);
        let v = m.latency_value();
        assert_eq!(v.get_path("status/count").and_then(Value::as_u64), Some(2));
        assert_eq!(
            v.get_path("submit_job/max").and_then(Value::as_u64),
            Some(50)
        );
        // BTreeMap ordering makes the render deterministic.
        assert!(v.render().find("status").unwrap() < v.render().find("submit_job").unwrap());
    }

    #[test]
    fn coherence_aggregates_per_protocol_and_stays_absent_for_classic_runs() {
        let mut m = Metrics::default();
        assert!(aggregate(&m, "coherence").is_none(), "no coherent jobs yet");
        // Classic report: no-op.
        let classic = Value::obj().set("metrics", Value::obj().set("ipc_sum", 1.0));
        m.record_report(&classic);
        assert!(aggregate(&m, "coherence").is_none());
        let coh = |protocol: &str, inval: u64| {
            Value::obj().set(
                "metrics",
                Value::obj().set(
                    "coherence",
                    Value::obj()
                        .set("protocol", protocol)
                        .set("bus_transactions", 100u64)
                        .set("invalidations", inval)
                        .set("l1_hits", 80u64)
                        .set("l1_misses", 20u64),
                ),
            )
        };
        m.record_report(&coh("MESI", 7));
        m.record_report(&coh("MESI", 3));
        m.record_report(&coh("Dragon", 0));
        let v = aggregate(&m, "coherence").expect("coherent jobs aggregated");
        assert_eq!(v.get_path("MESI/jobs").and_then(Value::as_u64), Some(2));
        assert_eq!(
            v.get_path("MESI/invalidations").and_then(Value::as_u64),
            Some(10)
        );
        assert_eq!(
            v.get_path("MESI/bus_transactions").and_then(Value::as_u64),
            Some(200)
        );
        assert_eq!(
            v.get_path("MESI/l1_hit_rate").and_then(Value::as_f64),
            Some(0.8)
        );
        assert_eq!(v.get_path("Dragon/jobs").and_then(Value::as_u64), Some(1));
        // BTreeMap ordering keeps the render deterministic.
        let text = v.render();
        assert!(text.find("Dragon").unwrap() < text.find("MESI").unwrap());
    }

    #[test]
    fn aggregates_render_jobs_then_counters_then_the_derived_rate() {
        let mut m = Metrics::default();
        let report = Value::obj().set(
            "metrics",
            Value::obj()
                .set(
                    "coherence",
                    Value::obj()
                        .set("protocol", "MESI")
                        .set("l1_misses", 1u64)
                        .set("l1_hits", 3u64)
                        .set("bus_upd", 2u64),
                )
                .set(
                    "policy",
                    Value::obj().set("policy", "feedback").set("epochs", 4u64),
                ),
        );
        m.record_report(&report);
        let rendered: Vec<(&str, String)> =
            m.aggregate_values().map(|(k, v)| (k, v.render())).collect();
        assert_eq!(
            rendered,
            [
                (
                    "coherence",
                    "{\"MESI\":{\"jobs\":1,\"bus_transactions\":0,\"invalidations\":0,\
                     \"interventions\":0,\"bus_upd\":2,\"writeback_flushes\":0,\
                     \"bus_wait_cycles\":0,\"l1_hits\":3,\"l1_misses\":1,\"l1_hit_rate\":0.75}}"
                        .to_string()
                ),
                (
                    "policy",
                    "{\"feedback\":{\"jobs\":1,\"promotes\":0,\"holds\":0,\
                     \"threshold_adjusts\":0,\"epochs\":4}}"
                        .to_string()
                ),
            ]
        );
    }

    #[test]
    fn policy_actions_aggregate_per_policy_and_stay_absent_for_policy_free_runs() {
        let mut m = Metrics::default();
        assert!(
            aggregate(&m, "policy").is_none(),
            "no policy-driven jobs yet"
        );
        // Policy-free report: no-op.
        let classic = Value::obj().set("metrics", Value::obj().set("ipc_sum", 1.0));
        m.record_report(&classic);
        assert!(aggregate(&m, "policy").is_none());
        let pol = |key: &str, promotes: u64| {
            Value::obj().set(
                "metrics",
                Value::obj().set(
                    "policy",
                    Value::obj()
                        .set("policy", key)
                        .set("promotes", promotes)
                        .set("holds", 50u64)
                        .set("threshold_adjusts", 1u64)
                        .set("epochs", 3u64),
                ),
            )
        };
        m.record_report(&pol("feedback", 7));
        m.record_report(&pol("feedback", 3));
        m.record_report(&pol("cost_aware", 5));
        let v = aggregate(&m, "policy").expect("policy jobs aggregated");
        assert_eq!(v.get_path("feedback/jobs").and_then(Value::as_u64), Some(2));
        assert_eq!(
            v.get_path("feedback/promotes").and_then(Value::as_u64),
            Some(10)
        );
        assert_eq!(
            v.get_path("feedback/threshold_adjusts")
                .and_then(Value::as_u64),
            Some(2)
        );
        assert_eq!(
            v.get_path("cost_aware/holds").and_then(Value::as_u64),
            Some(50)
        );
        // BTreeMap ordering keeps the render deterministic.
        let text = v.render();
        assert!(text.find("cost_aware").unwrap() < text.find("feedback").unwrap());
    }
}
