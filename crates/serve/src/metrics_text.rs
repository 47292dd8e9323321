//! Prometheus-style text exposition of a server's `stats` document.
//!
//! The `metrics` wire method answers with this rendering (as a `body`
//! string plus the standard `text/plain; version=0.0.4` content type), so
//! any scraper that can speak the exposition format — or a human with
//! `dasctl metrics` — can watch a server without knowing the JSON stats
//! shape. The renderer is a pure function of the `stats` response value:
//! one source of truth for the numbers, two encodings.

use das_telemetry::json::Value;

use crate::state::{Aggregate, AGGREGATES};

/// The exposition-format content type scrapes expect.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

fn push_metric(out: &mut String, name: &str, labels: &str, v: f64) {
    out.push_str(name);
    out.push_str(labels);
    // Prometheus accepts integers and floats; render whole numbers bare.
    if v.fract() == 0.0 && v.abs() < 9e15 {
        out.push_str(&format!(" {}\n", v as i64));
    } else {
        out.push_str(&format!(" {v}\n"));
    }
}

fn header(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

fn num(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        Value::Bool(b) => Some(f64::from(u8::from(*b))),
        _ => None,
    }
}

/// Emits one labelled family from an object of numeric fields
/// (`jobs: {queued: 1, ...}` → `das_jobs{state="queued"} 1` ...).
fn object_family(
    out: &mut String,
    stats: &Value,
    field: &str,
    name: &str,
    kind: &str,
    label: &str,
    help: &str,
) {
    let Some(Value::Obj(entries)) = stats.get(field) else {
        return;
    };
    header(out, name, kind, help);
    for (k, v) in entries {
        if let Some(n) = num(Some(v)) {
            push_metric(out, name, &format!("{{{label}=\"{k}\"}}"), n);
        }
    }
}

/// Emits one report aggregate's counter family, which nests one level
/// deeper than [`object_family`] handles (`{label: {counter: n}}` →
/// `das_coherence_total{protocol="MESI",kind="jobs"} 2` ...). Only `jobs`
/// and the row's counters are emitted: a derived ratio such as
/// `l1_hit_rate` is left out, and scrapers recompute it from the counters.
fn aggregate_family(out: &mut String, stats: &Value, agg: &Aggregate) {
    let Some(Value::Obj(labels)) = stats.get(agg.key) else {
        return;
    };
    header(out, agg.family, "counter", agg.help);
    for (label, counters) in labels {
        for counter in std::iter::once(&"jobs").chain(agg.counters) {
            if let Some(n) = num(counters.get(counter)) {
                push_metric(
                    out,
                    agg.family,
                    &format!(
                        "{{{}=\"{label}\",{}=\"{counter}\"}}",
                        agg.label, agg.counter_label
                    ),
                    n,
                );
            }
        }
    }
}

/// Emits a latency-summary family from an object of per-key summaries
/// (`{kind: {count, p50, p95, p99, ...}}`) as Prometheus summary series:
/// quantile-labelled values plus `_count` and `_sum`-less totals.
fn summary_family(out: &mut String, summaries: &Value, name: &str, label: &str, help: &str) {
    let Value::Obj(entries) = summaries else {
        return;
    };
    header(out, name, "summary", help);
    for (key, s) in entries {
        for (q, field) in [("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")] {
            if let Some(v) = num(s.get(field)) {
                push_metric(
                    out,
                    name,
                    &format!("{{{label}=\"{key}\",quantile=\"{q}\"}}"),
                    v,
                );
            }
        }
        if let Some(c) = num(s.get("count")) {
            push_metric(
                out,
                &format!("{name}_count"),
                &format!("{{{label}=\"{key}\"}}"),
                c,
            );
        }
    }
}

/// Renders a server's `stats` response as Prometheus exposition text.
/// Unknown or missing fields are skipped, never errored: the text form is
/// a lossy projection of the JSON stats, not a second contract.
pub fn render(stats: &Value) -> String {
    let mut out = String::new();
    for (field, name, kind, help) in [
        (
            "uptime_ms",
            "das_uptime_ms",
            "gauge",
            "Server uptime in milliseconds.",
        ),
        (
            "capacity",
            "das_capacity",
            "gauge",
            "Admission capacity (outstanding jobs).",
        ),
        (
            "threads",
            "das_threads",
            "gauge",
            "Simulation worker threads.",
        ),
        (
            "draining",
            "das_draining",
            "gauge",
            "1 while draining, else 0.",
        ),
        (
            "malformed_frames",
            "das_malformed_frames_total",
            "counter",
            "Requests that violated the frame codec.",
        ),
    ] {
        if let Some(v) = num(stats.get(field)) {
            header(&mut out, name, kind, help);
            push_metric(&mut out, name, "", v);
        }
    }
    object_family(
        &mut out,
        stats,
        "jobs",
        "das_jobs",
        "gauge",
        "state",
        "Jobs by lifecycle state.",
    );
    object_family(
        &mut out,
        stats,
        "admission",
        "das_admission_total",
        "counter",
        "kind",
        "Admission decisions by kind.",
    );
    object_family(
        &mut out,
        stats,
        "trace_store",
        "das_trace_store_total",
        "counter",
        "kind",
        "Content-addressed trace store counters.",
    );
    for agg in &AGGREGATES {
        aggregate_family(&mut out, stats, agg);
    }
    if let Some(lat) = stats.get("request_latency_us") {
        summary_family(
            &mut out,
            lat,
            "das_request_latency_us",
            "kind",
            "Request handling latency per request kind, microseconds.",
        );
    }
    if let Some(job) = stats.get("job_latency_ms") {
        // The job-latency block nests its summary under `summary`.
        if let Some(s) = job.get("summary") {
            summary_family(
                &mut out,
                &Value::obj().set("all", s.clone()),
                "das_job_latency_ms",
                "scope",
                "Job wall-clock execution latency, milliseconds.",
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats() -> Value {
        Value::obj()
            .set("uptime_ms", 1234u64)
            .set("capacity", 16u64)
            .set("threads", 2u64)
            .set("draining", false)
            .set("malformed_frames", 3u64)
            .set("jobs", Value::obj().set("queued", 1u64).set("done", 7u64))
            .set(
                "admission",
                Value::obj()
                    .set("admitted", 8u64)
                    .set("rejected_busy", 2u64),
            )
            .set(
                "request_latency_us",
                Value::obj().set(
                    "ping",
                    Value::obj()
                        .set("count", 4u64)
                        .set("p50", 10u64)
                        .set("p95", 20u64)
                        .set("p99", 30u64),
                ),
            )
            .set(
                "job_latency_ms",
                Value::obj().set(
                    "summary",
                    Value::obj()
                        .set("count", 7u64)
                        .set("p50", 40u64)
                        .set("p95", 90u64)
                        .set("p99", 120u64),
                ),
            )
            .set(
                "coherence",
                Value::obj().set(
                    "MESI",
                    Value::obj()
                        .set("jobs", 2u64)
                        .set("bus_transactions", 150u64)
                        .set("invalidations", 12u64)
                        .set("l1_hit_rate", 0.85),
                ),
            )
            .set(
                "policy",
                Value::obj().set(
                    "feedback",
                    Value::obj()
                        .set("jobs", 2u64)
                        .set("promotes", 31u64)
                        .set("threshold_adjusts", 4u64),
                ),
            )
    }

    #[test]
    fn renders_gauges_counters_and_summaries() {
        let text = render(&sample_stats());
        for needle in [
            "# TYPE das_uptime_ms gauge",
            "das_uptime_ms 1234",
            "das_draining 0",
            "das_jobs{state=\"queued\"} 1",
            "das_jobs{state=\"done\"} 7",
            "# TYPE das_admission_total counter",
            "das_admission_total{kind=\"admitted\"} 8",
            "das_request_latency_us{kind=\"ping\",quantile=\"0.5\"} 10",
            "das_request_latency_us_count{kind=\"ping\"} 4",
            "das_job_latency_ms{scope=\"all\",quantile=\"0.99\"} 120",
            "das_job_latency_ms_count{scope=\"all\"} 7",
            "das_malformed_frames_total 3",
            "# TYPE das_coherence_total counter",
            "das_coherence_total{protocol=\"MESI\",kind=\"bus_transactions\"} 150",
            "das_coherence_total{protocol=\"MESI\",kind=\"invalidations\"} 12",
            "# TYPE das_policy_actions_total counter",
            "das_policy_actions_total{policy=\"feedback\",action=\"promotes\"} 31",
            "das_policy_actions_total{policy=\"feedback\",action=\"threshold_adjusts\"} 4",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert!(
            !text.contains("l1_hit_rate"),
            "derived ratios stay out of the counter family"
        );
        // Every non-comment line is `name[labels] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "unparseable sample {line:?}");
        }
    }

    #[test]
    fn missing_fields_are_skipped_not_errored() {
        let text = render(&Value::obj().set("uptime_ms", 5u64));
        assert!(text.contains("das_uptime_ms 5"));
        assert!(!text.contains("das_jobs"));
        assert!(!text.contains("das_request_latency_us"));
    }
}
