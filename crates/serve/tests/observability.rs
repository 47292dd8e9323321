//! Observability loopback test: a real `das-serve` process observed end
//! to end through its monitoring surfaces — the `metrics` wire method
//! (Prometheus exposition text), `uptime_ms`/`job_latency_ms` in `stats`,
//! and `dasctl stats` (one-shot JSON and the `--watch` refreshing
//! screen) and `dasctl metrics`.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Command, Stdio};

use das_harness::manifest::{JobSpec, Overrides};
use das_serve::client::{collect_stream, Client};
use das_serve::proto;
use das_telemetry::json::{self, Value};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("das-observe-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec(id: &str) -> JobSpec {
    JobSpec {
        id: id.into(),
        design: "std".into(),
        workload: "libquantum".into(),
        insts: 40_000,
        scale: 64,
        seed: 42,
        ov: Overrides::default(),
    }
}

fn dasctl(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_dasctl"))
        .args(args)
        .output()
        .expect("run dasctl");
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.success(),
    )
}

#[test]
fn a_live_server_is_observable_through_metrics_stats_and_watch() {
    let dir = tmp_dir("serve");
    let mut child = Command::new(env!("CARGO_BIN_EXE_das-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "1",
            "--capacity",
            "8",
            "--json-dir",
            dir.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn das-serve");

    // The server prints its bound address as its first stdout line.
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
        .to_string();

    // Run a few jobs so the job-latency histogram has content.
    let mut c = Client::connect(&addr).unwrap();
    let specs: Vec<JobSpec> = ["a", "b", "c", "d"].iter().map(|id| spec(id)).collect();
    let ids: Vec<String> = specs
        .iter()
        .map(|s| {
            let resp = c
                .request(&proto::request("submit_job").set("job", s.to_value()))
                .unwrap();
            resp.get("job").and_then(Value::as_str).unwrap().to_string()
        })
        .collect();
    let reports = collect_stream(&mut c, &ids, |_, _| {}).unwrap();
    assert_eq!(reports.len(), specs.len());

    // Stats expose uptime and the job wall-time distribution.
    let stats = c.request(&proto::request("stats")).unwrap();
    assert!(stats.get("uptime_ms").and_then(Value::as_u64).unwrap() > 0);
    assert_eq!(
        stats
            .get_path("job_latency_ms/summary/count")
            .and_then(Value::as_u64),
        Some(specs.len() as u64),
        "every job must be timed"
    );

    // The `metrics` wire method answers with Prometheus exposition text.
    let resp = c.request(&proto::request("metrics")).unwrap();
    assert_eq!(
        resp.get("content_type").and_then(Value::as_str),
        Some("text/plain; version=0.0.4")
    );
    let body = resp.get("body").and_then(Value::as_str).unwrap();
    for needle in [
        "# TYPE das_uptime_ms gauge",
        "das_jobs{state=\"done\"}",
        "das_admission_total{kind=\"admitted\"}",
        "das_job_latency_ms_count{scope=\"all\"}",
    ] {
        assert!(body.contains(needle), "missing {needle:?} in:\n{body}");
    }
    for line in body.lines().filter(|l| !l.starts_with('#')) {
        let value = line.rsplit(' ').next().unwrap();
        assert!(value.parse::<f64>().is_ok(), "bad exposition line {line:?}");
    }

    // `dasctl stats` one-shot: the server's stats JSON.
    let (out, stderr, ok) = dasctl(&["stats", "--addr", &addr]);
    assert!(ok, "dasctl stats failed: {stderr}");
    let one_shot = json::parse(out.trim()).unwrap();
    assert_eq!(
        one_shot
            .get_path("job_latency_ms/summary/count")
            .and_then(Value::as_u64),
        Some(specs.len() as u64)
    );
    assert_eq!(
        one_shot
            .get_path("admission/admitted")
            .and_then(Value::as_u64),
        Some(specs.len() as u64)
    );

    // `dasctl metrics` prints the exposition text.
    let (out, stderr, ok) = dasctl(&["metrics", "--addr", &addr]);
    assert!(ok, "dasctl metrics failed: {stderr}");
    assert!(out.contains("das_uptime_ms"), "{out}");

    // `dasctl stats --watch`: a bounded run of the refreshing view.
    let (out, stderr, ok) = dasctl(&[
        "stats",
        "--addr",
        &addr,
        "--watch",
        "--interval-ms",
        "50",
        "--iterations",
        "2",
    ]);
    assert!(ok, "dasctl stats --watch failed: {stderr}");
    assert!(out.contains("job latency ms: n=4"), "{out}");
    assert!(
        out.matches("\x1b[2J").count() >= 2,
        "watch must refresh the screen per iteration"
    );

    // Drain; the server exits 0.
    c.set_read_timeout(None).unwrap();
    c.request(&proto::request("drain").set("wait", true))
        .unwrap();
    let status = child.wait().expect("server exit");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(status.success(), "das-serve failed:\n{rest}\n{stderr}");
}
