//! Loopback integration tests: a real server on an ephemeral port, real
//! TCP clients, no mocks. Covers the protocol's failure modes (malformed
//! frames, version/kind violations, idle timeouts), the admission
//! contract (deterministic structured `busy`, `draining`), start order
//! and panic containment on the one worker, the graceful drain +
//! journal-audit story, crash recovery from a resumed journal, and the
//! headline determinism guarantee:
//! artifacts fetched through the server are byte-identical to a direct
//! harness run's.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use das_harness::cli::{
    build_catalog_manifest, execute_jobs, render_experiment_outputs, ExecOptions,
};
use das_harness::journal::{load_service, ServiceJournal};
use das_harness::manifest::{JobSpec, Overrides};
use das_serve::client::{collect_stream, Client};
use das_serve::proto::{self, code};
use das_serve::server::{Server, ServerConfig, SERVE_JOURNAL_NAME};
use das_telemetry::json::Value;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("das-serve-loopback-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(out_dir: &Path) -> ServerConfig {
    ServerConfig {
        threads: 1,
        capacity: 8,
        out_dir: out_dir.to_path_buf(),
        trace_store_dir: None,
        read_timeout: Duration::from_secs(10),
        max_frame: 1024 * 1024,
        retry_after_ms: 123,
        ..ServerConfig::default()
    }
}

fn start(cfg: ServerConfig) -> (String, std::thread::JoinHandle<Result<(), String>>) {
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    (addr, std::thread::spawn(move || server.run()))
}

fn spec(id: &str, insts: u64) -> JobSpec {
    JobSpec {
        id: id.into(),
        design: "std".into(),
        workload: "libquantum".into(),
        insts,
        scale: 64,
        seed: 42,
        ov: Overrides::default(),
    }
}

/// Submits one job, returning its ticket-prefixed id.
fn submit(client: &mut Client, s: &JobSpec) -> Result<String, String> {
    let resp = client.request(&proto::request("submit_job").set("job", s.to_value()))?;
    Ok(resp
        .get("job")
        .and_then(Value::as_str)
        .expect("admitted id")
        .to_string())
}

fn drain_and_join(addr: &str, handle: std::thread::JoinHandle<Result<(), String>>) {
    let mut c = Client::connect(addr).unwrap();
    c.set_read_timeout(None).unwrap();
    c.request(&proto::request("drain").set("wait", true))
        .unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn malformed_frames_get_structured_errors_and_the_server_survives() {
    let dir = tmp_dir("framing");
    let (addr, _h) = start(config(&dir));

    // Table of raw byte streams and the structured error they must earn.
    // `reusable` marks cases where the same connection must keep working.
    struct Case {
        name: &'static str,
        bytes: Vec<u8>,
        want_code: &'static str,
        reusable: bool,
    }
    let huge = (2 * 1024 * 1024u32).to_be_bytes().to_vec();
    let cases = vec![
        Case {
            name: "zero-length frame",
            bytes: 0u32.to_be_bytes().to_vec(),
            want_code: code::FRAME,
            reusable: true,
        },
        Case {
            name: "oversized frame",
            bytes: huge,
            want_code: code::FRAME,
            reusable: false, // stream desynchronized: answer, then close
        },
        Case {
            name: "non-JSON payload",
            bytes: {
                let mut b = 9u32.to_be_bytes().to_vec();
                b.extend_from_slice(b"spaghetti");
                b
            },
            want_code: code::PARSE,
            reusable: true,
        },
        Case {
            name: "non-UTF-8 payload",
            bytes: {
                let mut b = 2u32.to_be_bytes().to_vec();
                b.extend_from_slice(&[0xff, 0xfe]);
                b
            },
            want_code: code::PARSE,
            reusable: true,
        },
    ];
    for case in cases {
        let mut raw = TcpStream::connect(&addr).unwrap();
        raw.write_all(&case.bytes).unwrap();
        let resp = proto::read_frame(&mut raw, 1024 * 1024).unwrap();
        let (c, msg) = proto::error_of(&resp).expect("failure response");
        assert_eq!(c, case.want_code, "{}: {msg}", case.name);
        if case.reusable {
            // The same connection still answers well-formed requests.
            proto::write_frame(&mut raw, &proto::request("stats")).unwrap();
            let resp = proto::read_frame(&mut raw, 1024 * 1024).unwrap();
            assert!(proto::error_of(&resp).is_none(), "{}: {resp:?}", case.name);
        }
    }

    // A mid-frame disconnect (length prefix promising more than is sent)
    // must not wedge the server.
    {
        let mut raw = TcpStream::connect(&addr).unwrap();
        raw.write_all(&100u32.to_be_bytes()).unwrap();
        raw.write_all(b"abc").unwrap();
    } // dropped mid-frame

    // Version and kind violations are structured too.
    let mut raw = TcpStream::connect(&addr).unwrap();
    proto::write_frame(&mut raw, &Value::obj().set("das_serve", 99u64)).unwrap();
    let resp = proto::read_frame(&mut raw, 1024 * 1024).unwrap();
    assert_eq!(proto::error_of(&resp).unwrap().0, code::VERSION);
    proto::write_frame(&mut raw, &proto::request("frobnicate")).unwrap();
    let resp = proto::read_frame(&mut raw, 1024 * 1024).unwrap();
    assert_eq!(proto::error_of(&resp).unwrap().0, code::BAD_REQUEST);

    // After all that abuse the server still serves fresh connections and
    // has counted the malformed frames.
    let mut c = Client::connect(&addr).unwrap();
    let stats = c.request(&proto::request("stats")).unwrap();
    assert!(
        stats
            .get("malformed_frames")
            .and_then(Value::as_u64)
            .unwrap()
            >= 4
    );
}

#[test]
fn busy_backpressure_is_deterministic_and_structured() {
    let dir = tmp_dir("busy");
    let mut cfg = config(&dir);
    cfg.capacity = 1;
    let (addr, h) = start(cfg);
    let mut c = Client::connect(&addr).unwrap();

    // A batch larger than the whole capacity can never be admitted, so it
    // is a bad request, not `busy` — no timing involved: fig8a is five
    // jobs against capacity 1.
    let req = proto::request("submit_experiment")
        .set("exp", Value::Arr(vec![Value::Str("fig8a".into())]))
        .set("insts", 100_000u64)
        .set("scale", 64u64)
        .set("only", Value::Arr(vec![Value::Str("libquantum".into())]));
    let err = c.request(&req).unwrap_err();
    assert!(err.starts_with("bad_request:"), "{err}");
    assert!(err.contains("capacity 1"), "{err}");
    assert!(!err.contains("retry after"), "{err}");

    // A rejected submission leaves capacity untouched: a single job still
    // fits, and while it is outstanding the next submit is busy with the
    // server's retry hint.
    let id = submit(&mut c, &spec("heavy", 400_000)).unwrap();
    let err = submit(&mut c, &spec("turned-away", 50_000)).unwrap_err();
    assert!(err.starts_with("busy:"), "{err}");
    assert!(err.contains("retry after 123 ms"), "{err}");

    // The admitted job still completes; the rejections were observable.
    let reports = collect_stream(&mut c, &[id], |_, _| {}).unwrap();
    assert_eq!(reports.len(), 1);
    let stats = c.request(&proto::request("stats")).unwrap();
    assert_eq!(
        stats
            .get_path("admission/rejected_busy")
            .and_then(Value::as_u64),
        Some(1)
    );
    assert_eq!(
        stats.get_path("admission/admitted").and_then(Value::as_u64),
        Some(1)
    );
    drain_and_join(&addr, h);
    let s = load_service(&dir.join(SERVE_JOURNAL_NAME)).unwrap();
    assert_eq!((s.admitted, s.done), (1, 1));
    assert!(s.orphans.is_empty());
}

#[test]
fn cancel_drain_and_journal_leave_no_orphans() {
    let dir = tmp_dir("drain");
    let (addr, h) = start(config(&dir)); // threads: 1 → B, C queue behind A
    let mut c = Client::connect(&addr).unwrap();
    let a = submit(&mut c, &spec("a", 400_000)).unwrap();
    let b = submit(&mut c, &spec("b", 50_000)).unwrap();
    let cc = submit(&mut c, &spec("c", 50_000)).unwrap();
    assert_eq!((a.as_str(), b.as_str()), ("t1/a", "t2/b"));

    // C is still queued behind A on the single worker: cancellable.
    let resp = c
        .request(&proto::request("cancel").set("job", cc.as_str()))
        .unwrap();
    assert_eq!(resp.get("cancelled").and_then(Value::as_bool), Some(true));
    // Cancelling a terminal job is a report, not an error.
    let resp = c
        .request(&proto::request("cancel").set("job", cc.as_str()))
        .unwrap();
    assert_eq!(resp.get("cancelled").and_then(Value::as_bool), Some(false));
    assert_eq!(resp.get("state").and_then(Value::as_str), Some("cancelled"));

    // Drain: acknowledged immediately, then submissions get `draining`
    // while A/B finish.
    let resp = c.request(&proto::request("drain")).unwrap();
    assert_eq!(resp.get("draining").and_then(Value::as_bool), Some(true));
    let err = submit(&mut c, &spec("late", 50_000)).unwrap_err();
    assert!(err.starts_with("draining:"), "{err}");

    // A blocking drain from a second client returns once everything is
    // terminal, and the server process (thread here) exits cleanly.
    drain_and_join(&addr, h);

    let s = load_service(&dir.join(SERVE_JOURNAL_NAME)).unwrap();
    assert_eq!(s.admitted, 3);
    assert_eq!((s.done, s.failed, s.cancelled), (2, 0, 1));
    assert!(s.orphans.is_empty(), "clean drain leaves no orphans");
}

#[test]
fn one_worker_starts_jobs_in_admission_order_and_never_a_cancelled_one() {
    let dir = tmp_dir("order");
    let (addr, h) = start(config(&dir)); // threads: 1
    let mut c = Client::connect(&addr).unwrap();
    let ids: Vec<String> = [("d", 400_000), ("c", 50_000), ("b", 50_000), ("a", 50_000)]
        .into_iter()
        .map(|(id, insts)| submit(&mut c, &spec(id, insts)).unwrap())
        .collect();

    // The first job holds the only worker, so the third is still queued.
    let resp = c
        .request(&proto::request("cancel").set("job", ids[2].as_str()))
        .unwrap();
    assert_eq!(resp.get("cancelled").and_then(Value::as_bool), Some(true));
    drain_and_join(&addr, h);

    // With one worker, terminal lines follow start order. The cancelled
    // job has no other terminal line: it never started.
    let text = std::fs::read_to_string(dir.join(SERVE_JOURNAL_NAME)).unwrap();
    let terminals: Vec<(String, String)> = text
        .lines()
        .filter_map(|line| {
            let v = das_telemetry::json::parse(line).ok()?;
            let event = v.get("event")?.as_str()?;
            let job = v.get("job")?.as_str()?;
            matches!(event, "done" | "failed" | "cancelled")
                .then(|| (event.to_string(), job.to_string()))
        })
        .collect();
    let want = |event: &str, i: usize| (event.to_string(), ids[i].clone());
    assert_eq!(
        terminals,
        [
            want("cancelled", 2),
            want("done", 0),
            want("done", 1),
            want("done", 3)
        ]
    );
}

#[test]
fn a_panicking_job_is_journalled_failed_and_the_worker_survives() {
    let dir = tmp_dir("panic");
    let (addr, h) = start(config(&dir)); // threads: 1
    let mut c = Client::connect(&addr).unwrap();
    // Without containment the job would stay running forever.
    c.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    // A zero promotion threshold trips an assertion inside the simulator.
    let mut bad = spec("bad", 50_000);
    bad.design = "das".into();
    bad.ov.threshold = Some(0);
    let bad = submit(&mut c, &bad).unwrap();
    let good = submit(&mut c, &spec("good", 50_000)).unwrap();
    let err = collect_stream(&mut c, &[bad], |_, _| {}).unwrap_err();
    assert!(err.contains("ended failed: job panicked:"), "{err}");

    // The only worker survived the panic and runs the next job.
    let mut c = Client::connect(&addr).unwrap();
    assert_eq!(collect_stream(&mut c, &[good], |_, _| {}).unwrap().len(), 1);
    drain_and_join(&addr, h);
    let s = load_service(&dir.join(SERVE_JOURNAL_NAME)).unwrap();
    assert_eq!((s.admitted, s.done, s.failed), (2, 1, 1));
}

#[test]
fn out_of_range_geometry_is_a_bad_request_not_a_dead_connection() {
    let dir = tmp_dir("geometry");
    let (addr, h) = start(config(&dir));
    let mut raw = TcpStream::connect(&addr).unwrap();
    // A connection thread that panics leaves the socket open without a
    // reply: fail instead of waiting forever.
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let req = proto::request("submit_experiment")
        .set("exp", Value::Arr(vec![Value::Str("fig7b".into())]))
        .set("insts", 100_000u64)
        .set("scale", 65_536u64)
        .set("only", Value::Arr(vec![Value::Str("mcf".into())]));
    proto::write_frame(&mut raw, &req).unwrap();
    let resp = proto::read_frame(&mut raw, 1024 * 1024).unwrap();
    let (c, msg) = proto::error_of(&resp).expect("failure response");
    assert_eq!(c, code::BAD_REQUEST, "{msg}");
    assert!(msg.contains("scale 65536"), "{msg}");

    // The same connection still answers.
    proto::write_frame(&mut raw, &proto::request("ping")).unwrap();
    let resp = proto::read_frame(&mut raw, 1024 * 1024).unwrap();
    assert!(proto::error_of(&resp).is_none(), "{resp:?}");
    drop(raw);
    drain_and_join(&addr, h);
}

#[test]
fn server_fetched_artifacts_are_byte_identical_to_a_direct_run() {
    let exps = vec!["fig8a".to_string()];
    let only = vec!["libquantum".to_string()];
    let insts = 120_000u64;

    // Direct run: the harness code path, no server involved.
    let direct_dir = tmp_dir("identity-direct");
    let manifest = build_catalog_manifest(&exps, insts, 64, &only).unwrap();
    let jobs: Vec<JobSpec> = manifest
        .experiments
        .iter()
        .flat_map(|e| e.jobs.iter().cloned())
        .collect();
    let opts = ExecOptions {
        threads: 2,
        out_dir: &direct_dir,
        progress: false,
        trace_store: None,
    };
    let direct_reports = execute_jobs(&jobs, &opts, None).unwrap();
    render_experiment_outputs(&direct_dir, &manifest, &direct_reports, false).unwrap();

    // Served run: submit, stream, render via the shared code path.
    let served_dir = tmp_dir("identity-served");
    let mut cfg = config(&served_dir);
    cfg.threads = 2;
    let (addr, h) = start(cfg);
    let mut c = Client::connect(&addr).unwrap();
    let resp = c
        .request(
            &proto::request("submit_experiment")
                .set("exp", Value::Arr(vec![Value::Str("fig8a".into())]))
                .set("insts", insts)
                .set("scale", 64u64)
                .set("only", Value::Arr(vec![Value::Str("libquantum".into())])),
        )
        .unwrap();
    let ids: Vec<String> = resp
        .get("jobs")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|v| v.as_str().unwrap().to_string())
        .collect();
    assert_eq!(ids.len(), jobs.len());
    let served_reports = collect_stream(&mut c, &ids, |_, _| {}).unwrap();
    render_experiment_outputs(&served_dir, &manifest, &served_reports, false).unwrap();
    drain_and_join(&addr, h);

    // Reports and rendered artifacts: identical bytes.
    for (d, s) in direct_reports.iter().zip(&served_reports) {
        assert_eq!(d.render(), s.render());
    }
    for name in ["fig8a.txt", "fig8a.json"] {
        let direct = std::fs::read(direct_dir.join(name)).unwrap();
        let served = std::fs::read(served_dir.join(name)).unwrap();
        assert_eq!(direct, served, "{name} differs between direct and served");
    }
    let s = load_service(&served_dir.join(SERVE_JOURNAL_NAME)).unwrap();
    assert_eq!(s.admitted as usize, jobs.len());
    assert!(s.orphans.is_empty());
}

#[test]
fn status_list_and_streaming_report_job_lifecycles() {
    let dir = tmp_dir("status");
    let (addr, h) = start(config(&dir));
    let mut c = Client::connect(&addr).unwrap();

    // Unknown ids are structured NOT_FOUND everywhere.
    for req in [
        proto::request("status").set("job", "t9/nope"),
        proto::request("cancel").set("job", "t9/nope"),
        proto::request("stream").set("jobs", Value::Arr(vec![Value::Str("t9/nope".into())])),
    ] {
        let err = c.request(&req).unwrap_err();
        assert!(err.starts_with("not_found:"), "{err}");
    }
    // A bad job spec is BAD_REQUEST, not a panic.
    let err = c
        .request(&proto::request("submit_job").set("job", Value::obj().set("id", "x")))
        .unwrap_err();
    assert!(err.starts_with("bad_request:"), "{err}");

    let id = submit(&mut c, &spec("one", 60_000)).unwrap();
    let mut events = Vec::new();
    let reports = collect_stream(&mut c, std::slice::from_ref(&id), |job, state| {
        events.push((job.to_string(), state.to_string()));
    })
    .unwrap();
    assert_eq!(reports.len(), 1);
    assert!(
        reports[0].get_path("metrics/ipc_sum").is_some(),
        "a real run report came through the stream"
    );
    assert_eq!(
        events.last().unwrap(),
        &(id.clone(), "done".to_string()),
        "events: {events:?}"
    );

    let resp = c
        .request(&proto::request("status").set("job", id.as_str()))
        .unwrap();
    assert_eq!(resp.get("state").and_then(Value::as_str), Some("done"));
    let resp = c.request(&proto::request("list")).unwrap();
    let listed = resp.get("jobs").and_then(Value::as_arr).unwrap();
    assert_eq!(listed.len(), 1);
    assert_eq!(
        listed[0].get("job").and_then(Value::as_str),
        Some(id.as_str())
    );

    // Stats: queue depths, admission counters, per-kind latency.
    let stats = c.request(&proto::request("stats")).unwrap();
    assert_eq!(stats.get_path("jobs/done").and_then(Value::as_u64), Some(1));
    assert_eq!(stats.get("capacity").and_then(Value::as_u64), Some(8));
    assert!(
        stats
            .get_path("request_latency_us/submit_job/count")
            .and_then(Value::as_u64)
            .unwrap()
            >= 1
    );
    drain_and_join(&addr, h);
}

#[test]
fn idle_connections_are_closed_by_the_read_timeout() {
    let dir = tmp_dir("idle");
    let mut cfg = config(&dir);
    cfg.read_timeout = Duration::from_millis(200);
    let (addr, _h) = start(cfg);

    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    std::thread::sleep(Duration::from_millis(600));
    let mut buf = [0u8; 16];
    // The server hung up on the silent connection: clean EOF (or a
    // platform-dependent reset), never a hang.
    match raw.read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!("unexpected {n} bytes from an idle connection"),
        Err(_) => {} // connection reset also counts as closed
    }

    // Fresh connections still work.
    let mut c = Client::connect(&addr).unwrap();
    assert!(c.request(&proto::request("stats")).is_ok());
}

#[test]
fn resume_redrives_spec_carrying_orphans_and_fails_the_rest() {
    let dir = tmp_dir("resume");
    let path = dir.join(SERVE_JOURNAL_NAME);
    let redrive = spec("redrive", 60_000);
    // Craft the journal a crashed server leaves behind: a finished job, a
    // spec-carrying orphan, a spec-less orphan, and a torn final record
    // (killed mid-append).
    {
        let mut j = ServiceJournal::create(&path).unwrap();
        j.admit_with_spec("t1/finished", &spec("finished", 50_000).to_value())
            .unwrap();
        j.terminal("done", "t1/finished", None).unwrap();
        j.admit_with_spec("t2/redrive", &redrive.to_value())
            .unwrap();
        j.admit("t3/lost").unwrap();
    }
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    f.write_all(b"{\"event\":\"admit\",\"job\":\"t4/torn")
        .unwrap();
    drop(f);

    let mut cfg = config(&dir);
    cfg.resume_journal = true;
    let (addr, h) = start(cfg);
    let mut c = Client::connect(&addr).unwrap();

    // The spec-carrying orphan is re-driven to done with the exact bytes
    // an uninterrupted run produces — and no fresh admit line.
    let ids = vec!["t2/redrive".to_string()];
    let reports = collect_stream(&mut c, &ids, |_, _| {}).unwrap();
    let direct_dir = tmp_dir("resume-direct");
    let opts = ExecOptions {
        threads: 1,
        out_dir: &direct_dir,
        progress: false,
        trace_store: None,
    };
    let direct = execute_jobs(std::slice::from_ref(&redrive), &opts, None).unwrap();
    assert_eq!(reports.len(), 1);
    assert_eq!(
        direct[0].render(),
        reports[0].render(),
        "redrive bytes differ"
    );

    // The spec-less orphan and the torn admit are gone from the registry:
    // a client's status poll sees not_found and resubmits.
    for id in ["t3/lost", "t4/torn", "t1/finished"] {
        let err = c
            .request(&proto::request("status").set("job", id))
            .unwrap_err();
        assert!(err.starts_with("not_found:"), "{id}: {err}");
    }

    let stats = c.request(&proto::request("stats")).unwrap();
    assert_eq!(
        stats
            .get_path("admission/recovered")
            .and_then(Value::as_u64),
        Some(1)
    );

    // After drain the journal validates clean: the restart is recorded,
    // the recovered job is done, the spec-less orphan is failed, and the
    // torn record never happened.
    drain_and_join(&addr, h);
    let s = load_service(&path).unwrap();
    assert_eq!(s.restarts, 1);
    assert_eq!((s.admitted, s.done, s.failed), (3, 2, 1));
    assert!(s.orphans.is_empty(), "{:?}", s.orphans);
}
