//! Served-vs-direct identity: a report fetched through `das-serve` must
//! render byte for byte like the harness runner's report for the same
//! spec, and a drained server must leave no orphaned job in its journal.
//!
//! The job is built by the harness catalog with the same flags as
//! `harness --exp cross_arch_rank --insts 60000 --only libquantum`, then
//! submitted to an in-process server over loopback and streamed back.

use std::time::Duration;

use das_harness::catalog::{by_id, BuildParams};
use das_harness::journal::load_service;
use das_harness::profile::ProfileCache;
use das_harness::runner;
use das_serve::client::{collect_stream, Client};
use das_serve::proto;
use das_serve::server::{Server, ServerConfig, SERVE_JOURNAL_NAME};

const JOB: &str = "cross_arch_rank/libquantum/das";

#[test]
fn served_report_is_byte_identical_to_a_direct_run() {
    let mut params = BuildParams::new(60_000, 64);
    params.only = vec!["libquantum".to_string()];
    let jobs = (by_id("cross_arch_rank").expect("catalog experiment").build)(&params);
    let job = jobs.iter().find(|j| j.id == JOB).expect("catalog job");

    let dir = std::env::temp_dir().join(format!("das-serve-lock-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServerConfig {
        threads: 1,
        out_dir: dir.clone(),
        read_timeout: Duration::from_secs(60),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run());

    let mut client = Client::connect(&addr).unwrap();
    let resp = client
        .request(&proto::request("submit_job").set("job", job.to_value()))
        .unwrap();
    let id = resp
        .get("job")
        .and_then(|v| v.as_str())
        .unwrap()
        .to_string();
    let served = collect_stream(&mut client, &[id], |_, _| {}).unwrap();

    let direct = runner::execute(job, &ProfileCache::new(), &dir, None).unwrap();
    assert_eq!(served.len(), 1);
    assert_eq!(served[0].render(), direct.render());

    client.set_read_timeout(None).unwrap();
    client
        .request(&proto::request("drain").set("wait", true))
        .unwrap();
    handle.join().unwrap().unwrap();
    let journal = load_service(&dir.join(SERVE_JOURNAL_NAME)).unwrap();
    assert_eq!((journal.admitted, journal.done), (1, 1));
    assert!(journal.orphans.is_empty(), "{:?}", journal.orphans);
    let _ = std::fs::remove_dir_all(&dir);
}
