//! The `das-serve` server binary.
//!
//! Binds, prints `listening on <addr>` (port 0 supported — scripts parse
//! this line), and serves until a `drain` request completes, then exits
//! 0. `--validate-journal` checks a service journal for orphaned jobs
//! instead of serving. Malformed arguments exit 2; runtime failures
//! exit 1.

use std::path::PathBuf;
use std::time::Duration;

use das_harness::journal::load_service;
use das_serve::proto::DEFAULT_MAX_FRAME;
use das_serve::server::{Server, ServerConfig};

const USAGE: &str = "usage: das-serve [--addr HOST:PORT] [--threads N] [--capacity N] \
     [--json-dir DIR] [--trace-store DIR] [--read-timeout-ms N] \
     [--max-frame BYTES] [--retry-after-ms N] [--resume-journal]\n\
       das-serve --validate-journal PATH";

#[derive(Debug, PartialEq, Eq)]
struct Args {
    addr: String,
    threads: usize,
    capacity: usize,
    json_dir: String,
    trace_store_dir: Option<String>,
    read_timeout_ms: u64,
    max_frame: usize,
    retry_after_ms: u64,
    resume_journal: bool,
    validate_journal: Option<String>,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            addr: "127.0.0.1:4750".to_string(),
            threads: 2,
            capacity: 16,
            json_dir: ".".to_string(),
            trace_store_dir: None,
            read_timeout_ms: 30_000,
            max_frame: DEFAULT_MAX_FRAME,
            retry_after_ms: 250,
            resume_journal: false,
            validate_journal: None,
        }
    }
}

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

fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let mut out = Args::default();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => out.addr = need(&mut args, "--addr")?,
            "--threads" => out.threads = need_u64(&mut args, "--threads")? as usize,
            "--capacity" => out.capacity = need_u64(&mut args, "--capacity")? as usize,
            "--json-dir" => out.json_dir = need(&mut args, "--json-dir")?,
            "--trace-store" => out.trace_store_dir = Some(need(&mut args, "--trace-store")?),
            "--read-timeout-ms" => {
                out.read_timeout_ms = need_u64(&mut args, "--read-timeout-ms")?;
            }
            "--max-frame" => out.max_frame = need_u64(&mut args, "--max-frame")? as usize,
            "--retry-after-ms" => out.retry_after_ms = need_u64(&mut args, "--retry-after-ms")?,
            "--resume-journal" => out.resume_journal = true,
            "--validate-journal" => {
                out.validate_journal = Some(need(&mut args, "--validate-journal")?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Some(path) = &args.validate_journal {
        match load_service(std::path::Path::new(path)) {
            Ok(s) => {
                println!(
                    "{path}: {} admitted, {} done, {} failed, {} cancelled, {} orphans",
                    s.admitted,
                    s.done,
                    s.failed,
                    s.cancelled,
                    s.orphans.len()
                );
                if !s.orphans.is_empty() {
                    die(&format!(
                        "{path}: orphaned jobs (server exited without draining): {}",
                        s.orphans.join(", ")
                    ));
                }
                return;
            }
            Err(e) => die(&format!("{path}: invalid service journal: {e}")),
        }
    }
    let cfg = ServerConfig {
        threads: args.threads,
        capacity: args.capacity,
        out_dir: PathBuf::from(&args.json_dir),
        trace_store_dir: args.trace_store_dir.map(PathBuf::from),
        read_timeout: Duration::from_millis(args.read_timeout_ms),
        max_frame: args.max_frame,
        retry_after_ms: args.retry_after_ms,
        resume_journal: args.resume_journal,
    };
    let server = Server::bind(&args.addr, cfg).unwrap_or_else(|e| die(&e));
    let addr = server
        .local_addr()
        .unwrap_or_else(|e| die(&format!("cannot read bound address: {e}")));
    println!("listening on {addr}");
    server.run().unwrap_or_else(|e| die(&e));
    println!("drained, exiting");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_full_flag_set() {
        let a = parse_args(argv(&[
            "--addr",
            "0.0.0.0:0",
            "--threads",
            "4",
            "--capacity",
            "8",
            "--json-dir",
            "out",
            "--trace-store",
            "ts",
            "--read-timeout-ms",
            "500",
            "--max-frame",
            "1024",
            "--retry-after-ms",
            "100",
        ]))
        .unwrap();
        assert_eq!(a.addr, "0.0.0.0:0");
        assert_eq!((a.threads, a.capacity), (4, 8));
        assert_eq!(a.json_dir, "out");
        assert_eq!(a.trace_store_dir.as_deref(), Some("ts"));
        assert_eq!(a.read_timeout_ms, 500);
        assert_eq!(a.max_frame, 1024);
        assert_eq!(a.retry_after_ms, 100);
        assert_eq!(parse_args(argv(&[])).unwrap(), Args::default());
    }

    #[test]
    fn rejects_each_malformed_flag() {
        for (args, needle) in [
            (vec!["--threads", "zero"], "--threads"),
            (vec!["--threads", "0"], "positive"),
            (vec!["--capacity"], "needs a value"),
            (vec!["--addr"], "--addr needs a value"),
            (vec!["--max-frame", "-1"], "--max-frame"),
            (vec!["--validate-journal"], "needs a value"),
            (vec!["--wat"], "unknown argument"),
        ] {
            let err = parse_args(argv(&args)).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }
}
