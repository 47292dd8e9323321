//! The `das-serve` server binary.
//!
//! Binds, prints `listening on <addr>` (port 0 supported — scripts parse
//! this line), and serves until a `drain` request completes, then exits
//! 0. `--validate-journal` checks a service journal for orphaned jobs
//! instead of serving. Malformed arguments exit 2; runtime failures
//! exit 1.

use std::path::PathBuf;
use std::time::Duration;

use das_harness::cli::{need, need_u64};
use das_harness::journal::load_service;
use das_serve::server::{Server, ServerConfig};

const USAGE: &str = "usage: das-serve [--addr HOST:PORT] [--threads N] [--capacity N] \
     [--json-dir DIR] [--trace-store DIR] [--read-timeout-ms N] [--resume-journal]\n\
       das-serve --validate-journal PATH";

#[derive(Debug, PartialEq)]
struct Args {
    addr: String,
    cfg: ServerConfig,
    validate_journal: Option<String>,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            addr: "127.0.0.1:4750".to_string(),
            cfg: ServerConfig::default(),
            validate_journal: None,
        }
    }
}

fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let mut out = Args::default();
    let cfg = &mut out.cfg;
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => out.addr = need(&mut args, "--addr")?,
            "--threads" => cfg.threads = need_u64(&mut args, "--threads")? as usize,
            "--capacity" => cfg.capacity = need_u64(&mut args, "--capacity")? as usize,
            "--json-dir" => cfg.out_dir = PathBuf::from(need(&mut args, "--json-dir")?),
            "--trace-store" => {
                cfg.trace_store_dir = Some(PathBuf::from(need(&mut args, "--trace-store")?));
            }
            "--read-timeout-ms" => {
                cfg.read_timeout = Duration::from_millis(need_u64(&mut args, "--read-timeout-ms")?);
            }
            "--resume-journal" => cfg.resume_journal = true,
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
                        s.orphans
                            .iter()
                            .map(|(id, _)| id.as_str())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ));
                }
                return;
            }
            Err(e) => die(&format!("{path}: invalid service journal: {e}")),
        }
    }
    let server = Server::bind(&args.addr, args.cfg).unwrap_or_else(|e| die(&e));
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
        ]))
        .unwrap();
        assert_eq!(a.addr, "0.0.0.0:0");
        assert_eq!((a.cfg.threads, a.cfg.capacity), (4, 8));
        assert_eq!(a.cfg.out_dir, PathBuf::from("out"));
        assert_eq!(a.cfg.trace_store_dir, Some(PathBuf::from("ts")));
        assert_eq!(a.cfg.read_timeout, Duration::from_millis(500));
        assert_eq!(parse_args(argv(&[])).unwrap(), Args::default());
    }

    #[test]
    fn rejects_each_malformed_flag() {
        for (args, needle) in [
            (vec!["--threads", "zero"], "--threads"),
            (vec!["--threads", "0"], "positive"),
            (vec!["--capacity"], "needs a value"),
            (vec!["--addr"], "--addr needs a value"),
            (vec!["--read-timeout-ms", "-1"], "--read-timeout-ms"),
            (vec!["--max-frame", "1"], "unknown argument"),
            (vec!["--retry-after-ms", "1"], "unknown argument"),
            (vec!["--validate-journal"], "needs a value"),
            (vec!["--wat"], "unknown argument"),
        ] {
            let err = parse_args(argv(&args)).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }
}
