//! `das` — command-line front end for the DAS-DRAM simulator.
//!
//! Run one experiment from the shell without writing Rust:
//!
//! ```console
//! das run --design das --bench mcf
//! das run --design fs --bench omnetpp --insts 1000000
//! das run --design das --mix M5 --threshold 4 --salp
//! das trace --design das path/to/trace.txt
//! das list
//! ```

use std::process::ExitCode;
use std::str::FromStr;

use das_core::replacement::ReplacementPolicy;
use das_harness::cli::need;
use das_harness::manifest::{JobSpec, Overrides, DEFAULT_INSTS, DEFAULT_SCALE, DEFAULT_SEED};
use das_sim::config::Design;
use das_sim::experiments::{improvement, run_one, run_recorded};
use das_sim::stats::RunMetrics;
use das_workloads::{mixes, spec, trace_file};

fn usage() -> String {
    format!(
        "\
das — Dynamic Asymmetric-Subarray DRAM simulator

USAGE:
    das run   --bench <name> | --mix <M1..M8>   [options]
    das trace <file.txt>                        [options]
    das list

OPTIONS:
    --design <{designs}>
                         design (default: das)
    --insts <N>          instructions per core (default: {DEFAULT_INSTS})
    --scale <N>          capacity scale factor (default: {DEFAULT_SCALE})
    --threshold <N>      promotion threshold (default: 1)
    --group <N>          migration group size in rows (default: 32)
    --ratio <1/N>        fast-level capacity ratio (default: 1/8)
    --tcache <KB>        full-scale translation cache KB (default: 128)
    --replacement <lru|random|seq|counter>               (default: lru)
    --salp               enable subarray-level parallelism
    --no-baseline        skip the Std-DRAM comparison run
    --seed <N>           workload seed (default: {DEFAULT_SEED})
",
        designs = design_list("|")
    )
}

/// Every design key, in declaration order, joined by `sep`.
fn design_list(sep: &str) -> String {
    Design::every().map(Design::key).join(sep)
}

/// The parsed command line: the run as a manifest job plus what only the
/// front end reads.
#[derive(Debug)]
struct Options {
    /// Design, budget, scale, seed and knob overrides. Its workload token
    /// stays empty; `das run` takes it from `--bench` or `--mix`.
    job: JobSpec,
    bench: Option<String>,
    mix: Option<String>,
    trace_path: Option<String>,
    baseline: bool,
}

impl Options {
    /// The workload token of `--bench` (a benchmark name only) or
    /// `--mix M` (`mix:M`).
    fn workload(&self) -> Result<String, String> {
        match (&self.bench, &self.mix) {
            (Some(b), None) if spec::names().contains(&b.as_str()) => Ok(b.clone()),
            (Some(b), None) => Err(format!("unknown benchmark {b:?} (see `das list`)")),
            (None, Some(m)) => Ok(format!("mix:{m}")),
            _ => Err("specify exactly one of --bench or --mix".into()),
        }
    }
}

/// Why a subcommand failed.
#[derive(Debug)]
enum Failure {
    /// The command line names no valid run; the usage text follows.
    Args(String),
    /// The run itself failed: an unreadable trace or a simulation error.
    Run(String),
}

/// The number following `flag`.
fn need_num<T: FromStr>(args: &mut dyn Iterator<Item = String>, flag: &str) -> Result<T, String> {
    let v = need(args, flag)?;
    v.parse()
        .map_err(|_| format!("{flag} needs a non-negative integer, got {v:?}"))
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        job: JobSpec {
            id: "das".into(),
            design: Design::DasDram.key().into(),
            workload: String::new(),
            insts: DEFAULT_INSTS,
            scale: DEFAULT_SCALE,
            seed: DEFAULT_SEED,
            ov: Overrides::default(),
        },
        bench: None,
        mix: None,
        trace_path: None,
        baseline: true,
    };
    let mut it = args.iter().cloned();
    while let Some(a) = it.next() {
        let it = &mut it;
        match a.as_str() {
            "--design" => {
                let v = need(it, "--design")?;
                Design::parse(&v).ok_or_else(|| format!("unknown design {v:?}"))?;
                o.job.design = v;
            }
            "--bench" => o.bench = Some(need(it, "--bench")?),
            "--mix" => o.mix = Some(need(it, "--mix")?),
            "--insts" => o.job.insts = need_num(it, "--insts")?,
            "--scale" => o.job.scale = need_num(it, "--scale")?,
            "--threshold" => o.job.ov.threshold = Some(need_num(it, "--threshold")?),
            "--group" => o.job.ov.group_size = Some(need_num(it, "--group")?),
            "--ratio" => {
                let v = need(it, "--ratio")?;
                let den = v
                    .strip_prefix("1/")
                    .and_then(|d| d.parse().ok())
                    .ok_or_else(|| format!("--ratio expects 1/N, got {v:?}"))?;
                o.job.ov.fast_ratio_den = Some(den);
            }
            "--tcache" => o.job.ov.tcache_bytes = Some(need_num::<u64>(it, "--tcache")? << 10),
            "--replacement" => {
                let v = need(it, "--replacement")?;
                ReplacementPolicy::parse(&v).ok_or_else(|| format!("unknown replacement {v:?}"))?;
                o.job.ov.replacement = Some(v);
            }
            "--salp" => o.job.ov.salp = Some(true),
            "--no-baseline" => o.baseline = false,
            "--seed" => o.job.seed = need_num(it, "--seed")?,
            other if o.trace_path.is_none() && !other.starts_with("--") => {
                o.trace_path = Some(a);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

fn print_metrics(m: &RunMetrics, base: Option<&RunMetrics>) {
    println!("design        : {}", m.design);
    println!("workload      : {}", m.workload);
    if m.cores.len() == 1 {
        println!("IPC           : {:.4}", m.ipc());
    } else {
        for (i, c) in m.cores.iter().enumerate() {
            println!("IPC core {i}    : {:.4}", c.ipc());
        }
    }
    if let Some(b) = base {
        println!(
            "improvement   : {:+.2}% vs {}",
            improvement(m, b) * 100.0,
            b.design
        );
    }
    let (rb, f, s) = m.access_mix.fractions();
    println!("MPKI          : {:.2}", m.mpki());
    println!(
        "access mix    : row-buffer {:.1}%, fast {:.1}%, slow {:.1}%",
        rb * 100.0,
        f * 100.0,
        s * 100.0
    );
    println!("promotions    : {} (PPKM {:.1})", m.promotions, m.ppkm());
    println!(
        "footprint     : {:.1} MB",
        m.footprint_bytes as f64 / (1 << 20) as f64
    );
    println!("DRAM energy   : {:.1} uJ", m.energy.total_nj() / 1000.0);
}

fn cmd_run(args: &[String]) -> Result<(), Failure> {
    let mut o = parse_args(args).map_err(Failure::Args)?;
    o.job.workload = o.workload().map_err(Failure::Args)?;
    let (cfg, design, wl) = o.job.materialize().map_err(Failure::Args)?;
    let base = if o.baseline && design != Design::Standard {
        let b = run_one(&cfg, Design::Standard, &wl);
        Some(b.map_err(|e| Failure::Run(format!("baseline run: {e}")))?)
    } else {
        None
    };
    let m = run_one(&cfg, design, &wl).map_err(|e| Failure::Run(format!("simulation: {e}")))?;
    print_metrics(&m, base.as_ref());
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), Failure> {
    let o = parse_args(args).map_err(Failure::Args)?;
    let path = o
        .trace_path
        .clone()
        .ok_or_else(|| Failure::Args("trace subcommand needs a file path".into()))?;
    let (mut cfg, design) = o.job.config().map_err(Failure::Args)?;
    let file = std::fs::File::open(&path).map_err(|e| Failure::Run(format!("{path}: {e}")))?;
    let items = trace_file::read_trace(std::io::BufReader::new(file))
        .map_err(|e| Failure::Run(format!("{path}: {e}")))?;
    println!("loaded {} references from {path}", items.len());
    cfg.inst_budget = u64::MAX;
    let baseline_items = (o.baseline && design != Design::Standard).then(|| items.clone());
    let m = run_recorded(&cfg, design, vec![items])
        .map_err(|e| Failure::Run(format!("simulation: {e}")))?;
    let base = baseline_items
        .map(|items| {
            run_recorded(&cfg, Design::Standard, vec![items])
                .map_err(|e| Failure::Run(format!("baseline run: {e}")))
        })
        .transpose()?;
    print_metrics(&m, base.as_ref());
    Ok(())
}

fn cmd_list() {
    println!("designs    : {}", design_list(", "));
    println!("benchmarks : {}", spec::names().join(", "));
    println!("mixes      : {}", mixes::names().join(", "));
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("list") => {
            cmd_list();
            Ok(())
        }
        Some("--help" | "-h" | "help") | None => {
            print!("{}", usage());
            Ok(())
        }
        Some(other) => Err(Failure::Args(format!("unknown subcommand {other:?}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Args(e)) => {
            eprintln!("error: {e}");
            eprint!("{}", usage());
            ExitCode::FAILURE
        }
        Err(Failure::Run(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_dram::geometry::FastRatio;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn designs_parse() {
        let parsed = |key: &str| {
            parse_args(&args(&["--design", key]))
                .and_then(|o| o.job.config())
                .map(|(_, design)| design)
        };
        for d in Design::every() {
            assert_eq!(parsed(d.key()), Ok(d));
        }
        assert_eq!(parsed("das_fm"), Ok(Design::DasDramFm));
        assert_eq!(parsed("das_incl"), Ok(Design::DasInclusive));
        assert!(parsed("das-fm").is_err(), "manifest spelling only");
        assert!(parsed("bogus").is_err());
        assert!(usage().contains(&design_list("|")));
    }

    #[test]
    fn run_args_parse_into_config() {
        let o = parse_args(&args(&[
            "--design",
            "das_fm",
            "--bench",
            "mcf",
            "--insts",
            "500000",
            "--threshold",
            "4",
            "--ratio",
            "1/16",
            "--tcache",
            "64",
            "--replacement",
            "random",
            "--salp",
        ]))
        .unwrap();
        assert_eq!(o.job.design, "das_fm");
        assert_eq!(o.bench.as_deref(), Some("mcf"));
        assert_eq!(o.job.insts, 500_000);
        assert_eq!(o.job.ov.threshold, Some(4));
        assert_eq!(o.job.ov.fast_ratio_den, Some(16));
        assert_eq!(o.job.ov.tcache_bytes, Some(64 << 10));
        assert_eq!(o.job.ov.replacement.as_deref(), Some("random"));
        assert_eq!(o.job.ov.salp, Some(true));
        let (cfg, design) = o.job.config().unwrap();
        assert_eq!(design, Design::DasDramFm);
        assert_eq!(cfg.management.promotion_threshold, 4);
        assert_eq!(cfg.management.fast_ratio, FastRatio::new(1, 16));
        assert_eq!(cfg.management.tcache_bytes, 64 << 10);
        assert_eq!(cfg.management.replacement, ReplacementPolicy::Random);
        assert!(cfg.salp);
    }

    #[test]
    fn bad_args_are_rejected() {
        assert!(parse_args(&args(&["--design", "nope"])).is_err());
        assert!(parse_args(&args(&["--ratio", "2/8"])).is_err());
        assert!(parse_args(&args(&["--mystery"])).is_err());
        assert!(parse_args(&args(&["--insts"])).is_err());
    }

    #[test]
    fn zero_or_malformed_insts_is_an_argument_error() {
        let zero = cmd_run(&args(&["--bench", "mcf", "--insts", "0", "--no-baseline"]));
        assert!(
            matches!(&zero, Err(Failure::Args(e)) if e.contains("insts 0")),
            "{zero:?}"
        );
        let err = parse_args(&args(&["--insts", "abc"])).unwrap_err();
        assert_eq!(err, r#"--insts needs a non-negative integer, got "abc""#);
        let err = parse_args(&args(&["--seed", "-1"])).unwrap_err();
        assert!(err.starts_with("--seed "), "{err}");
    }

    #[test]
    fn out_of_range_geometry_is_an_error() {
        for (flag, value) in [
            ("--scale", "65536"),
            ("--scale", "4096"),
            ("--group", "3"),
            ("--group", "512"),
            ("--ratio", "1/0"),
            ("--ratio", "1/3"),
            ("--threshold", "0"),
        ] {
            let o = parse_args(&args(&[flag, value])).unwrap();
            assert!(o.job.config().is_err(), "{flag} {value}");
        }
    }

    #[test]
    fn workload_selection_requires_exactly_one() {
        let workloads = |a: &[&str]| {
            let mut o = parse_args(&args(a)).unwrap();
            o.job.workload = o.workload()?;
            o.job.materialize().map(|(_, _, wl)| wl.len())
        };
        assert_eq!(workloads(&["--bench", "mcf"]), Ok(1));
        assert_eq!(workloads(&["--mix", "M3"]), Ok(4));
        assert!(workloads(&[]).is_err());
        assert!(workloads(&["--bench", "mcf", "--mix", "M3"]).is_err());
        assert!(workloads(&["--bench", "gcc"]).is_err());
        // `--bench` names a benchmark, never a manifest token.
        assert!(workloads(&["--bench", "mix:M3"]).is_err());
        assert!(workloads(&["--bench", "shared:ring"]).is_err());
        assert!(workloads(&["--mix", "M9"]).is_err());
    }

    #[test]
    fn trace_path_is_positional() {
        let o = parse_args(&args(&["some/file.txt", "--design", "das"])).unwrap();
        assert_eq!(o.trace_path.as_deref(), Some("some/file.txt"));
    }

    #[test]
    fn run_simulates_a_benchmark() {
        cmd_run(&args(&[
            "--bench",
            "libquantum",
            "--insts",
            "50000",
            "--no-baseline",
        ]))
        .unwrap();
    }

    #[test]
    fn trace_beyond_the_designs_usable_rows_is_an_error() {
        // Line 2 sits in row 15000: below Std-DRAM's 16382 usable rows at
        // the default scale, above the 14334 that an inclusive fast level
        // leaves visible.
        let path = std::env::temp_dir().join(format!("das_oversized_{}.txt", std::process::id()));
        std::fs::write(&path, "0 0x1000 R\n3 0x7530000 R\n").unwrap();
        let run = |design| {
            cmd_trace(&args(&[
                path.to_str().unwrap(),
                "--design",
                design,
                "--no-baseline",
            ]))
        };
        let (std, incl) = (run("std"), run("das_incl"));
        std::fs::remove_file(&path).unwrap();
        std.unwrap();
        let Err(Failure::Run(err)) = incl else {
            panic!("expected a run failure: {incl:?}");
        };
        assert!(
            err.contains("footprint (15001 rows) exceeds its share of memory (14334 rows)"),
            "{err}"
        );
    }

    #[test]
    fn truncated_trace_file_is_rejected() {
        // The final record lost its ` dep` tail and its newline mid-write.
        // What is left parses as an independent load, so only the missing
        // newline shows the damage.
        let path = std::env::temp_dir().join(format!("das_truncated_{}.txt", std::process::id()));
        std::fs::write(&path, "0 0x1000 R\n3 0x10ff00 R").unwrap();
        let res = cmd_trace(&args(&[path.to_str().unwrap(), "--design", "das"]));
        std::fs::remove_file(&path).unwrap();
        let Err(Failure::Run(err)) = res else {
            panic!("expected a run failure: {res:?}");
        };
        assert!(
            err.contains("trace line 2: truncated final record"),
            "{err}"
        );
    }
}
