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

use das_core::replacement::ReplacementPolicy;
use das_dram::geometry::FastRatio;
use das_sim::config::{Design, SystemConfig};
use das_sim::experiments::{improvement, run_one, run_recorded};
use das_sim::stats::RunMetrics;
use das_workloads::config::WorkloadConfig;
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
    --insts <N>          instructions per core (default: 3000000)
    --scale <N>          capacity scale factor (default: 64)
    --threshold <N>      promotion threshold (default: 1)
    --group <N>          migration group size in rows (default: 32)
    --ratio <1/N>        fast-level capacity ratio (default: 1/8)
    --tcache <KB>        full-scale translation cache KB (default: 128)
    --replacement <lru|random|seq|counter>               (default: lru)
    --salp               enable subarray-level parallelism
    --no-baseline        skip the Std-DRAM comparison run
    --seed <N>           workload seed (default: 42)
",
        designs = design_list("|")
    )
}

/// Every design key, in declaration order, joined by `sep`.
fn design_list(sep: &str) -> String {
    Design::every().map(Design::key).join(sep)
}

struct Options {
    design: Design,
    bench: Option<String>,
    mix: Option<String>,
    trace_path: Option<String>,
    insts: u64,
    scale: u32,
    threshold: u32,
    group: u32,
    ratio_den: u32,
    tcache_kb: u64,
    replacement: ReplacementPolicy,
    salp: bool,
    baseline: bool,
    seed: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            design: Design::DasDram,
            bench: None,
            mix: None,
            trace_path: None,
            insts: 3_000_000,
            scale: 64,
            threshold: 1,
            group: 32,
            ratio_den: 8,
            tcache_kb: 128,
            replacement: ReplacementPolicy::Lru,
            salp: false,
            baseline: true,
            seed: 42,
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--design" => {
                let v = next("--design")?;
                o.design = Design::parse(&v).ok_or_else(|| format!("unknown design {v:?}"))?;
            }
            "--bench" => o.bench = Some(next("--bench")?),
            "--mix" => o.mix = Some(next("--mix")?),
            "--insts" => o.insts = next("--insts")?.parse().map_err(|e| format!("{e}"))?,
            "--scale" => o.scale = next("--scale")?.parse().map_err(|e| format!("{e}"))?,
            "--threshold" => {
                o.threshold = next("--threshold")?.parse().map_err(|e| format!("{e}"))?
            }
            "--group" => o.group = next("--group")?.parse().map_err(|e| format!("{e}"))?,
            "--ratio" => {
                let v = next("--ratio")?;
                let den = v
                    .strip_prefix("1/")
                    .and_then(|d| d.parse().ok())
                    .ok_or_else(|| format!("--ratio expects 1/N, got {v:?}"))?;
                o.ratio_den = den;
            }
            "--tcache" => o.tcache_kb = next("--tcache")?.parse().map_err(|e| format!("{e}"))?,
            "--replacement" => {
                let v = next("--replacement")?;
                o.replacement = ReplacementPolicy::parse(&v)
                    .ok_or_else(|| format!("unknown replacement {v:?}"))?;
            }
            "--salp" => o.salp = true,
            "--no-baseline" => o.baseline = false,
            "--seed" => o.seed = next("--seed")?.parse().map_err(|e| format!("{e}"))?,
            other if o.trace_path.is_none() && !other.starts_with("--") => {
                o.trace_path = Some(other.to_string());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

fn build_config(o: &Options) -> Result<SystemConfig, String> {
    SystemConfig::check_geometry(o.design, o.scale, o.group, o.ratio_den)?;
    let mut cfg = SystemConfig::scaled_by(o.scale, o.insts)
        .with_threshold(o.threshold)
        .with_group_size(o.group)
        .with_fast_ratio(FastRatio::new(1, o.ratio_den))
        .with_tcache_bytes(o.tcache_kb << 10)
        .with_replacement(o.replacement);
    cfg.salp = o.salp;
    cfg.seed = o.seed;
    Ok(cfg)
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

fn workloads_for(o: &Options) -> Result<Vec<WorkloadConfig>, String> {
    match (&o.bench, &o.mix) {
        (Some(b), None) => {
            if !spec::names().contains(&b.as_str()) {
                return Err(format!("unknown benchmark {b:?} (see `das list`)"));
            }
            Ok(vec![spec::by_name(b)])
        }
        (None, Some(m)) => {
            if !mixes::names().contains(&m.as_str()) {
                return Err(format!("unknown mix {m:?} (see `das list`)"));
            }
            Ok(mixes::mix(m).iter().map(|w| w.scaled(2)).collect())
        }
        _ => Err("specify exactly one of --bench or --mix".into()),
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let o = parse_args(args)?;
    let cfg = build_config(&o)?;
    let wl = workloads_for(&o)?;
    let base = if o.baseline && o.design != Design::Standard {
        Some(run_one(&cfg, Design::Standard, &wl).map_err(|e| format!("baseline run: {e}"))?)
    } else {
        None
    };
    let m = run_one(&cfg, o.design, &wl).map_err(|e| format!("simulation: {e}"))?;
    print_metrics(&m, base.as_ref());
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let o = parse_args(args)?;
    let path = o
        .trace_path
        .clone()
        .ok_or("trace subcommand needs a file path")?;
    let file = std::fs::File::open(&path).map_err(|e| format!("{path}: {e}"))?;
    let items = trace_file::read_trace(std::io::BufReader::new(file))
        .map_err(|e| format!("{path}: {e}"))?;
    println!("loaded {} references from {path}", items.len());
    let mut cfg = build_config(&o)?;
    cfg.inst_budget = u64::MAX;
    let base = if o.baseline && o.design != Design::Standard {
        Some(
            run_recorded(&cfg, Design::Standard, vec![items.clone()])
                .map_err(|e| format!("baseline run: {e}"))?,
        )
    } else {
        None
    };
    let m = run_recorded(&cfg, o.design, vec![items]).map_err(|e| format!("simulation: {e}"))?;
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
        Some(other) => Err(format!("unknown subcommand {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn designs_parse() {
        let parsed = |key: &str| parse_args(&args(&["--design", key])).map(|o| o.design);
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
        assert_eq!(o.design, Design::DasDramFm);
        assert_eq!(o.bench.as_deref(), Some("mcf"));
        assert_eq!(o.insts, 500_000);
        assert_eq!(o.threshold, 4);
        assert_eq!(o.ratio_den, 16);
        assert_eq!(o.tcache_kb, 64);
        assert_eq!(o.replacement, ReplacementPolicy::Random);
        assert!(o.salp);
        let cfg = build_config(&o).unwrap();
        assert_eq!(cfg.management.promotion_threshold, 4);
        assert_eq!(cfg.management.fast_ratio, FastRatio::new(1, 16));
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
    fn out_of_range_geometry_is_an_error() {
        for (flag, value) in [
            ("--scale", "65536"),
            ("--scale", "4096"),
            ("--group", "3"),
            ("--group", "512"),
            ("--ratio", "1/0"),
            ("--ratio", "1/3"),
        ] {
            let o = parse_args(&args(&[flag, value])).unwrap();
            assert!(build_config(&o).is_err(), "{flag} {value}");
        }
    }

    #[test]
    fn workload_selection_requires_exactly_one() {
        let o = parse_args(&args(&["--bench", "mcf"])).unwrap();
        assert_eq!(workloads_for(&o).unwrap().len(), 1);
        let o = parse_args(&args(&["--mix", "M3"])).unwrap();
        assert_eq!(workloads_for(&o).unwrap().len(), 4);
        let o = parse_args(&args(&[])).unwrap();
        assert!(workloads_for(&o).is_err());
        let o = parse_args(&args(&["--bench", "gcc"])).unwrap();
        assert!(workloads_for(&o).is_err());
    }

    #[test]
    fn trace_path_is_positional() {
        let o = parse_args(&args(&["some/file.txt", "--design", "das"])).unwrap();
        assert_eq!(o.trace_path.as_deref(), Some("some/file.txt"));
    }

    #[test]
    fn truncated_trace_file_is_rejected() {
        // The final record lost its ` dep` tail and its newline mid-write.
        // What is left parses as an independent load, so only the missing
        // newline shows the damage.
        let path = std::env::temp_dir().join(format!("das_truncated_{}.txt", std::process::id()));
        std::fs::write(&path, "0 0x1000 R\n3 0x10ff00 R").unwrap();
        let err = cmd_trace(&args(&[path.to_str().unwrap(), "--design", "das"])).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(
            err.contains("trace line 2: truncated final record"),
            "{err}"
        );
    }
}
