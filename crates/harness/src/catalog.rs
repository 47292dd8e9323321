//! The experiment catalog: every figure, table and ablation of the paper
//! as a pair of pure functions — `build` (parameters → [`JobSpec`] list)
//! and `render` (journalled reports → the exact text `harness --exp <id>`
//! writes to `<id>.txt`).
//!
//! `build` encodes the run matrix; `render` never simulates. Job order
//! within each experiment mirrors the original binary's execution order,
//! so the `{"runs":[...]}` compatibility export keeps its historical
//! content order (the only deliberate difference: runs the old binaries
//! executed twice — `power`'s breakdown loop, `ablation_salp`'s baseline —
//! are journalled once and re-used, which deterministic simulation makes
//! an identical-output transformation).

use std::fmt::Write as _;

use das_dram::geometry::Arrangement;
use das_dram::tick::Tick;
use das_dram::timing::TimingSet;
use das_sim::config::{Design, SystemConfig};
use das_sim::stats::gmean_improvement;
use das_workloads::{mixes, spec};

use crate::manifest::{JobSpec, Overrides};
use crate::render::{access_mix_line, improvement_table, pct, RenderCtx};
use crate::report::ReportView;

/// Parameters the run matrix is built from.
#[derive(Debug, Clone)]
pub struct BuildParams {
    /// Per-core instruction budget (single-programming experiments).
    pub insts: u64,
    /// Capacity scale factor.
    pub scale: u32,
    /// Restrict to a subset of benchmarks/mixes (empty = all).
    pub only: Vec<String>,
}

/// File name (relative to the output directory) of the telemetry
/// experiment's Chrome trace export.
const TELEMETRY_TRACE: &str = "telemetry_trace.json";

impl BuildParams {
    /// The defaults every catalog experiment is built with.
    pub fn new(insts: u64, scale: u32) -> BuildParams {
        BuildParams {
            insts,
            scale,
            only: Vec::new(),
        }
    }
}

/// One catalog entry.
pub struct Experiment {
    /// Stable identifier (also the legacy binary name).
    pub id: &'static str,
    /// Builds the experiment's jobs in execution order.
    pub build: fn(&BuildParams) -> Vec<JobSpec>,
    /// Renders the experiment's text output from journalled reports.
    pub render: fn(&RenderCtx) -> String,
}

/// Every experiment, in `regenerate.sh` presentation order.
pub const ALL: &[Experiment] = &[
    Experiment {
        id: "table1",
        build: build_none,
        render: render_table1,
    },
    Experiment {
        id: "table2",
        build: build_none,
        render: render_table2,
    },
    Experiment {
        id: "fig7a",
        build: build_fig7a,
        render: render_fig7a,
    },
    Experiment {
        id: "fig7b",
        build: build_fig7b,
        render: render_fig7b,
    },
    Experiment {
        id: "fig7c",
        build: build_fig7c,
        render: render_fig7c,
    },
    Experiment {
        id: "fig7d",
        build: build_fig7d,
        render: render_fig7d,
    },
    Experiment {
        id: "fig7e",
        build: build_fig7e,
        render: render_fig7e,
    },
    Experiment {
        id: "fig7f",
        build: build_fig7f,
        render: render_fig7f,
    },
    Experiment {
        id: "fig8a",
        build: build_fig8a,
        render: render_fig8a,
    },
    Experiment {
        id: "fig8b",
        build: build_fig8b,
        render: render_fig8b,
    },
    Experiment {
        id: "fig8c",
        build: build_fig8c,
        render: render_fig8c,
    },
    Experiment {
        id: "fig9a",
        build: build_fig9a,
        render: render_fig9a,
    },
    Experiment {
        id: "fig9b",
        build: build_fig9b,
        render: render_fig9b,
    },
    Experiment {
        id: "fig9c",
        build: build_fig9c,
        render: render_fig9c,
    },
    Experiment {
        id: "fig9d",
        build: build_fig9d,
        render: render_fig9d,
    },
    Experiment {
        id: "power",
        build: build_power,
        render: render_power,
    },
    Experiment {
        id: "powerdown",
        build: build_powerdown,
        render: render_powerdown,
    },
    Experiment {
        id: "ablation_migration",
        build: build_ablation_migration,
        render: render_ablation_migration,
    },
    Experiment {
        id: "ablation_scheduler",
        build: build_ablation_scheduler,
        render: render_ablation_scheduler,
    },
    Experiment {
        id: "ablation_arrangement",
        build: build_ablation_arrangement,
        render: render_ablation_arrangement,
    },
    Experiment {
        id: "ablation_inclusive",
        build: build_ablation_inclusive,
        render: render_ablation_inclusive,
    },
    Experiment {
        id: "ablation_tldram",
        build: build_ablation_tldram,
        render: render_ablation_tldram,
    },
    Experiment {
        id: "ablation_salp",
        build: build_ablation_salp,
        render: render_ablation_salp,
    },
    Experiment {
        id: "ablation_pagepolicy",
        build: build_ablation_pagepolicy,
        render: render_ablation_pagepolicy,
    },
    Experiment {
        id: "fault_sweep",
        build: build_fault_sweep,
        render: render_fault_sweep,
    },
    Experiment {
        id: "telemetry",
        build: build_telemetry,
        render: render_telemetry,
    },
    Experiment {
        id: "cross_arch_rank",
        build: build_cross_arch_rank,
        render: render_cross_arch_rank,
    },
    Experiment {
        id: "cross_arch_mix",
        build: build_cross_arch_mix,
        render: render_cross_arch_mix,
    },
    Experiment {
        id: "cross_arch_sweep",
        build: build_cross_arch_sweep,
        render: render_cross_arch_sweep,
    },
    Experiment {
        id: "cross_arch_copy",
        build: build_cross_arch_copy,
        render: render_cross_arch_copy,
    },
    Experiment {
        id: "cross_arch_salp",
        build: build_cross_arch_salp,
        render: render_cross_arch_salp,
    },
    Experiment {
        id: "cross_arch_area",
        build: build_cross_arch_area,
        render: render_cross_arch_area,
    },
    Experiment {
        id: "coherent_rank",
        build: build_coherent_rank,
        render: render_coherent_rank,
    },
    Experiment {
        id: "coherent_protocol",
        build: build_coherent_protocol,
        render: render_coherent_protocol,
    },
    Experiment {
        id: "coherent_sharing",
        build: build_coherent_sharing,
        render: render_coherent_sharing,
    },
    Experiment {
        id: "policy_search_rank",
        build: build_policy_search_rank,
        render: render_policy_search_rank,
    },
    Experiment {
        id: "policy_search_size",
        build: build_policy_search_size,
        render: render_policy_search_size,
    },
    Experiment {
        id: "policy_search_adapt",
        build: build_policy_search_adapt,
        render: render_policy_search_adapt,
    },
];

/// Looks an experiment up by id.
pub fn by_id(id: &str) -> Option<&'static Experiment> {
    ALL.iter().find(|e| e.id == id)
}

/// Every experiment id, in presentation order (what `harness --all` runs
/// and the `das-serve` catalog listing reports).
pub fn ids() -> Vec<&'static str> {
    ALL.iter().map(|e| e.id).collect()
}

/// Experiment-family prefixes, for grouped listings (`dasctl list`) and
/// the `--exp` unknown-id diagnostics. `power` deliberately covers
/// `powerdown` too.
pub const FAMILIES: [&str; 9] = [
    "table",
    "fig7",
    "fig8",
    "fig9",
    "power",
    "ablation",
    "cross_arch",
    "coherent",
    "policy_search",
];

/// The family an experiment id belongs to: the longest matching prefix
/// from [`FAMILIES`], or the id itself for one-off experiments
/// (`fault_sweep`, `telemetry`).
pub fn family_of(id: &str) -> &str {
    FAMILIES
        .iter()
        .find(|f| id.starts_with(*f))
        .copied()
        .unwrap_or(id)
}

// ---------------------------------------------------------------------------
// Shared building blocks
// ---------------------------------------------------------------------------

/// The Fig. 7 non-baseline design keys, paper order.
const FIG7_KEYS: [&str; 5] = ["sas", "charm", "das", "das_fm", "fs"];
/// Promotion-filter thresholds of Fig. 8.
const THRESHOLDS: [u32; 4] = [8, 4, 2, 1];
/// Fault-sweep rates and their id segments.
const FAULT_RATES: [(f64, &str); 4] = [
    (0.0, "r0"),
    (0.001, "r0.001"),
    (0.01, "r0.01"),
    (0.05, "r0.05"),
];
/// Telemetry epoch length in CPU cycles (the legacy binary's constant).
const EPOCH_CYCLES: u64 = 100_000;

fn filter(only: &[String], names: Vec<&'static str>) -> Vec<&'static str> {
    if only.is_empty() {
        names
    } else {
        names
            .into_iter()
            .filter(|n| only.iter().any(|o| o == n))
            .collect()
    }
}

fn singles(p: &BuildParams) -> Vec<&'static str> {
    filter(&p.only, spec::names())
}

fn mix_list(p: &BuildParams) -> Vec<&'static str> {
    filter(&p.only, mixes::names())
}

fn multi_insts(p: &BuildParams) -> u64 {
    (p.insts / 2).max(1)
}

fn job(p: &BuildParams, id: String, design: &str, workload: &str, ov: Overrides) -> JobSpec {
    JobSpec {
        id,
        design: design.to_string(),
        workload: workload.to_string(),
        insts: p.insts,
        scale: p.scale,
        seed: 42,
        ov,
    }
}

fn build_none(_p: &BuildParams) -> Vec<JobSpec> {
    Vec::new()
}

fn design(key: &str) -> Design {
    Design::parse(key).expect("catalog design key")
}

fn design_label(key: &str) -> &'static str {
    design(key).label()
}

/// Fig. 7a/7d layout: per workload, a Std-DRAM baseline plus the five
/// designs.
fn fig7_jobs(
    exp: &str,
    names: &[&str],
    workload_of: impl Fn(&str) -> String,
    insts: u64,
    p: &BuildParams,
) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for name in names {
        let wl = workload_of(name);
        for key in std::iter::once("std").chain(FIG7_KEYS) {
            jobs.push(JobSpec {
                id: format!("{exp}/{name}/{key}"),
                design: key.to_string(),
                workload: wl.clone(),
                insts,
                scale: p.scale,
                seed: 42,
                ov: Overrides::default(),
            });
        }
    }
    jobs
}

fn render_fig7_table(ctx: &RenderCtx, exp: &str, title: &str) -> String {
    let names = ctx.group_names();
    let columns: Vec<String> = FIG7_KEYS
        .iter()
        .map(|k| design_label(k).to_string())
        .collect();
    let rows: Vec<Vec<f64>> = names
        .iter()
        .map(|name| {
            let base = ctx.by_id(&format!("{exp}/{name}/std"));
            FIG7_KEYS
                .iter()
                .map(|key| {
                    ctx.by_id(&format!("{exp}/{name}/{key}"))
                        .improvement_over(&base)
                })
                .collect()
        })
        .collect();
    let mut out = String::new();
    improvement_table(&mut out, title, &names, &columns, 14, &rows);
    out
}

/// Fig. 8a/9a/9b-style sweep: per workload a baseline plus one DAS run
/// per sweep point, rendered as an improvement table with a gmean row.
fn sweep_jobs(exp: &str, p: &BuildParams, points: &[(String, Overrides)]) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for name in singles(p) {
        jobs.push(job(
            p,
            format!("{exp}/{name}/std"),
            "std",
            name,
            Overrides::default(),
        ));
        for (seg, ov) in points {
            jobs.push(job(
                p,
                format!("{exp}/{name}/{seg}"),
                "das",
                name,
                ov.clone(),
            ));
        }
    }
    jobs
}

fn render_sweep_table(
    ctx: &RenderCtx,
    exp: &str,
    title: &str,
    segs: &[&str],
    columns: &[String],
    width: usize,
) -> String {
    let names = ctx.group_names();
    let rows: Vec<Vec<f64>> = names
        .iter()
        .map(|name| {
            let base = ctx.by_id(&format!("{exp}/{name}/std"));
            segs.iter()
                .map(|seg| {
                    ctx.by_id(&format!("{exp}/{name}/{seg}"))
                        .improvement_over(&base)
                })
                .collect()
        })
        .collect();
    let mut out = String::new();
    improvement_table(&mut out, title, &names, columns, width, &rows);
    out
}

// ---------------------------------------------------------------------------
// Tables 1 and 2 (no simulation: pure configuration prints)
// ---------------------------------------------------------------------------

fn render_table1(ctx: &RenderCtx) -> String {
    let full = SystemConfig::paper_full();
    let cfg = SystemConfig::scaled_by(ctx.scale, ctx.insts);
    let t = TimingSet::asymmetric();
    let mut o = String::new();
    let _ = writeln!(
        o,
        "# Table 1: System Configuration (paper value -> simulated at scale {})",
        cfg.scale
    );
    let _ = writeln!(
        o,
        "Processor        3GHz, {}-wide issue, {}-entry ROB",
        full.core.width, full.core.rob_entries
    );
    let _ = writeln!(
        o,
        "Cache            {}KB 8-way private L1 ({} cyc), {}KB 8-way private L2 ({} cyc), {}MB 8-way shared LLC ({} cyc) -> LLC {}KB",
        full.hierarchy.l1_bytes >> 10,
        full.hierarchy.l1_latency,
        full.hierarchy.l2_bytes >> 10,
        full.hierarchy.l2_latency,
        full.hierarchy.llc_bytes >> 20,
        full.hierarchy.llc_latency,
        cfg.hierarchy.llc_bytes >> 10,
    );
    let _ = writeln!(
        o,
        "Mem Controller   {}-entry request queue, open-page policy, FR-FCFS",
        full.controller.read_queue
    );
    let _ = writeln!(
        o,
        "DRAM             {} GB DDR3-1600, {} channels, {} ranks/channel -> {} MB simulated",
        full.geometry.total_bytes() >> 30,
        full.geometry.channels,
        full.geometry.ranks_per_channel,
        cfg.geometry.total_bytes() >> 20,
    );
    let _ = writeln!(
        o,
        "                 tRCD: {:.2}ns, tRC: {:.2}ns",
        t.slow.trcd.as_ns(),
        t.slow.trc().as_ns()
    );
    let _ = writeln!(
        o,
        "Asym. DRAM       Fast-level capacity ratio: {}",
        cfg.management.fast_ratio
    );
    let _ = writeln!(
        o,
        "                 Migration group size: {} rows",
        cfg.management.group_size
    );
    let _ = writeln!(
        o,
        "                 Migration latency: {:.2}ns",
        t.swap.as_ns()
    );
    let _ = writeln!(
        o,
        "                 tRCD (fast/slow): {:.2}/{:.2}ns, tRC (fast/slow): {:.2}/{:.2}ns",
        t.fast.trcd.as_ns(),
        t.slow.trcd.as_ns(),
        t.fast.trc().as_ns(),
        t.slow.trc().as_ns()
    );
    let _ = writeln!(
        o,
        "                 Translation cache: {}KB full scale -> {}B simulated",
        cfg.management.tcache_bytes >> 10,
        cfg.scaled_tcache_bytes()
    );
    o
}

fn render_table2(_ctx: &RenderCtx) -> String {
    use das_workloads::config::Pattern;
    let mut o = String::new();
    let _ = writeln!(o, "# Table 2: Target Workloads");
    let _ = writeln!(o, "## Single-programming workloads");
    let _ = writeln!(
        o,
        "{:<12} {:>6} {:>10} {:>7} {:>6} {:>6}  pattern",
        "benchmark", "MPKI", "footprint", "write%", "dep%", "run"
    );
    for cfg in spec::spec2006() {
        let pattern = match &cfg.pattern {
            Pattern::Stream { streams } => format!("stream x{streams}"),
            Pattern::Layered { layers } => {
                let desc: Vec<String> = layers
                    .iter()
                    .map(|l| format!("{:.0}%@p{:.2}", l.frac * 100.0, l.prob))
                    .collect();
                format!("layered [{}]", desc.join(", "))
            }
        };
        let _ = writeln!(
            o,
            "{:<12} {:>6.1} {:>7}MB {:>6.0}% {:>5.0}% {:>6}  {}",
            cfg.name,
            cfg.mpki,
            cfg.footprint_bytes >> 20,
            cfg.write_frac * 100.0,
            cfg.dep_frac * 100.0,
            cfg.run_lines,
            pattern
        );
    }
    let _ = writeln!(o, "\n## Multi-programming workloads");
    for (name, benches) in mixes::MIXES {
        let _ = writeln!(o, "{name}  {}", benches.join(", "));
    }
    o
}

// ---------------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------------

fn build_fig7a(p: &BuildParams) -> Vec<JobSpec> {
    fig7_jobs("fig7a", &singles(p), |n| n.to_string(), p.insts, p)
}

fn render_fig7a(ctx: &RenderCtx) -> String {
    render_fig7_table(
        ctx,
        "fig7a",
        "Figure 7a: Single-Programming Performance Improvements",
    )
}

fn build_fig7b(p: &BuildParams) -> Vec<JobSpec> {
    singles(p)
        .iter()
        .map(|name| {
            job(
                p,
                format!("fig7b/{name}/das"),
                "das",
                name,
                Overrides::default(),
            )
        })
        .collect()
}

fn render_fig7b(ctx: &RenderCtx) -> String {
    let mut o = String::new();
    let _ = writeln!(
        o,
        "# Figure 7b: MPKI; PPKM; Footprints (single-programming, DAS-DRAM)"
    );
    let _ = writeln!(
        o,
        "{:<12} {:>8} {:>8} {:>14} {:>16}",
        "workload", "MPKI", "PPKM", "footprint(MB)", "paper-equiv(MB)"
    );
    for name in ctx.group_names() {
        let r = ctx.by_id(&format!("fig7b/{name}/das"));
        let fp = r.u64("metrics/footprint_bytes");
        let _ = writeln!(
            o,
            "{:<12} {:>8.1} {:>8.1} {:>14.1} {:>16.1}",
            name,
            r.f64("metrics/mpki"),
            r.f64("metrics/ppkm"),
            fp as f64 / (1 << 20) as f64,
            fp as f64 * ctx.scale as f64 / (1 << 20) as f64,
        );
    }
    o
}

fn access_mix_panels(
    exp: &'static str,
    names: Vec<&'static str>,
    workload_of: impl Fn(&str) -> String,
    insts: u64,
    p: &BuildParams,
) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for key in ["sas", "das"] {
        for name in &names {
            jobs.push(JobSpec {
                id: format!("{exp}/{name}/{key}"),
                design: key.to_string(),
                workload: workload_of(name),
                insts,
                scale: p.scale,
                seed: 42,
                ov: Overrides::default(),
            });
        }
    }
    jobs
}

fn render_access_mix_panels(ctx: &RenderCtx, exp: &str, title: &str) -> String {
    let mut o = String::new();
    let _ = writeln!(o, "# {title}");
    for (panel, key) in [("Static (SAS-DRAM)", "sas"), ("Dynamic (DAS-DRAM)", "das")] {
        let _ = writeln!(o, "## {panel}");
        for name in ctx.group_names() {
            access_mix_line(&mut o, name, &ctx.by_id(&format!("{exp}/{name}/{key}")));
        }
    }
    o
}

fn build_fig7c(p: &BuildParams) -> Vec<JobSpec> {
    access_mix_panels("fig7c", singles(p), |n| n.to_string(), p.insts, p)
}

fn render_fig7c(ctx: &RenderCtx) -> String {
    render_access_mix_panels(
        ctx,
        "fig7c",
        "Figure 7c: Access Locations (single-programming)",
    )
}

fn build_fig7d(p: &BuildParams) -> Vec<JobSpec> {
    fig7_jobs(
        "fig7d",
        &mix_list(p),
        |n| format!("mix:{n}"),
        multi_insts(p),
        p,
    )
}

fn render_fig7d(ctx: &RenderCtx) -> String {
    render_fig7_table(
        ctx,
        "fig7d",
        "Figure 7d: Multi-Programming Performance Improvements",
    )
}

fn build_fig7e(p: &BuildParams) -> Vec<JobSpec> {
    mix_list(p)
        .iter()
        .map(|name| JobSpec {
            id: format!("fig7e/{name}/das"),
            design: "das".to_string(),
            workload: format!("mix:{name}"),
            insts: multi_insts(p),
            scale: p.scale,
            seed: 42,
            ov: Overrides::default(),
        })
        .collect()
}

fn render_fig7e(ctx: &RenderCtx) -> String {
    let mut o = String::new();
    let _ = writeln!(
        o,
        "# Figure 7e: MPKI; PPKM; Footprints (multi-programming, DAS-DRAM)"
    );
    let _ = writeln!(
        o,
        "{:<4} {:>8} {:>8} {:>14}",
        "mix", "MPKI", "PPKM", "footprint(MB)"
    );
    for name in ctx.group_names() {
        let r = ctx.by_id(&format!("fig7e/{name}/das"));
        let _ = writeln!(
            o,
            "{:<4} {:>8.1} {:>8.1} {:>14.1}",
            name,
            r.f64("metrics/mpki"),
            r.f64("metrics/ppkm"),
            r.u64("metrics/footprint_bytes") as f64 / (1 << 20) as f64
        );
    }
    o
}

fn build_fig7f(p: &BuildParams) -> Vec<JobSpec> {
    access_mix_panels(
        "fig7f",
        mix_list(p),
        |n| format!("mix:{n}"),
        multi_insts(p),
        p,
    )
}

fn render_fig7f(ctx: &RenderCtx) -> String {
    render_access_mix_panels(
        ctx,
        "fig7f",
        "Figure 7f: Access Locations (multi-programming)",
    )
}

// ---------------------------------------------------------------------------
// Figure 8 (promotion-filter thresholds)
// ---------------------------------------------------------------------------

fn threshold_ov(t: u32) -> Overrides {
    Overrides {
        threshold: Some(t),
        ..Overrides::default()
    }
}

fn build_fig8a(p: &BuildParams) -> Vec<JobSpec> {
    let points: Vec<(String, Overrides)> = THRESHOLDS
        .iter()
        .map(|&t| (format!("t{t}"), threshold_ov(t)))
        .collect();
    sweep_jobs("fig8a", p, &points)
}

fn render_fig8a(ctx: &RenderCtx) -> String {
    let segs: Vec<String> = THRESHOLDS.iter().map(|t| format!("t{t}")).collect();
    let seg_refs: Vec<&str> = segs.iter().map(String::as_str).collect();
    let columns: Vec<String> = THRESHOLDS
        .iter()
        .map(|t| format!("threshold {t}"))
        .collect();
    render_sweep_table(
        ctx,
        "fig8a",
        "Figure 8a: Filtering Policies - Performance Improvement",
        &seg_refs,
        &columns,
        12,
    )
}

fn build_fig8b(p: &BuildParams) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for name in singles(p) {
        for t in THRESHOLDS {
            jobs.push(job(
                p,
                format!("fig8b/{name}/t{t}"),
                "das",
                name,
                threshold_ov(t),
            ));
        }
    }
    jobs
}

fn render_fig8b(ctx: &RenderCtx) -> String {
    let mut o = String::new();
    let _ = writeln!(o, "# Figure 8b: Access Locations vs Promotion Threshold");
    for name in ctx.group_names() {
        let _ = writeln!(o, "## {name}");
        for t in THRESHOLDS {
            access_mix_line(
                &mut o,
                &format!("threshold {t}"),
                &ctx.by_id(&format!("fig8b/{name}/t{t}")),
            );
        }
    }
    o
}

fn build_fig8c(p: &BuildParams) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for name in singles(p) {
        for t in THRESHOLDS {
            jobs.push(job(
                p,
                format!("fig8c/{name}/t{t}"),
                "das",
                name,
                threshold_ov(t),
            ));
        }
    }
    jobs
}

fn render_fig8c(ctx: &RenderCtx) -> String {
    let mut o = String::new();
    let _ = writeln!(o, "# Figure 8c: Promotion/Access Ratio vs Threshold");
    let _ = write!(o, "{:<12}", "workload");
    for t in THRESHOLDS {
        let _ = write!(o, " {:>12}", format!("threshold {t}"));
    }
    let _ = writeln!(o);
    for name in ctx.group_names() {
        let _ = write!(o, "{name:<12}");
        for t in THRESHOLDS {
            let r = ctx.by_id(&format!("fig8c/{name}/t{t}"));
            let (promos, accesses) = (
                r.u64("metrics/promotions"),
                r.u64("metrics/memory_accesses"),
            );
            let ppa = if accesses == 0 {
                0.0
            } else {
                promos as f64 / accesses as f64
            };
            let _ = write!(o, " {:>11.2}%", ppa * 100.0);
        }
        let _ = writeln!(o);
    }
    o
}

// ---------------------------------------------------------------------------
// Figure 9 (translation cache, group size, fast-level ratio)
// ---------------------------------------------------------------------------

const CAPS_KB: [u64; 4] = [32, 64, 128, 256];
const GROUPS: [u32; 4] = [8, 16, 32, 64];
const RATIO_DENS: [u32; 4] = [32, 16, 8, 4];

fn build_fig9a(p: &BuildParams) -> Vec<JobSpec> {
    let points: Vec<(String, Overrides)> = CAPS_KB
        .iter()
        .map(|&kb| {
            (
                format!("kb{kb}"),
                Overrides {
                    tcache_bytes: Some(kb << 10),
                    ..Overrides::default()
                },
            )
        })
        .collect();
    sweep_jobs("fig9a", p, &points)
}

fn render_fig9a(ctx: &RenderCtx) -> String {
    let segs: Vec<String> = CAPS_KB.iter().map(|kb| format!("kb{kb}")).collect();
    let seg_refs: Vec<&str> = segs.iter().map(String::as_str).collect();
    let columns: Vec<String> = CAPS_KB.iter().map(|kb| format!("{kb} KB")).collect();
    render_sweep_table(
        ctx,
        "fig9a",
        "Figure 9a: Translation Cache Capacities (full-scale labels)",
        &seg_refs,
        &columns,
        10,
    )
}

fn build_fig9b(p: &BuildParams) -> Vec<JobSpec> {
    let points: Vec<(String, Overrides)> = GROUPS
        .iter()
        .map(|&g| {
            (
                format!("g{g}"),
                Overrides {
                    group_size: Some(g),
                    ..Overrides::default()
                },
            )
        })
        .collect();
    sweep_jobs("fig9b", p, &points)
}

fn render_fig9b(ctx: &RenderCtx) -> String {
    let segs: Vec<String> = GROUPS.iter().map(|g| format!("g{g}")).collect();
    let seg_refs: Vec<&str> = segs.iter().map(String::as_str).collect();
    let columns: Vec<String> = GROUPS.iter().map(|g| format!("{g}-row")).collect();
    render_sweep_table(
        ctx,
        "fig9b",
        "Figure 9b: Sizes of Migration Group",
        &seg_refs,
        &columns,
        12,
    )
}

fn ratio_points(replacement: &str) -> Vec<(String, Overrides)> {
    RATIO_DENS
        .iter()
        .map(|&den| {
            (
                format!("d{den}"),
                Overrides {
                    fast_ratio_den: Some(den),
                    replacement: Some(replacement.to_string()),
                    ..Overrides::default()
                },
            )
        })
        .collect()
}

fn render_ratio_sweep(ctx: &RenderCtx, exp: &str, title: &str) -> String {
    let segs: Vec<String> = RATIO_DENS.iter().map(|d| format!("d{d}")).collect();
    let seg_refs: Vec<&str> = segs.iter().map(String::as_str).collect();
    let columns: Vec<String> = RATIO_DENS.iter().map(|d| format!("1/{d}")).collect();
    render_sweep_table(ctx, exp, title, &seg_refs, &columns, 10)
}

fn build_fig9c(p: &BuildParams) -> Vec<JobSpec> {
    sweep_jobs("fig9c", p, &ratio_points("random"))
}

fn render_fig9c(ctx: &RenderCtx) -> String {
    render_ratio_sweep(
        ctx,
        "fig9c",
        "Figure 9c: Ratios of Fast Level with Random Replacement",
    )
}

fn build_fig9d(p: &BuildParams) -> Vec<JobSpec> {
    sweep_jobs("fig9d", p, &ratio_points("lru"))
}

fn render_fig9d(ctx: &RenderCtx) -> String {
    render_ratio_sweep(
        ctx,
        "fig9d",
        "Figure 9d: Ratios of Fast Level with LRU Replacement",
    )
}

// ---------------------------------------------------------------------------
// §7.7 power and the partial power-down extension
// ---------------------------------------------------------------------------

fn build_power(p: &BuildParams) -> Vec<JobSpec> {
    fig7_jobs("power", &singles(p), |n| n.to_string(), p.insts, p)
}

fn render_power(ctx: &RenderCtx) -> String {
    let mut o = String::new();
    let _ = writeln!(
        o,
        "# §7.7 Power Implications: DRAM energy relative to Std-DRAM"
    );
    let _ = writeln!(
        o,
        "{:<12} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "workload", "SAS", "CHARM", "DAS", "DAS(FM)", "FS"
    );
    let names = ctx.group_names();
    for name in &names {
        let base_e = ctx
            .by_id(&format!("power/{name}/std"))
            .f64("metrics/energy_nj/total");
        let _ = write!(o, "{name:<12}");
        for key in FIG7_KEYS {
            let e = ctx
                .by_id(&format!("power/{name}/{key}"))
                .f64("metrics/energy_nj/total");
            let _ = write!(o, " {:>9.3}x", e / base_e);
        }
        let _ = writeln!(o);
    }
    let _ = writeln!(o, "\n(breakdown for DAS-DRAM)");
    let _ = writeln!(
        o,
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "workload", "act/pre nJ", "burst nJ", "migration nJ", "background nJ"
    );
    for name in &names {
        let r = ctx.by_id(&format!("power/{name}/das"));
        let _ = writeln!(
            o,
            "{name:<12} {:>12.0} {:>12.0} {:>12.0} {:>12.0}",
            r.f64("metrics/energy_nj/act_pre"),
            r.f64("metrics/energy_nj/burst"),
            r.f64("metrics/energy_nj/migration"),
            r.f64("metrics/energy_nj/background")
        );
    }
    o
}

/// Power-down entry + exit + hysteresis charged per slow-subarray access
/// burst, in nanoseconds (the legacy binary's constant).
const PD_OVERHEAD_NS: f64 = 50.0;
/// Fraction of die area in slow subarrays at the paper's 1/8 ratio.
const SLOW_AREA_FRACTION: f64 = 8.0 / 9.0;

fn build_powerdown(p: &BuildParams) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for name in singles(p) {
        for key in ["std", "sas", "das"] {
            jobs.push(job(
                p,
                format!("powerdown/{name}/{key}"),
                key,
                name,
                Overrides::default(),
            ));
        }
    }
    jobs
}

fn render_powerdown(ctx: &RenderCtx) -> String {
    let mut o = String::new();
    let _ = writeln!(o, "# Extension: Partial Power-Down Opportunity (§1)");
    let _ = writeln!(
        o,
        "{:<12} {:>10} {:>14} {:>14} {:>16}",
        "workload", "design", "slow act %", "pd residency", "bg power saved"
    );
    for name in ctx.group_names() {
        for key in ["std", "sas", "das"] {
            let r = ctx.by_id(&format!("powerdown/{name}/{key}"));
            let window_ns = r.u64("metrics/window_cycles") as f64 / 3.0;
            let slow_acts = r.u64("metrics/access_mix/slow") as f64;
            let slow_subarrays =
                (r.u64("metrics/total_subarrays") as f64 * SLOW_AREA_FRACTION).max(1.0);
            let rate_per_sub = slow_acts / slow_subarrays / window_ns;
            let residency = (1.0 - rate_per_sub * PD_OVERHEAD_NS).max(0.0);
            let saved = SLOW_AREA_FRACTION * residency;
            let _ = writeln!(
                o,
                "{:<12} {:>10} {:>13.1}% {:>13.1}% {:>15.1}%",
                name,
                r.str("design"),
                r.access_fractions().2 * 100.0,
                residency * 100.0,
                saved * 100.0
            );
        }
        let _ = writeln!(o);
    }
    let _ = writeln!(
        o,
        "Std-DRAM spreads activations over every subarray; DAS-DRAM's\n\
         migration concentrates them into the fast 11% of the die, letting\n\
         the slow majority nap — the §1 partial power-down claim quantified."
    );
    o
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

/// Migration-mechanism variants: `(render label, id segment, swap ticks)`.
fn migration_variants() -> [(String, String, u64); 4] {
    let trc = TimingSet::asymmetric().slow.trc();
    [
        ("free".to_string(), "free".to_string(), 0),
        (
            "paper 3tRC".to_string(),
            "paper".to_string(),
            (3 * trc).raw(),
        ),
        (
            "naive 4.5tRC".to_string(),
            "naive".to_string(),
            trc.raw() * 9 / 2,
        ),
        (
            "untight 6tRC".to_string(),
            "untight".to_string(),
            (6 * trc).raw(),
        ),
    ]
}

fn build_ablation_migration(p: &BuildParams) -> Vec<JobSpec> {
    let points: Vec<(String, Overrides)> = migration_variants()
        .into_iter()
        .map(|(_, seg, swap)| {
            (
                seg,
                Overrides {
                    swap_ticks: Some(swap),
                    ..Overrides::default()
                },
            )
        })
        .collect();
    sweep_jobs("ablation_migration", p, &points)
}

fn render_ablation_migration(ctx: &RenderCtx) -> String {
    let variants = migration_variants();
    let segs: Vec<&str> = variants.iter().map(|(_, seg, _)| seg.as_str()).collect();
    let columns: Vec<String> = variants.iter().map(|(label, _, _)| label.clone()).collect();
    render_sweep_table(
        ctx,
        "ablation_migration",
        "Ablation: Migration Mechanism (DAS-DRAM improvement over Std-DRAM)",
        &segs,
        &columns,
        14,
    )
}

fn build_ablation_scheduler(p: &BuildParams) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for name in singles(p) {
        for (design, sched) in [
            ("std", "frfcfs"),
            ("std", "fcfs"),
            ("das", "frfcfs"),
            ("das", "fcfs"),
        ] {
            jobs.push(job(
                p,
                format!("ablation_scheduler/{name}/{design}_{sched}"),
                design,
                name,
                Overrides {
                    scheduler: Some(sched.to_string()),
                    ..Overrides::default()
                },
            ));
        }
    }
    jobs
}

fn render_ablation_scheduler(ctx: &RenderCtx) -> String {
    let mut o = String::new();
    let _ = writeln!(o, "# Ablation: Scheduler (IPC under FR-FCFS vs FCFS)");
    let _ = writeln!(
        o,
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "workload", "Std frfcfs", "Std fcfs", "DAS frfcfs", "DAS fcfs"
    );
    for name in ctx.group_names() {
        let ipc = |seg: &str| {
            ctx.by_id(&format!("ablation_scheduler/{name}/{seg}"))
                .core_ipcs()[0]
        };
        let _ = writeln!(
            o,
            "{:<12} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
            name,
            ipc("std_frfcfs"),
            ipc("std_fcfs"),
            ipc("das_frfcfs"),
            ipc("das_fcfs")
        );
    }
    o
}

/// The §Fig. 5 arrangement variants: `(label, id segment, arrangement key,
/// mean hop count on the full-scale bank, swap ticks at that hop count)`.
fn arrangement_variants() -> [(&'static str, &'static str, &'static str, u32, u64); 2] {
    use das_core::groups::BankGroups;
    use das_core::migration::MigrationModel;
    use das_dram::geometry::BankLayout;
    let mgmt = SystemConfig::paper_full().management;
    let base_t = TimingSet::asymmetric();
    let model = MigrationModel::with_hop_cost(base_t, Tick::new(base_t.slow.trc().raw() / 2));
    let mut out = [("reduced-interleaving", "reduced", "reduced", 0, 0); 2];
    for (slot, (label, seg, key, arr)) in out.iter_mut().zip([
        (
            "reduced-interleaving",
            "reduced",
            "reduced",
            Arrangement::ReducedInterleaving,
        ),
        (
            "partitioning",
            "partitioning",
            "partitioning",
            Arrangement::Partitioning,
        ),
    ]) {
        // Hop distance is a property of the full-scale physical design, so
        // compute it on the paper's 32768-row bank regardless of scale.
        let full = BankLayout::build(32768, mgmt.fast_ratio, arr, 128, 512);
        let groups = BankGroups::new(32768, mgmt.group_size, mgmt.fast_ratio);
        let hops = groups.mean_intra_group_hops(&full).round().max(1.0) as u32;
        *slot = (label, seg, key, hops, model.swap(hops.max(1)).raw());
    }
    out
}

fn build_ablation_arrangement(p: &BuildParams) -> Vec<JobSpec> {
    let variants = arrangement_variants();
    let mut jobs = Vec::new();
    for name in singles(p) {
        jobs.push(job(
            p,
            format!("ablation_arrangement/{name}/std"),
            "std",
            name,
            Overrides::default(),
        ));
        for (_, seg, key, _, swap) in variants {
            jobs.push(job(
                p,
                format!("ablation_arrangement/{name}/{seg}"),
                "das",
                name,
                Overrides {
                    arrangement: Some(key.to_string()),
                    swap_ticks: Some(swap),
                    ..Overrides::default()
                },
            ));
        }
    }
    jobs
}

fn render_ablation_arrangement(ctx: &RenderCtx) -> String {
    let variants = arrangement_variants();
    let mut o = String::new();
    let _ = writeln!(
        o,
        "# Ablation: Subarray Arrangement (DAS-DRAM improvement over Std-DRAM)"
    );
    let _ = write!(o, "{:<12}", "workload");
    for (label, ..) in variants {
        let _ = write!(o, " {label:>22}");
    }
    let _ = writeln!(o);
    let names = ctx.group_names();
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    for name in &names {
        let base = ctx.by_id(&format!("ablation_arrangement/{name}/std"));
        let _ = write!(o, "{name:<12}");
        for (i, (_, seg, _, hops, _)) in variants.iter().enumerate() {
            let imp = ctx
                .by_id(&format!("ablation_arrangement/{name}/{seg}"))
                .improvement_over(&base);
            cols[i].push(imp);
            let _ = write!(o, " {:>22}", format!("{} (hops {})", pct(imp), hops));
        }
        let _ = writeln!(o);
    }
    let _ = write!(o, "{:<12}", "gmean");
    for col in &cols {
        let _ = write!(o, " {:>22}", pct(gmean_improvement(col)));
    }
    let _ = writeln!(o);
    o
}

fn build_ablation_inclusive(p: &BuildParams) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for name in singles(p) {
        for key in ["std", "das", "das_incl"] {
            jobs.push(job(
                p,
                format!("ablation_inclusive/{name}/{key}"),
                key,
                name,
                Overrides::default(),
            ));
        }
    }
    jobs
}

fn render_ablation_inclusive(ctx: &RenderCtx) -> String {
    let cfg = SystemConfig::scaled_by(ctx.scale, ctx.insts);
    let layout = cfg.bank_layout();
    let usable_excl = cfg.geometry.total_bytes() - cfg.geometry.total_rows();
    let dup = layout.fast_rows() as u64
        * cfg.geometry.total_banks() as u64
        * cfg.geometry.row_bytes as u64;
    let mut o = String::new();
    let _ = writeln!(o, "# Ablation: Exclusive vs Inclusive Management (§5)");
    let _ = writeln!(
        o,
        "usable capacity: exclusive {} MB, inclusive {} MB ({:.1}% lost to duplication)\n",
        usable_excl >> 20,
        (usable_excl - dup) >> 20,
        dup as f64 / usable_excl as f64 * 100.0
    );
    let _ = writeln!(
        o,
        "{:<12} {:>12} {:>12} {:>14} {:>14}",
        "workload", "exclusive", "inclusive", "excl promos", "incl promos"
    );
    let names = ctx.group_names();
    let mut excl_col = Vec::new();
    let mut incl_col = Vec::new();
    for name in &names {
        let base = ctx.by_id(&format!("ablation_inclusive/{name}/std"));
        let e = ctx.by_id(&format!("ablation_inclusive/{name}/das"));
        let i = ctx.by_id(&format!("ablation_inclusive/{name}/das_incl"));
        let (ei, ii) = (e.improvement_over(&base), i.improvement_over(&base));
        excl_col.push(ei);
        incl_col.push(ii);
        let _ = writeln!(
            o,
            "{:<12} {:>12} {:>12} {:>14} {:>14}",
            name,
            pct(ei),
            pct(ii),
            e.u64("metrics/promotions"),
            i.u64("metrics/promotions")
        );
    }
    let _ = writeln!(
        o,
        "{:<12} {:>12} {:>12}",
        "gmean",
        pct(gmean_improvement(&excl_col)),
        pct(gmean_improvement(&incl_col))
    );
    let _ = writeln!(
        o,
        "\nPerformance is comparable; the exclusive design is adopted for the\n\
         ~12.5% capacity it refuses to forfeit (§5: \"we adopt the\n\
         exclusive-cache approach mainly because of the total capacity concern\")."
    );
    o
}

fn build_ablation_tldram(p: &BuildParams) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for name in singles(p) {
        for key in ["std", "tl", "das"] {
            jobs.push(job(
                p,
                format!("ablation_tldram/{name}/{key}"),
                key,
                name,
                Overrides::default(),
            ));
        }
    }
    jobs
}

fn render_ablation_tldram(ctx: &RenderCtx) -> String {
    use das_dram::area::{AsymmetricAreaModel, TlDramAreaModel};
    let mut o = String::new();
    let _ = writeln!(
        o,
        "# Ablation: TL-DRAM vs DAS-DRAM (improvement over Std-DRAM)"
    );
    let _ = writeln!(
        o,
        "area overhead: TL-DRAM {:.1}%  |  DAS-DRAM {:.1}%\n",
        TlDramAreaModel::default().overhead() * 100.0,
        AsymmetricAreaModel::default().overhead() * 100.0
    );
    let _ = writeln!(o, "{:<12} {:>12} {:>12}", "workload", "TL-DRAM", "DAS-DRAM");
    let names = ctx.group_names();
    let mut tl_col = Vec::new();
    let mut das_col = Vec::new();
    for name in &names {
        let base = ctx.by_id(&format!("ablation_tldram/{name}/std"));
        let tl = ctx
            .by_id(&format!("ablation_tldram/{name}/tl"))
            .improvement_over(&base);
        let das = ctx
            .by_id(&format!("ablation_tldram/{name}/das"))
            .improvement_over(&base);
        tl_col.push(tl);
        das_col.push(das);
        let _ = writeln!(o, "{:<12} {:>12} {:>12}", name, pct(tl), pct(das));
    }
    let _ = writeln!(
        o,
        "{:<12} {:>12} {:>12}",
        "gmean",
        pct(gmean_improvement(&tl_col)),
        pct(gmean_improvement(&das_col))
    );
    let _ = writeln!(
        o,
        "\nTL-DRAM's larger near level helps, but every far-segment access\n\
         pays the isolation penalty and the design costs ~4x the silicon;\n\
         DAS reaches comparable speed at commodity-compatible overhead."
    );
    o
}

/// SALP combos: `(id segment, column label, design key, salp on)`.
const SALP_COMBOS: [(&str, &str, &str, bool); 4] = [
    ("std", "Std", "std", false),
    ("std_salp", "Std+SALP", "std", true),
    ("das", "DAS", "das", false),
    ("das_salp", "DAS+SALP", "das", true),
];

fn build_ablation_salp(p: &BuildParams) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for name in singles(p) {
        for (seg, _, key, salp) in SALP_COMBOS {
            jobs.push(job(
                p,
                format!("ablation_salp/{name}/{seg}"),
                key,
                name,
                Overrides {
                    salp: Some(salp),
                    ..Overrides::default()
                },
            ));
        }
    }
    jobs
}

fn render_ablation_salp(ctx: &RenderCtx) -> String {
    let mut o = String::new();
    let _ = writeln!(
        o,
        "# Ablation: SALP Composition (improvement over Std-DRAM without SALP)"
    );
    let _ = writeln!(
        o,
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "workload", "Std", "Std+SALP", "DAS", "DAS+SALP"
    );
    let names = ctx.group_names();
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); SALP_COMBOS.len()];
    for name in &names {
        let base = ctx.by_id(&format!("ablation_salp/{name}/std"));
        let _ = write!(o, "{name:<12}");
        for (i, (seg, ..)) in SALP_COMBOS.iter().enumerate() {
            let v = ctx
                .by_id(&format!("ablation_salp/{name}/{seg}"))
                .improvement_over(&base);
            cols[i].push(v);
            let _ = write!(o, " {:>12}", pct(v));
        }
        let _ = writeln!(o);
    }
    let _ = write!(o, "{:<12}", "gmean");
    for col in &cols {
        let _ = write!(o, " {:>12}", pct(gmean_improvement(col)));
    }
    let _ = writeln!(o);
    let _ = writeln!(
        o,
        "\nSALP removes row-buffer conflicts; DAS removes activation latency —\n\
         the two compose, as §8 argues for parallelism-oriented proposals."
    );
    o
}

/// Page-policy combos: `(id segment, design key, policy key)`.
const PAGE_COMBOS: [(&str, &str, &str); 4] = [
    ("std_closed", "std", "closed"),
    ("das_open", "das", "open"),
    ("das_closed", "das", "closed"),
    ("fs_open", "fs", "open"),
];

fn build_ablation_pagepolicy(p: &BuildParams) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for name in singles(p) {
        jobs.push(job(
            p,
            format!("ablation_pagepolicy/{name}/std"),
            "std",
            name,
            Overrides::default(),
        ));
        for (seg, key, policy) in PAGE_COMBOS {
            jobs.push(job(
                p,
                format!("ablation_pagepolicy/{name}/{seg}"),
                key,
                name,
                Overrides {
                    page_policy: Some(policy.to_string()),
                    ..Overrides::default()
                },
            ));
        }
    }
    jobs
}

fn render_ablation_pagepolicy(ctx: &RenderCtx) -> String {
    let mut o = String::new();
    let _ = writeln!(
        o,
        "# Ablation: Page Policy (improvement over open-page Std-DRAM)"
    );
    let _ = writeln!(
        o,
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "workload", "Std closed", "DAS open", "DAS closed", "FS open"
    );
    let names = ctx.group_names();
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); PAGE_COMBOS.len()];
    for name in &names {
        let base = ctx.by_id(&format!("ablation_pagepolicy/{name}/std"));
        let _ = write!(o, "{name:<12}");
        for (i, (seg, ..)) in PAGE_COMBOS.iter().enumerate() {
            let v = ctx
                .by_id(&format!("ablation_pagepolicy/{name}/{seg}"))
                .improvement_over(&base);
            cols[i].push(v);
            let _ = write!(o, " {:>12}", pct(v));
        }
        let _ = writeln!(o);
    }
    let _ = write!(o, "{:<12}", "gmean");
    for col in &cols {
        let _ = write!(o, " {:>12}", pct(gmean_improvement(col)));
    }
    let _ = writeln!(o);
    o
}

// ---------------------------------------------------------------------------
// Fault sweep and telemetry
// ---------------------------------------------------------------------------

fn build_fault_sweep(p: &BuildParams) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for key in FIG7_KEYS {
        jobs.push(job(
            p,
            format!("fault_sweep/{key}/clean"),
            key,
            "mcf",
            Overrides::default(),
        ));
        for (rate, seg) in FAULT_RATES {
            jobs.push(job(
                p,
                format!("fault_sweep/{key}/{seg}"),
                key,
                "mcf",
                Overrides {
                    fault_rate: Some(rate),
                    invariant_check_events: (rate > 0.0).then_some(10_000),
                    ..Overrides::default()
                },
            ));
        }
    }
    jobs
}

/// Deterministic fields of a run, for the rate-0 bit-identity proof.
fn fault_fingerprint(r: &ReportView) -> (u64, u64, u64, u64, u64) {
    (
        r.u64("metrics/promotions"),
        r.u64("metrics/memory_accesses"),
        r.u64("metrics/llc_misses"),
        r.u64("metrics/window_cycles"),
        r.u64("metrics/access_mix/row_buffer"),
    )
}

fn render_fault_sweep(ctx: &RenderCtx) -> String {
    let bench = &ctx.jobs[0].workload;
    let mut o = String::new();
    let _ = writeln!(
        o,
        "# fault sweep over {bench}: five designs x uniform rates"
    );
    let _ = writeln!(
        o,
        "{:<14} {:>8} {:>9} {:>9} {:>9} {:>9} {:>7} {:>9} {:>8}",
        "design", "rate", "injected", "retried", "recovered", "fatal", "audits", "rebuilds", "ipc"
    );
    for key in FIG7_KEYS {
        let clean = ctx.by_id(&format!("fault_sweep/{key}/clean"));
        for (rate, seg) in FAULT_RATES {
            let r = ctx.by_id(&format!("fault_sweep/{key}/{seg}"));
            if rate == 0.0 {
                assert_eq!(
                    fault_fingerprint(&r),
                    fault_fingerprint(&clean),
                    "{}: rate-0 plan must be bit-identical to no injection",
                    design_label(key)
                );
                assert_eq!(r.u64("metrics/faults/injected"), 0);
            }
            let _ = writeln!(
                o,
                "{:<14} {:>8.3} {:>9} {:>9} {:>9} {:>9} {:>7} {:>9} {:>8.3}",
                design_label(key),
                rate,
                r.u64("metrics/faults/injected"),
                r.u64("metrics/faults/retried"),
                r.u64("metrics/faults/recovered"),
                r.u64("metrics/faults/fatal"),
                r.u64("metrics/faults/invariant_checks_passed"),
                r.u64("metrics/faults/tcache_rebuilds"),
                r.core_ipcs()[0],
            );
        }
    }
    let _ = writeln!(
        o,
        "\nrate-0 runs verified bit-identical to uninjected runs for all designs"
    );
    o
}

fn build_telemetry(p: &BuildParams) -> Vec<JobSpec> {
    vec![JobSpec {
        id: "telemetry/mcf/das".to_string(),
        design: "das".to_string(),
        workload: "mcf".to_string(),
        insts: p.insts,
        scale: p.scale,
        seed: 42,
        ov: Overrides {
            telemetry_epoch: Some(EPOCH_CYCLES),
            trace_path: Some(TELEMETRY_TRACE.to_string()),
            ..Overrides::default()
        },
    }]
}

fn render_telemetry(ctx: &RenderCtx) -> String {
    let job = &ctx.jobs[0];
    let bench = &job.workload;
    let epoch_cycles = job.ov.telemetry_epoch.expect("telemetry job has an epoch");
    let r = ctx.by_id(&job.id);
    let mut o = String::new();
    let _ = writeln!(
        o,
        "# telemetry: DAS-DRAM over {bench} ({epoch_cycles}-cycle epochs)"
    );
    let _ = writeln!(o, "\n## per-class latency (ticks, merged over channels)");
    let _ = writeln!(
        o,
        "{:<12} {:>10} {:>8} {:>8} {:>8} {:>8}",
        "class", "count", "p50", "p95", "p99", "max"
    );
    for class in ["row_buffer", "fast", "slow"] {
        let h = |field: &str| r.u64(&format!("telemetry/latency_ticks/{class}/{field}"));
        let _ = writeln!(
            o,
            "{:<12} {:>10} {:>8} {:>8} {:>8} {:>8}",
            class,
            h("count"),
            h("p50"),
            h("p95"),
            h("p99"),
            h("max")
        );
    }
    let _ = writeln!(o, "\n## epoch series (first 20 epochs)");
    let _ = writeln!(
        o,
        "{:<6} {:>8} {:>11} {:>8} {:>8} {:>10} {:>7} {:>7}",
        "epoch", "ipc", "fast-ratio", "reads", "writes", "promotions", "rdq", "wrq"
    );
    let samples = r.arr("telemetry/epochs");
    for s in samples.iter().take(20) {
        let s = ReportView(s);
        let _ = writeln!(
            o,
            "{:<6} {:>8.3} {:>11.3} {:>8} {:>8} {:>10} {:>7} {:>7}",
            s.u64("epoch"),
            s.f64("ipc"),
            s.f64("fast_ratio"),
            s.u64("reads"),
            s.u64("writes"),
            s.u64("promotions"),
            s.u64("read_queue"),
            s.u64("write_queue")
        );
    }
    let promotions = r.u64("metrics/promotions");
    if samples.len() >= 4 && promotions > 0 {
        let first = ReportView(&samples[0]).f64("fast_ratio");
        let later: Vec<f64> = samples[samples.len() / 2..]
            .iter()
            .map(|s| ReportView(s).f64("fast_ratio"))
            .collect();
        let later_avg = later.iter().sum::<f64>() / later.len() as f64;
        assert!(
            later_avg > first,
            "fast-activation ratio must rise during warm-up \
             (first {first:.3}, later avg {later_avg:.3})"
        );
        let _ = writeln!(
            o,
            "\nfast-activation ratio rose {:.3} -> {:.3} as promotions filled the fast level",
            first, later_avg
        );
    }
    let _ = writeln!(
        o,
        "\n{} trace events, {} epochs sampled",
        r.u64("telemetry/trace_events"),
        samples.len()
    );
    // Both exports are named relative to the output directory, so the
    // render does not depend on how that directory was spelled.
    let _ = writeln!(o, "run report: telemetry.json");
    let _ = writeln!(
        o,
        "chrome trace: {} (open in https://ui.perfetto.dev)",
        job.ov.trace_path.as_deref().unwrap_or(TELEMETRY_TRACE)
    );
    o
}

// ---------------------------------------------------------------------------
// Cross-architecture backend family (ROADMAP "Multi-backend DRAM")
// ---------------------------------------------------------------------------

/// Non-baseline backend design keys, catalog order
/// (`das_sim::config::Design::backends()` minus `std`).
const CROSS_KEYS: [&str; 5] = ["das", "tl", "clr", "lisa", "salp"];

/// Backends that sweep the fast-capacity ratio freely. TL-DRAM is absent
/// deliberately: its backend placement pins ratio 1/4 (the 128-near /
/// 384-far tiling), overriding any sweep point; SALP and the baseline
/// have no fast level.
const CROSS_SWEEP_KEYS: [&str; 3] = ["das", "clr", "lisa"];

/// Workloads whose traffic is dominated by streaming/sequential sweeps.
/// The complement of `spec::names()` is the irregular/pointer class.
const STREAMING_CLASS: [&str; 6] = [
    "cactusADM",
    "GemsFDTD",
    "lbm",
    "leslie3d",
    "libquantum",
    "milc",
];

/// Pointer-chasing workloads for the copy-cost comparison.
const POINTER_WORKLOADS: [&str; 4] = ["astar", "mcf", "omnetpp", "soplex"];

fn workload_class(name: &str) -> &'static str {
    if STREAMING_CLASS.contains(&name) {
        "streaming"
    } else {
        "irregular"
    }
}

/// Per-workload jobs: a DDR3 baseline plus every non-baseline backend.
fn cross_arch_jobs(exp: &str, names: &[&str], insts: u64, p: &BuildParams) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for name in names {
        for key in std::iter::once("std").chain(CROSS_KEYS) {
            jobs.push(JobSpec {
                id: format!("{exp}/{name}/{key}"),
                design: key.to_string(),
                workload: name.to_string(),
                insts,
                scale: p.scale,
                seed: 42,
                ov: Overrides::default(),
            });
        }
    }
    jobs
}

/// Improvement matrix over the per-group DDR3 baseline:
/// `(group names, rows[group][backend])` in `keys` column order.
fn cross_arch_matrix<'a>(
    ctx: &RenderCtx<'a>,
    exp: &str,
    keys: &[&str],
) -> (Vec<&'a str>, Vec<Vec<f64>>) {
    let names = ctx.group_names();
    let rows = names
        .iter()
        .map(|name| {
            let base = ctx.by_id(&format!("{exp}/{name}/std"));
            keys.iter()
                .map(|key| {
                    ctx.by_id(&format!("{exp}/{name}/{key}"))
                        .improvement_over(&base)
                })
                .collect()
        })
        .collect();
    (names, rows)
}

/// Appends a gmean-ranking block: backends ordered by gmean IPC
/// improvement over the DDR3 baseline, one ranking per workload class.
fn write_class_ranking(o: &mut String, names: &[&str], rows: &[Vec<f64>], keys: &[&str]) {
    let _ = writeln!(
        o,
        "\n## ranking by gmean IPC improvement over {} (per workload class)",
        design_label("std")
    );
    let mut classes: Vec<&str> = names.iter().map(|n| workload_class(n)).collect();
    classes.sort_unstable();
    classes.dedup();
    for class in classes {
        let member_rows: Vec<&Vec<f64>> = names
            .iter()
            .zip(rows)
            .filter(|(n, _)| workload_class(n) == class)
            .map(|(_, r)| r)
            .collect();
        let mut ranked: Vec<(&str, f64)> = keys
            .iter()
            .enumerate()
            .map(|(i, key)| {
                let col: Vec<f64> = member_rows.iter().map(|r| r[i]).collect();
                (design_label(key), gmean_improvement(&col))
            })
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
        let _ = write!(o, "{:<12}", format!("{class}:"));
        for (i, (label, g)) in ranked.iter().enumerate() {
            if i > 0 {
                let _ = write!(o, "  >");
            }
            let _ = write!(o, " {label} {}", pct(*g));
        }
        let _ = writeln!(o);
    }
}

fn build_cross_arch_rank(p: &BuildParams) -> Vec<JobSpec> {
    cross_arch_jobs("cross_arch_rank", &singles(p), p.insts, p)
}

fn render_cross_arch_rank(ctx: &RenderCtx) -> String {
    let (names, rows) = cross_arch_matrix(ctx, "cross_arch_rank", &CROSS_KEYS);
    let columns: Vec<String> = CROSS_KEYS
        .iter()
        .map(|k| design_label(k).to_string())
        .collect();
    let mut o = String::new();
    improvement_table(
        &mut o,
        "Cross-architecture: IPC improvement over DDR3 baseline",
        &names,
        &columns,
        14,
        &rows,
    );
    write_class_ranking(&mut o, &names, &rows, &CROSS_KEYS);
    o
}

fn build_cross_arch_mix(p: &BuildParams) -> Vec<JobSpec> {
    let mixes: Vec<String> = mix_list(p).iter().map(|m| format!("mix:{m}")).collect();
    let mut jobs = Vec::new();
    for (name, wl) in mix_list(p).iter().zip(&mixes) {
        for key in std::iter::once("std").chain(CROSS_KEYS) {
            jobs.push(JobSpec {
                id: format!("cross_arch_mix/{name}/{key}"),
                design: key.to_string(),
                workload: wl.clone(),
                insts: multi_insts(p),
                scale: p.scale,
                seed: 42,
                ov: Overrides::default(),
            });
        }
    }
    jobs
}

fn render_cross_arch_mix(ctx: &RenderCtx) -> String {
    let (names, rows) = cross_arch_matrix(ctx, "cross_arch_mix", &CROSS_KEYS);
    let columns: Vec<String> = CROSS_KEYS
        .iter()
        .map(|k| design_label(k).to_string())
        .collect();
    let mut o = String::new();
    improvement_table(
        &mut o,
        "Cross-architecture: four-program mixes (weighted IPC improvement over DDR3)",
        &names,
        &columns,
        14,
        &rows,
    );
    o
}

fn cross_sweep_segs() -> Vec<String> {
    CROSS_SWEEP_KEYS
        .iter()
        .flat_map(|key| RATIO_DENS.iter().map(move |den| format!("{key}_d{den}")))
        .collect()
}

fn build_cross_arch_sweep(p: &BuildParams) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for name in singles(p) {
        jobs.push(job(
            p,
            format!("cross_arch_sweep/{name}/std"),
            "std",
            name,
            Overrides::default(),
        ));
        for key in CROSS_SWEEP_KEYS {
            for den in RATIO_DENS {
                jobs.push(job(
                    p,
                    format!("cross_arch_sweep/{name}/{key}_d{den}"),
                    key,
                    name,
                    Overrides {
                        fast_ratio_den: Some(den),
                        ..Overrides::default()
                    },
                ));
            }
        }
    }
    jobs
}

fn render_cross_arch_sweep(ctx: &RenderCtx) -> String {
    let segs = cross_sweep_segs();
    let seg_refs: Vec<&str> = segs.iter().map(String::as_str).collect();
    let columns: Vec<String> = CROSS_SWEEP_KEYS
        .iter()
        .flat_map(|key| RATIO_DENS.iter().map(move |den| format!("{key} 1/{den}")))
        .collect();
    render_sweep_table(
        ctx,
        "cross_arch_sweep",
        "Cross-architecture: fast-capacity sweep (TL-DRAM pinned to 1/4, omitted)",
        &seg_refs,
        &columns,
        10,
    )
}

/// Copy-cost combos: designs distinguished purely by inter-row copy cost.
const COPY_KEYS: [&str; 4] = ["das", "das_fm", "lisa", "clr"];

fn build_cross_arch_copy(p: &BuildParams) -> Vec<JobSpec> {
    let names = filter(&p.only, POINTER_WORKLOADS.to_vec());
    let mut jobs = Vec::new();
    for name in names {
        for key in std::iter::once("std").chain(COPY_KEYS) {
            jobs.push(job(
                p,
                format!("cross_arch_copy/{name}/{key}"),
                key,
                name,
                Overrides::default(),
            ));
        }
    }
    jobs
}

fn render_cross_arch_copy(ctx: &RenderCtx) -> String {
    let mut o = String::new();
    let _ = writeln!(
        o,
        "# Cross-architecture: inter-row copy cost (pointer-chasing workloads)"
    );
    let _ = writeln!(o, "swap latency per design:");
    for key in COPY_KEYS {
        let t = design(key).timing();
        let _ = writeln!(o, "  {:<14} {:>8.3} ns", design_label(key), t.swap.as_ns());
    }
    let _ = writeln!(o);
    let (names, rows) = cross_arch_matrix(ctx, "cross_arch_copy", &COPY_KEYS);
    let columns: Vec<String> = COPY_KEYS
        .iter()
        .map(|k| design_label(k).to_string())
        .collect();
    improvement_table(
        &mut o,
        "IPC improvement over DDR3 baseline",
        &names,
        &columns,
        14,
        &rows,
    );
    o
}

/// SALP composition combos: `(id segment, design key, salp override)`.
const CROSS_SALP_COMBOS: [(&str, &str, Option<bool>); 5] = [
    ("salp", "salp", None),
    ("das", "das", None),
    ("das_salp", "das", Some(true)),
    ("lisa", "lisa", None),
    ("lisa_salp", "lisa", Some(true)),
];

/// The SALP composition runs on three representative workloads (one
/// streaming, two irregular) to keep the grid bounded.
const CROSS_SALP_WORKLOADS: [&str; 3] = ["libquantum", "mcf", "omnetpp"];

fn build_cross_arch_salp(p: &BuildParams) -> Vec<JobSpec> {
    let names = filter(&p.only, CROSS_SALP_WORKLOADS.to_vec());
    let mut jobs = Vec::new();
    for name in names {
        jobs.push(job(
            p,
            format!("cross_arch_salp/{name}/std"),
            "std",
            name,
            Overrides::default(),
        ));
        for (seg, key, salp) in CROSS_SALP_COMBOS {
            jobs.push(job(
                p,
                format!("cross_arch_salp/{name}/{seg}"),
                key,
                name,
                Overrides {
                    salp,
                    ..Overrides::default()
                },
            ));
        }
    }
    jobs
}

fn render_cross_arch_salp(ctx: &RenderCtx) -> String {
    let segs: Vec<&str> = CROSS_SALP_COMBOS.iter().map(|(seg, ..)| *seg).collect();
    let columns: Vec<String> = vec![
        "SALP".into(),
        "DAS".into(),
        "DAS+SALP".into(),
        "LISA".into(),
        "LISA+SALP".into(),
    ];
    let mut o = render_sweep_table(
        ctx,
        "cross_arch_salp",
        "Cross-architecture: SALP composition (improvement over DDR3)",
        &segs,
        &columns,
        11,
    );
    let _ = writeln!(
        o,
        "\nSALP attacks bank-conflict serialisation, the asymmetric designs\n\
         attack activation latency; the composed variants stack both."
    );
    o
}

fn build_cross_arch_area(p: &BuildParams) -> Vec<JobSpec> {
    cross_arch_jobs("cross_arch_area", &["mcf"], p.insts, p)
}

fn render_cross_arch_area(ctx: &RenderCtx) -> String {
    let (names, rows) = cross_arch_matrix(ctx, "cross_arch_area", &CROSS_KEYS);
    let mut o = String::new();
    let _ = writeln!(
        o,
        "# Cross-architecture: performance per silicon area ({})",
        names.join("+")
    );
    let _ = writeln!(
        o,
        "{:<14} {:>12} {:>10} {:>14}",
        "design", "improvement", "area", "improv/area%"
    );
    for (i, key) in CROSS_KEYS.iter().enumerate() {
        let improv = gmean_improvement(&rows.iter().map(|r| r[i]).collect::<Vec<_>>());
        let area = design(key)
            .area_overhead()
            .expect("cross-arch designs have an area model");
        let per_area = if area > 0.0 {
            format!("{:>14.2}", improv * 100.0 / (area * 100.0))
        } else {
            format!("{:>14}", "inf")
        };
        let _ = writeln!(
            o,
            "{:<14} {:>12} {:>9.2}% {per_area}",
            design_label(key),
            pct(improv),
            area * 100.0,
        );
    }
    let _ = writeln!(
        o,
        "\narea figures from dram::area models (PAPERS.md quoted overheads);\n\
         CLR-DRAM additionally surrenders the morphed rows' capacity."
    );
    o
}

// ---------------------------------------------------------------------------
// Coherent multi-core front end (ROADMAP "das-coherence")
// ---------------------------------------------------------------------------

/// Shared-footprint workload kinds (`das_workloads::shared::SharedKind`
/// keys), catalog order.
const SHARED_KINDS: [&str; 3] = ["ring", "lock", "frontier"];
/// Coherence-protocol keys (`das_coherence::ProtocolKind` keys).
const COH_PROTOCOLS: [&str; 2] = ["mesi", "dragon"];
/// Sharing-intensity keys (`das_workloads::shared::Sharing` keys), in
/// increasing shared-fraction order.
const SHARING_LEVELS: [&str; 3] = ["low", "mid", "high"];

fn protocol_label(key: &str) -> &'static str {
    das_coherence::ProtocolKind::parse(key)
        .expect("catalog protocol key")
        .label()
}

/// One coherent job at the multi-programming budget (four trace-fed
/// cores share the memory system, like the Fig. 7e mixes).
fn coherent_job(p: &BuildParams, id: String, design: &str, kind: &str, ov: Overrides) -> JobSpec {
    JobSpec {
        id,
        design: design.to_string(),
        workload: format!("shared:{kind}"),
        insts: multi_insts(p),
        scale: p.scale,
        seed: 42,
        ov,
    }
}

/// Appends one coherence-traffic line per group, read from the named
/// job's `metrics/coherence` block.
fn write_coherence_lines(o: &mut String, ctx: &RenderCtx, ids: &[(String, String)]) {
    for (label, id) in ids {
        let r = ctx.by_id(id);
        let _ = writeln!(
            o,
            "{label:<12} bus_tx={:>8}  inval={:>7}  interv={:>7}  upd={:>7}  \
             l1_hit={:>5.1}%  bus_wait={}",
            r.u64("metrics/coherence/bus_transactions"),
            r.u64("metrics/coherence/invalidations"),
            r.u64("metrics/coherence/interventions"),
            r.u64("metrics/coherence/bus_upd"),
            r.f64("metrics/coherence/l1_hit_rate") * 100.0,
            r.u64("metrics/coherence/bus_wait_cycles"),
        );
    }
}

fn build_coherent_rank(p: &BuildParams) -> Vec<JobSpec> {
    let kinds = filter(&p.only, SHARED_KINDS.to_vec());
    let mut jobs = Vec::new();
    for kind in kinds {
        for key in std::iter::once("std").chain(CROSS_KEYS) {
            jobs.push(coherent_job(
                p,
                format!("coherent_rank/{kind}/{key}"),
                key,
                kind,
                Overrides::default(),
            ));
        }
    }
    jobs
}

fn render_coherent_rank(ctx: &RenderCtx) -> String {
    let (names, rows) = cross_arch_matrix(ctx, "coherent_rank", &CROSS_KEYS);
    let columns: Vec<String> = CROSS_KEYS
        .iter()
        .map(|k| design_label(k).to_string())
        .collect();
    let mut o = String::new();
    improvement_table(
        &mut o,
        "Coherent front end: IPC improvement over DDR3 baseline (MESI, 4 cores)",
        &names,
        &columns,
        14,
        &rows,
    );
    let mut ranked: Vec<(&str, f64)> = CROSS_KEYS
        .iter()
        .enumerate()
        .map(|(i, key)| {
            let col: Vec<f64> = rows.iter().map(|r| r[i]).collect();
            (design_label(key), gmean_improvement(&col))
        })
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
    let _ = write!(o, "\nranking:");
    for (i, (label, g)) in ranked.iter().enumerate() {
        if i > 0 {
            let _ = write!(o, "  >");
        }
        let _ = write!(o, " {label} {}", pct(*g));
    }
    let _ = writeln!(o);
    let _ = writeln!(o, "\n## MESI coherence traffic (Std-DRAM backend)");
    let ids: Vec<(String, String)> = names
        .iter()
        .map(|n| ((*n).to_string(), format!("coherent_rank/{n}/std")))
        .collect();
    write_coherence_lines(&mut o, ctx, &ids);
    o
}

fn build_coherent_protocol(p: &BuildParams) -> Vec<JobSpec> {
    let kinds = filter(&p.only, SHARED_KINDS.to_vec());
    let mut jobs = Vec::new();
    for kind in kinds {
        for proto in COH_PROTOCOLS {
            for key in ["std", "das"] {
                jobs.push(coherent_job(
                    p,
                    format!("coherent_protocol/{kind}/{proto}_{key}"),
                    key,
                    kind,
                    Overrides {
                        protocol: Some(proto.to_string()),
                        ..Overrides::default()
                    },
                ));
            }
        }
    }
    jobs
}

fn render_coherent_protocol(ctx: &RenderCtx) -> String {
    let names = ctx.group_names();
    let columns: Vec<String> = COH_PROTOCOLS
        .iter()
        .map(|p| format!("DAS {}", protocol_label(p)))
        .collect();
    let rows: Vec<Vec<f64>> = names
        .iter()
        .map(|kind| {
            COH_PROTOCOLS
                .iter()
                .map(|proto| {
                    let base = ctx.by_id(&format!("coherent_protocol/{kind}/{proto}_std"));
                    ctx.by_id(&format!("coherent_protocol/{kind}/{proto}_das"))
                        .improvement_over(&base)
                })
                .collect()
        })
        .collect();
    let mut o = String::new();
    improvement_table(
        &mut o,
        "Coherent front end: protocol comparison (DAS-DRAM improvement over DDR3)",
        &names,
        &columns,
        14,
        &rows,
    );
    for proto in COH_PROTOCOLS {
        let _ = writeln!(
            o,
            "\n## {} coherence traffic (DAS-DRAM backend)",
            protocol_label(proto)
        );
        let ids: Vec<(String, String)> = names
            .iter()
            .map(|n| {
                (
                    (*n).to_string(),
                    format!("coherent_protocol/{n}/{proto}_das"),
                )
            })
            .collect();
        write_coherence_lines(&mut o, ctx, &ids);
    }
    o
}

fn build_coherent_sharing(p: &BuildParams) -> Vec<JobSpec> {
    let kinds = filter(&p.only, SHARED_KINDS.to_vec());
    let mut jobs = Vec::new();
    for kind in kinds {
        for level in SHARING_LEVELS {
            for key in ["std", "das"] {
                jobs.push(coherent_job(
                    p,
                    format!("coherent_sharing/{kind}/{level}_{key}"),
                    key,
                    kind,
                    Overrides {
                        sharing: Some(level.to_string()),
                        ..Overrides::default()
                    },
                ));
            }
        }
    }
    jobs
}

fn render_coherent_sharing(ctx: &RenderCtx) -> String {
    let names = ctx.group_names();
    let columns: Vec<String> = SHARING_LEVELS.iter().map(|l| (*l).to_string()).collect();
    let rows: Vec<Vec<f64>> = names
        .iter()
        .map(|kind| {
            SHARING_LEVELS
                .iter()
                .map(|level| {
                    let base = ctx.by_id(&format!("coherent_sharing/{kind}/{level}_std"));
                    ctx.by_id(&format!("coherent_sharing/{kind}/{level}_das"))
                        .improvement_over(&base)
                })
                .collect()
        })
        .collect();
    let mut o = String::new();
    improvement_table(
        &mut o,
        "Coherent front end: sharing-intensity sweep (DAS-DRAM improvement over DDR3)",
        &names,
        &columns,
        14,
        &rows,
    );
    let _ = writeln!(o, "\n## bus pressure vs sharing (DAS-DRAM backend, MESI)");
    for kind in &names {
        let _ = write!(o, "{kind:<12}");
        for level in SHARING_LEVELS {
            let r = ctx.by_id(&format!("coherent_sharing/{kind}/{level}_das"));
            let _ = write!(
                o,
                "  {level}: inval={} wait={}",
                r.u64("metrics/coherence/invalidations"),
                r.u64("metrics/coherence/bus_wait_cycles"),
            );
        }
        let _ = writeln!(o);
    }
    o
}

// ---------------------------------------------------------------------------
// Adaptive migration policies (ROADMAP "das-policy")
// ---------------------------------------------------------------------------

/// Migration-policy keys (`das_policy::PolicyKind` keys), catalog order.
const POLICY_KEYS: [&str; 5] = [
    "paper_fixed",
    "hysteresis",
    "cost_aware",
    "phase_adaptive",
    "feedback",
];
/// Backends the policy ranking compares on (dynamic exclusive only —
/// each prices the same swap machinery differently, which is what the
/// cost-aware policy keys on).
const POLICY_BACKENDS: [&str; 3] = ["das", "lisa", "clr"];
/// Policies whose controller state the trajectory experiment reads.
const POLICY_ADAPTIVE: [&str; 3] = ["paper_fixed", "phase_adaptive", "feedback"];
/// The trajectory experiment's pinned workloads: one streaming, one
/// pointer-chasing.
const POLICY_ADAPT_WORKLOADS: [&str; 2] = ["libquantum", "mcf"];

fn policy_label(key: &str) -> &'static str {
    das_policy::PolicyKind::parse(key)
        .expect("catalog policy key")
        .label()
}

/// The override for a policy column. `paper_fixed` deliberately omits the
/// token: absence *is* the paper's fixed-threshold behaviour (locked by
/// `tests/locks.rs`), and it keeps those journal lines strip-comparable to
/// the policy-free goldens in CI.
fn policy_ov(key: &str) -> Overrides {
    if key == "paper_fixed" {
        Overrides::default()
    } else {
        Overrides {
            policy: Some(key.to_string()),
            ..Overrides::default()
        }
    }
}

fn build_policy_search_rank(p: &BuildParams) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for name in singles(p) {
        jobs.push(job(
            p,
            format!("policy_search_rank/{name}/std"),
            "std",
            name,
            Overrides::default(),
        ));
        for backend in POLICY_BACKENDS {
            for key in POLICY_KEYS {
                jobs.push(job(
                    p,
                    format!("policy_search_rank/{name}/{backend}_{key}"),
                    backend,
                    name,
                    policy_ov(key),
                ));
            }
        }
    }
    jobs
}

fn render_policy_search_rank(ctx: &RenderCtx) -> String {
    let names = ctx.group_names();
    let columns: Vec<String> = POLICY_KEYS
        .iter()
        .map(|k| policy_label(k).to_string())
        .collect();
    let mut o = String::new();
    for backend in POLICY_BACKENDS {
        let rows: Vec<Vec<f64>> = names
            .iter()
            .map(|name| {
                let base = ctx.by_id(&format!("policy_search_rank/{name}/std"));
                POLICY_KEYS
                    .iter()
                    .map(|key| {
                        ctx.by_id(&format!("policy_search_rank/{name}/{backend}_{key}"))
                            .improvement_over(&base)
                    })
                    .collect()
            })
            .collect();
        if !o.is_empty() {
            let _ = writeln!(o);
        }
        improvement_table(
            &mut o,
            &format!(
                "Policy search: IPC improvement over DDR3 baseline ({})",
                design_label(backend)
            ),
            &names,
            &columns,
            16,
            &rows,
        );
        let mut ranked: Vec<(&str, f64)> = POLICY_KEYS
            .iter()
            .enumerate()
            .map(|(i, key)| {
                let col: Vec<f64> = rows.iter().map(|r| r[i]).collect();
                (policy_label(key), gmean_improvement(&col))
            })
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
        let _ = write!(o, "ranking ({}):", design_label(backend));
        for (i, (label, g)) in ranked.iter().enumerate() {
            if i > 0 {
                let _ = write!(o, "  >");
            }
            let _ = write!(o, " {label} {}", pct(*g));
        }
        let _ = writeln!(o);
    }
    o
}

fn build_policy_search_size(p: &BuildParams) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for name in singles(p) {
        jobs.push(job(
            p,
            format!("policy_search_size/{name}/std"),
            "std",
            name,
            Overrides::default(),
        ));
        for key in POLICY_KEYS {
            for den in RATIO_DENS {
                let mut ov = policy_ov(key);
                ov.fast_ratio_den = Some(den);
                jobs.push(job(
                    p,
                    format!("policy_search_size/{name}/{key}_d{den}"),
                    "das",
                    name,
                    ov,
                ));
            }
        }
    }
    jobs
}

fn render_policy_search_size(ctx: &RenderCtx) -> String {
    let names = ctx.group_names();
    let columns: Vec<String> = POLICY_KEYS
        .iter()
        .flat_map(|key| RATIO_DENS.iter().map(move |den| format!("{key} 1/{den}")))
        .collect();
    let segs: Vec<String> = POLICY_KEYS
        .iter()
        .flat_map(|key| RATIO_DENS.iter().map(move |den| format!("{key}_d{den}")))
        .collect();
    let rows: Vec<Vec<f64>> = names
        .iter()
        .map(|name| {
            let base = ctx.by_id(&format!("policy_search_size/{name}/std"));
            segs.iter()
                .map(|seg| {
                    ctx.by_id(&format!("policy_search_size/{name}/{seg}"))
                        .improvement_over(&base)
                })
                .collect()
        })
        .collect();
    let mut o = String::new();
    improvement_table(
        &mut o,
        "Policy search: fast-level size sweep (DAS-DRAM, improvement over DDR3)",
        &names,
        &columns,
        20,
        &rows,
    );
    // Best policy per fast-level size, by gmean across workloads.
    let _ = writeln!(o, "\n## best policy per fast-level size (gmean)");
    for (di, den) in RATIO_DENS.iter().enumerate() {
        let mut ranked: Vec<(&str, f64)> = POLICY_KEYS
            .iter()
            .enumerate()
            .map(|(pi, key)| {
                let col: Vec<f64> = rows.iter().map(|r| r[pi * RATIO_DENS.len() + di]).collect();
                (policy_label(key), gmean_improvement(&col))
            })
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
        let (best, g) = ranked[0];
        let _ = writeln!(o, "1/{den:<4} {best} {}", pct(g));
    }
    o
}

fn build_policy_search_adapt(p: &BuildParams) -> Vec<JobSpec> {
    let names = filter(&p.only, POLICY_ADAPT_WORKLOADS.to_vec());
    let mut jobs = Vec::new();
    for name in names {
        for key in POLICY_ADAPTIVE {
            // Explicit tokens throughout (including paper_fixed): this
            // experiment reads the report's `policy` accounting block,
            // which only materialises when a policy is installed.
            jobs.push(job(
                p,
                format!("policy_search_adapt/{name}/{key}"),
                "das",
                name,
                Overrides {
                    policy: Some(key.to_string()),
                    ..Overrides::default()
                },
            ));
        }
    }
    jobs
}

fn render_policy_search_adapt(ctx: &RenderCtx) -> String {
    let names = ctx.group_names();
    let mut o = String::new();
    let _ = writeln!(
        o,
        "Policy search: adaptive-controller trajectories (DAS-DRAM)"
    );
    for name in &names {
        let _ = writeln!(o, "\n## {name}");
        for key in POLICY_ADAPTIVE {
            let r = ctx.by_id(&format!("policy_search_adapt/{name}/{key}"));
            let _ = writeln!(
                o,
                "{:<16} promotes={:>6}  demotes={:>5}  holds={:>8}  \
                 adjusts={:>4}  epochs={:>3}  final_threshold={}",
                policy_label(key),
                r.u64("metrics/policy/promotes"),
                r.u64("metrics/policy/demotes"),
                r.u64("metrics/policy/holds"),
                r.u64("metrics/policy/threshold_adjusts"),
                r.u64("metrics/policy/epochs"),
                r.u64("metrics/policy/final_threshold"),
            );
        }
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Manifest;

    fn tiny_params() -> BuildParams {
        BuildParams::new(100_000, 64)
    }

    #[test]
    fn every_experiment_builds_a_valid_manifest() {
        let p = tiny_params();
        let experiments = ALL
            .iter()
            .map(|e| crate::manifest::ExperimentPlan {
                id: e.id.to_string(),
                jobs: (e.build)(&p),
            })
            .collect();
        let m = Manifest {
            insts: p.insts,
            scale: p.scale,
            experiments,
        };
        m.validate().expect("full grid validates");
        let total: usize = m.experiments.iter().map(|e| e.jobs.len()).sum();
        assert!(total > 800, "the full grid is substantial: {total}");
        // Round-trips through text.
        let back = Manifest::parse(&m.render()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn only_filter_prunes_the_grid() {
        let mut p = tiny_params();
        p.only = vec!["mcf".to_string()];
        let jobs = (by_id("fig7a").unwrap().build)(&p);
        assert_eq!(jobs.len(), 6, "one workload: baseline + five designs");
        assert!(jobs.iter().all(|j| j.id.contains("/mcf/")));
    }

    #[test]
    fn job_order_matches_the_legacy_binaries() {
        let p = tiny_params();
        let fig7c = (by_id("fig7c").unwrap().build)(&p);
        // Panel-major: every SAS job precedes every DAS job.
        let first_das = fig7c.iter().position(|j| j.design == "das").unwrap();
        assert!(fig7c[..first_das].iter().all(|j| j.design == "sas"));
        let sweep = (by_id("fault_sweep").unwrap().build)(&p);
        assert_eq!(sweep.len(), 25);
        assert!(sweep[0].id.ends_with("/clean"));
        let tele = (by_id("telemetry").unwrap().build)(&p);
        assert_eq!(tele[0].ov.telemetry_epoch, Some(EPOCH_CYCLES));
        assert!(tele[0].ov.trace_path.is_some());
    }

    #[test]
    fn cross_arch_family_covers_all_backends() {
        let p = tiny_params();
        // rank: per workload, a DDR3 baseline plus every backend.
        let rank = (by_id("cross_arch_rank").unwrap().build)(&p);
        assert_eq!(rank.len(), spec::names().len() * 6);
        let mcf_designs: Vec<&str> = rank
            .iter()
            .filter(|j| j.id.contains("/mcf/"))
            .map(|j| j.design.as_str())
            .collect();
        let backend_keys: Vec<&str> = Design::backends().iter().map(|d| d.key()).collect();
        assert_eq!(mcf_designs, backend_keys);
        // sweep: TL-DRAM excluded (its placement pins ratio 1/4).
        let sweep = (by_id("cross_arch_sweep").unwrap().build)(&p);
        assert!(sweep.iter().all(|j| j.design != "tl" && j.design != "salp"));
        assert_eq!(
            sweep.len(),
            spec::names().len() * (1 + CROSS_SWEEP_KEYS.len() * RATIO_DENS.len())
        );
        // copy: pointer workloads only, FM bound included.
        let copy = (by_id("cross_arch_copy").unwrap().build)(&p);
        assert_eq!(copy.len(), POINTER_WORKLOADS.len() * 5);
        assert!(copy.iter().any(|j| j.design == "das_fm"));
        // salp: composition overrides arm SALP on asymmetric designs.
        let salp = (by_id("cross_arch_salp").unwrap().build)(&p);
        assert!(salp
            .iter()
            .any(|j| j.design == "lisa" && j.ov.salp == Some(true)));
        // area: single pinned workload.
        let area = (by_id("cross_arch_area").unwrap().build)(&p);
        assert_eq!(area.len(), 6);
        assert!(area.iter().all(|j| j.workload == "mcf"));
        // mixes at the multi-programming budget.
        let mix = (by_id("cross_arch_mix").unwrap().build)(&p);
        assert_eq!(mix.len(), mixes::names().len() * 6);
        assert!(mix
            .iter()
            .all(|j| j.insts == multi_insts(&p) && j.workload.starts_with("mix:")));
    }

    #[test]
    fn workload_classes_partition_the_benchmarks() {
        let streaming = spec::names()
            .into_iter()
            .filter(|n| workload_class(n) == "streaming")
            .count();
        assert_eq!(streaming, STREAMING_CLASS.len());
        assert_eq!(
            spec::names().len() - streaming,
            POINTER_WORKLOADS.len(),
            "every benchmark is classified"
        );
    }

    #[test]
    fn families_group_the_catalog() {
        assert_eq!(family_of("cross_arch_rank"), "cross_arch");
        assert_eq!(family_of("fig7a"), "fig7");
        assert_eq!(family_of("ablation_salp"), "ablation");
        assert_eq!(family_of("powerdown"), "power");
        assert_eq!(family_of("fault_sweep"), "fault_sweep");
        assert_eq!(family_of("telemetry"), "telemetry");
        assert_eq!(family_of("coherent_rank"), "coherent");
        assert_eq!(family_of("policy_search_rank"), "policy_search");
        let cross: Vec<&str> = ids()
            .into_iter()
            .filter(|id| family_of(id) == "cross_arch")
            .collect();
        assert_eq!(cross.len(), 6);
        let coherent: Vec<&str> = ids()
            .into_iter()
            .filter(|id| family_of(id) == "coherent")
            .collect();
        assert_eq!(coherent.len(), 3);
        let policy: Vec<&str> = ids()
            .into_iter()
            .filter(|id| family_of(id) == "policy_search")
            .collect();
        assert_eq!(
            policy,
            [
                "policy_search_rank",
                "policy_search_size",
                "policy_search_adapt"
            ]
        );
    }

    #[test]
    fn policy_family_spans_policy_backend_and_size() {
        let p = tiny_params();
        // rank: per workload, a DDR3 baseline plus every policy on every
        // dynamic exclusive backend.
        let rank = (by_id("policy_search_rank").unwrap().build)(&p);
        assert_eq!(
            rank.len(),
            spec::names().len() * (1 + POLICY_BACKENDS.len() * POLICY_KEYS.len())
        );
        // paper_fixed columns omit the override (absence == the paper's
        // fixed-threshold path, so CI can strip-compare their journal
        // lines against the policy-free goldens); all others carry it.
        for j in &rank {
            if j.id.ends_with("_paper_fixed") || j.id.ends_with("/std") {
                assert_eq!(j.ov.policy, None, "{}", j.id);
            } else {
                assert!(j.ov.policy.is_some(), "{}", j.id);
            }
        }
        // size: policy x fast-ratio grid on DAS, plus the baseline.
        let size = (by_id("policy_search_size").unwrap().build)(&p);
        assert_eq!(
            size.len(),
            spec::names().len() * (1 + POLICY_KEYS.len() * RATIO_DENS.len())
        );
        assert!(
            size.iter()
                .any(|j| j.ov.policy.as_deref() == Some("feedback")
                    && j.ov.fast_ratio_den == Some(32))
        );
        // adapt: explicit tokens throughout so the policy block renders.
        let adapt = (by_id("policy_search_adapt").unwrap().build)(&p);
        assert_eq!(
            adapt.len(),
            POLICY_ADAPT_WORKLOADS.len() * POLICY_ADAPTIVE.len()
        );
        assert!(adapt.iter().all(|j| j.ov.policy.is_some()));
        // the only-filter prunes on workload.
        let mut only = tiny_params();
        only.only = vec!["mcf".to_string()];
        let pruned = (by_id("policy_search_rank").unwrap().build)(&only);
        assert_eq!(pruned.len(), 1 + POLICY_BACKENDS.len() * POLICY_KEYS.len());
        assert!(pruned.iter().all(|j| j.id.contains("/mcf/")));
    }

    #[test]
    fn coherent_family_spans_protocol_backend_and_sharing() {
        let p = tiny_params();
        // rank: per shared kind, a DDR3 baseline plus every backend, all
        // at the multi-programming budget (four cores share the system).
        let rank = (by_id("coherent_rank").unwrap().build)(&p);
        assert_eq!(rank.len(), SHARED_KINDS.len() * (1 + CROSS_KEYS.len()));
        assert!(rank
            .iter()
            .all(|j| j.workload.starts_with("shared:") && j.insts == multi_insts(&p)));
        assert!(rank.iter().all(|j| j.ov.protocol.is_none()), "MESI default");
        // protocol: every kind under both protocols, std + das.
        let proto = (by_id("coherent_protocol").unwrap().build)(&p);
        assert_eq!(proto.len(), SHARED_KINDS.len() * COH_PROTOCOLS.len() * 2);
        assert!(proto
            .iter()
            .any(|j| j.ov.protocol.as_deref() == Some("dragon") && j.design == "das"));
        // sharing: every kind at each sharing level, std + das.
        let sharing = (by_id("coherent_sharing").unwrap().build)(&p);
        assert_eq!(sharing.len(), SHARED_KINDS.len() * SHARING_LEVELS.len() * 2);
        assert!(sharing
            .iter()
            .any(|j| j.ov.sharing.as_deref() == Some("high")));
        // the only-filter prunes on shared kind.
        let mut only = tiny_params();
        only.only = vec!["lock".to_string()];
        let pruned = (by_id("coherent_rank").unwrap().build)(&only);
        assert_eq!(pruned.len(), 1 + CROSS_KEYS.len());
        assert!(pruned.iter().all(|j| j.workload == "shared:lock"));
    }

    #[test]
    fn migration_swap_ticks_match_the_legacy_constants() {
        let v = migration_variants();
        assert_eq!(v[0].2, 0);
        assert_eq!(v[1].2, 3510, "3 tRC at 1170 ticks");
        assert_eq!(v[2].2, 5265, "4.5 tRC");
        assert_eq!(v[3].2, 7020, "6 tRC");
    }
}
