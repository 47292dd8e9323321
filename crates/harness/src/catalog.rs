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
//!
//! Every experiment's run matrix is a grid: rows (workloads) × columns
//! (`(id segment, design key, overrides)`).
//! One private builder turns a grid into jobs, row-major, at one seed,
//! with job id `<exp>/<row>/<seg>`; renderers read a cell back by
//! `(row, seg)` through [`RenderCtx::cell`] and never spell an id.

use std::fmt::Write as _;

use das_dram::geometry::Arrangement;
use das_dram::timing::TimingSet;
use das_sim::config::{Design, SystemConfig, DEFAULT_SEED};
use das_sim::stats::gmean_improvement;
use das_workloads::{mixes, spec};

use crate::manifest::{JobSpec, Overrides};
use crate::render::{access_mix_line, cell_id, gmean_row, improvement_table, pct, RenderCtx};
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
/// (`telemetry`).
pub fn family_of(id: &str) -> &str {
    FAMILIES
        .iter()
        .find(|f| id.starts_with(*f))
        .copied()
        .unwrap_or(id)
}

// ---------------------------------------------------------------------------
// Shared building blocks: the grid
// ---------------------------------------------------------------------------

/// The Fig. 7 non-baseline design keys, paper order.
const FIG7_KEYS: [&str; 5] = ["sas", "charm", "das", "das_fm", "fs"];
/// Promotion-filter thresholds of Fig. 8.
const THRESHOLDS: [u32; 4] = [8, 4, 2, 1];
/// Telemetry epoch length in CPU cycles (the legacy binary's constant).
const EPOCH_CYCLES: u64 = 100_000;

/// The rows of a grid: their names (the id's row segment), the workload
/// token each row runs and the per-core instruction budget.
struct Rows {
    names: Vec<&'static str>,
    workload: fn(&str) -> String,
    insts: u64,
}

/// One column of a grid: `(id segment, design key, overrides)`.
type Col = (String, &'static str, Overrides);

/// Builds the jobs of `rows × cols`, row-major. Cell `(row, seg)` is job
/// [`cell_id`]`(exp, row, seg)`, which renderers read back through
/// [`RenderCtx::cell`].
fn grid(p: &BuildParams, exp: &str, rows: &Rows, cols: &[Col]) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for row in &rows.names {
        for (seg, design, ov) in cols {
            jobs.push(JobSpec {
                id: cell_id(exp, row, seg),
                design: design.to_string(),
                workload: (rows.workload)(row),
                insts: rows.insts,
                scale: p.scale,
                seed: DEFAULT_SEED,
                ov: ov.clone(),
            });
        }
    }
    jobs
}

fn filter(only: &[String], names: &[&'static str]) -> Vec<&'static str> {
    names
        .iter()
        .filter(|n| only.is_empty() || only.iter().any(|o| o == *n))
        .copied()
        .collect()
}

fn bench(name: &str) -> String {
    name.to_string()
}

/// Named benchmarks at the full budget, pruned by `--only`.
fn benches(p: &BuildParams, names: &[&'static str]) -> Rows {
    Rows {
        names: filter(&p.only, names),
        workload: bench,
        insts: p.insts,
    }
}

/// Every single-programming benchmark.
fn singles(p: &BuildParams) -> Rows {
    benches(p, &spec::names())
}

/// Half the single-programming budget per core: four cores share the
/// memory system.
fn multi_insts(p: &BuildParams) -> u64 {
    (p.insts / 2).max(1)
}

/// The four-program mixes.
fn mix_rows(p: &BuildParams) -> Rows {
    Rows {
        names: filter(&p.only, &mixes::names()),
        workload: |m| format!("mix:{m}"),
        insts: multi_insts(p),
    }
}

/// The shared-footprint kinds of the coherent front end.
fn shared_rows(p: &BuildParams) -> Rows {
    Rows {
        names: filter(&p.only, &SHARED_KINDS),
        workload: |k| format!("shared:{k}"),
        insts: multi_insts(p),
    }
}

/// One default-override column per design key, segment = key.
fn designs(keys: &[&'static str]) -> Vec<Col> {
    keys.iter()
        .map(|&k| (k.to_string(), k, Overrides::default()))
        .collect()
}

/// `cols` after the Std-DRAM baseline column `std`.
fn with_std(cols: Vec<Col>) -> Vec<Col> {
    designs(&["std"]).into_iter().chain(cols).collect()
}

/// The id segments of `cols`.
fn segs(cols: &[Col]) -> Vec<&str> {
    cols.iter().map(|(seg, ..)| seg.as_str()).collect()
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

fn design_labels(keys: &[&str]) -> Vec<&'static str> {
    keys.iter().map(|k| design_label(k)).collect()
}

/// Per row, the improvement of each column's cell over its baseline
/// cell: `cols` pairs an id segment with its baseline's segment.
fn improvements<'a, S: AsRef<str>, B: AsRef<str>>(
    ctx: &RenderCtx<'a>,
    cols: &[(S, B)],
) -> (Vec<&'a str>, Vec<Vec<f64>>) {
    let names = ctx.group_names();
    let rows = names
        .iter()
        .map(|row| {
            cols.iter()
                .map(|(seg, base)| {
                    ctx.cell(row, seg.as_ref())
                        .improvement_over(&ctx.cell(row, base.as_ref()))
                })
                .collect()
        })
        .collect();
    (names, rows)
}

/// [`improvements`] of `segs` over each row's Std-DRAM cell.
fn over_std<'a>(ctx: &RenderCtx<'a>, segs: &[&str]) -> (Vec<&'a str>, Vec<Vec<f64>>) {
    let cols: Vec<(&str, &str)> = segs.iter().map(|s| (*s, "std")).collect();
    improvements(ctx, &cols)
}

/// An improvement table of `segs` over each row's Std-DRAM cell, with a
/// gmean row.
fn sweep_table(
    ctx: &RenderCtx,
    title: &str,
    segs: &[&str],
    columns: &[impl AsRef<str>],
    width: usize,
) -> String {
    let (names, rows) = over_std(ctx, segs);
    let mut out = String::new();
    improvement_table(&mut out, title, &names, columns, width, &rows);
    out
}

/// `(label, gmean of its column of rows)`, best first (ties by label).
fn ranked<'l>(labels: &[&'l str], rows: &[Vec<f64>]) -> Vec<(&'l str, f64)> {
    let mut ranked: Vec<(&str, f64)> = labels
        .iter()
        .enumerate()
        .map(|(i, &label)| {
            let col: Vec<f64> = rows.iter().map(|r| r[i]).collect();
            (label, gmean_improvement(&col))
        })
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
    ranked
}

/// Writes `head`, then the columns ranked by gmean and joined with `>`;
/// nothing at all when there are no rows to rank.
fn write_ranking(o: &mut String, head: &str, labels: &[&str], rows: &[Vec<f64>]) {
    if rows.is_empty() {
        return;
    }
    let _ = write!(o, "{head}");
    for (i, (label, g)) in ranked(labels, rows).iter().enumerate() {
        let sep = if i > 0 { "  >" } else { "" };
        let _ = write!(o, "{sep} {label} {}", pct(*g));
    }
    let _ = writeln!(o);
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
    grid(p, "fig7a", &singles(p), &with_std(designs(&FIG7_KEYS)))
}

fn render_fig7a(ctx: &RenderCtx) -> String {
    sweep_table(
        ctx,
        "Figure 7a: Single-Programming Performance Improvements",
        &FIG7_KEYS,
        &design_labels(&FIG7_KEYS),
        14,
    )
}

fn build_fig7b(p: &BuildParams) -> Vec<JobSpec> {
    grid(p, "fig7b", &singles(p), &designs(&["das"]))
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
        let r = ctx.cell(name, "das");
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

/// Fig. 7c/7f panels: every row on SAS-DRAM, then every row on DAS-DRAM.
fn access_mix_panels(p: &BuildParams, exp: &str, rows: &Rows) -> Vec<JobSpec> {
    ["sas", "das"]
        .into_iter()
        .flat_map(|key| grid(p, exp, rows, &designs(&[key])))
        .collect()
}

fn render_access_mix_panels(ctx: &RenderCtx, title: &str) -> String {
    let mut o = String::new();
    let _ = writeln!(o, "# {title}");
    for (panel, key) in [("Static (SAS-DRAM)", "sas"), ("Dynamic (DAS-DRAM)", "das")] {
        let _ = writeln!(o, "## {panel}");
        for name in ctx.group_names() {
            access_mix_line(&mut o, name, &ctx.cell(name, key));
        }
    }
    o
}

fn build_fig7c(p: &BuildParams) -> Vec<JobSpec> {
    access_mix_panels(p, "fig7c", &singles(p))
}

fn render_fig7c(ctx: &RenderCtx) -> String {
    render_access_mix_panels(ctx, "Figure 7c: Access Locations (single-programming)")
}

fn build_fig7d(p: &BuildParams) -> Vec<JobSpec> {
    grid(p, "fig7d", &mix_rows(p), &with_std(designs(&FIG7_KEYS)))
}

fn render_fig7d(ctx: &RenderCtx) -> String {
    sweep_table(
        ctx,
        "Figure 7d: Multi-Programming Performance Improvements",
        &FIG7_KEYS,
        &design_labels(&FIG7_KEYS),
        14,
    )
}

fn build_fig7e(p: &BuildParams) -> Vec<JobSpec> {
    grid(p, "fig7e", &mix_rows(p), &designs(&["das"]))
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
        let r = ctx.cell(name, "das");
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
    access_mix_panels(p, "fig7f", &mix_rows(p))
}

fn render_fig7f(ctx: &RenderCtx) -> String {
    render_access_mix_panels(ctx, "Figure 7f: Access Locations (multi-programming)")
}

// ---------------------------------------------------------------------------
// Figure 8 (promotion-filter thresholds)
// ---------------------------------------------------------------------------

/// One DAS column per promotion threshold, segment `t<threshold>`.
fn threshold_cols() -> Vec<Col> {
    THRESHOLDS
        .iter()
        .map(|&t| {
            let ov = Overrides {
                threshold: Some(t),
                ..Overrides::default()
            };
            (format!("t{t}"), "das", ov)
        })
        .collect()
}

fn build_fig8a(p: &BuildParams) -> Vec<JobSpec> {
    grid(p, "fig8a", &singles(p), &with_std(threshold_cols()))
}

fn render_fig8a(ctx: &RenderCtx) -> String {
    let columns = THRESHOLDS.map(|t| format!("threshold {t}"));
    sweep_table(
        ctx,
        "Figure 8a: Filtering Policies - Performance Improvement",
        &segs(&threshold_cols()),
        &columns,
        12,
    )
}

fn build_fig8b(p: &BuildParams) -> Vec<JobSpec> {
    grid(p, "fig8b", &singles(p), &threshold_cols())
}

fn render_fig8b(ctx: &RenderCtx) -> String {
    let mut o = String::new();
    let _ = writeln!(o, "# Figure 8b: Access Locations vs Promotion Threshold");
    for name in ctx.group_names() {
        let _ = writeln!(o, "## {name}");
        for (t, (seg, ..)) in THRESHOLDS.iter().zip(threshold_cols()) {
            access_mix_line(&mut o, &format!("threshold {t}"), &ctx.cell(name, &seg));
        }
    }
    o
}

fn build_fig8c(p: &BuildParams) -> Vec<JobSpec> {
    grid(p, "fig8c", &singles(p), &threshold_cols())
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
        for (seg, ..) in threshold_cols() {
            let r = ctx.cell(name, &seg);
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

fn tcache_cols() -> Vec<Col> {
    CAPS_KB
        .iter()
        .map(|&kb| {
            let ov = Overrides {
                tcache_bytes: Some(kb << 10),
                ..Overrides::default()
            };
            (format!("kb{kb}"), "das", ov)
        })
        .collect()
}

fn build_fig9a(p: &BuildParams) -> Vec<JobSpec> {
    grid(p, "fig9a", &singles(p), &with_std(tcache_cols()))
}

fn render_fig9a(ctx: &RenderCtx) -> String {
    sweep_table(
        ctx,
        "Figure 9a: Translation Cache Capacities (full-scale labels)",
        &segs(&tcache_cols()),
        &CAPS_KB.map(|kb| format!("{kb} KB")),
        10,
    )
}

fn group_cols() -> Vec<Col> {
    GROUPS
        .iter()
        .map(|&g| {
            let ov = Overrides {
                group_size: Some(g),
                ..Overrides::default()
            };
            (format!("g{g}"), "das", ov)
        })
        .collect()
}

fn build_fig9b(p: &BuildParams) -> Vec<JobSpec> {
    grid(p, "fig9b", &singles(p), &with_std(group_cols()))
}

fn render_fig9b(ctx: &RenderCtx) -> String {
    sweep_table(
        ctx,
        "Figure 9b: Sizes of Migration Group",
        &segs(&group_cols()),
        &GROUPS.map(|g| format!("{g}-row")),
        12,
    )
}

/// One DAS column per fast-level ratio under `replacement`, segment
/// `d<denominator>`.
fn ratio_cols(replacement: &str) -> Vec<Col> {
    RATIO_DENS
        .iter()
        .map(|&den| {
            let ov = Overrides {
                fast_ratio_den: Some(den),
                replacement: Some(replacement.to_string()),
                ..Overrides::default()
            };
            (format!("d{den}"), "das", ov)
        })
        .collect()
}

fn render_ratio_sweep(ctx: &RenderCtx, replacement: &str, title: &str) -> String {
    let columns = RATIO_DENS.map(|d| format!("1/{d}"));
    sweep_table(ctx, title, &segs(&ratio_cols(replacement)), &columns, 10)
}

fn build_fig9c(p: &BuildParams) -> Vec<JobSpec> {
    grid(p, "fig9c", &singles(p), &with_std(ratio_cols("random")))
}

fn render_fig9c(ctx: &RenderCtx) -> String {
    render_ratio_sweep(
        ctx,
        "random",
        "Figure 9c: Ratios of Fast Level with Random Replacement",
    )
}

fn build_fig9d(p: &BuildParams) -> Vec<JobSpec> {
    grid(p, "fig9d", &singles(p), &with_std(ratio_cols("lru")))
}

fn render_fig9d(ctx: &RenderCtx) -> String {
    render_ratio_sweep(
        ctx,
        "lru",
        "Figure 9d: Ratios of Fast Level with LRU Replacement",
    )
}

// ---------------------------------------------------------------------------
// §7.7 power and the partial power-down extension
// ---------------------------------------------------------------------------

fn build_power(p: &BuildParams) -> Vec<JobSpec> {
    grid(p, "power", &singles(p), &with_std(designs(&FIG7_KEYS)))
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
    let energy = |name: &str, key: &str| ctx.cell(name, key).f64("metrics/energy_nj/total");
    for name in &names {
        let _ = write!(o, "{name:<12}");
        for key in FIG7_KEYS {
            let _ = write!(o, " {:>9.3}x", energy(name, key) / energy(name, "std"));
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
        let r = ctx.cell(name, "das");
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
/// The power-down experiment's designs.
const PD_KEYS: [&str; 3] = ["std", "sas", "das"];

fn build_powerdown(p: &BuildParams) -> Vec<JobSpec> {
    grid(p, "powerdown", &singles(p), &designs(&PD_KEYS))
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
        for key in PD_KEYS {
            let r = ctx.cell(name, key);
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
fn migration_variants() -> [(&'static str, &'static str, u64); 4] {
    let trc = TimingSet::asymmetric().slow.trc();
    [
        ("free", "free", 0),
        ("paper 3tRC", "paper", (3 * trc).raw()),
        ("naive 4.5tRC", "naive", trc.raw() * 9 / 2),
        ("untight 6tRC", "untight", (6 * trc).raw()),
    ]
}

fn build_ablation_migration(p: &BuildParams) -> Vec<JobSpec> {
    let cols = migration_variants().map(|(_, seg, swap)| {
        let ov = Overrides {
            swap_ticks: Some(swap),
            ..Overrides::default()
        };
        (seg.to_string(), "das", ov)
    });
    grid(
        p,
        "ablation_migration",
        &singles(p),
        &with_std(cols.to_vec()),
    )
}

fn render_ablation_migration(ctx: &RenderCtx) -> String {
    let variants = migration_variants();
    sweep_table(
        ctx,
        "Ablation: Migration Mechanism (DAS-DRAM improvement over Std-DRAM)",
        &variants.map(|(_, seg, _)| seg),
        &variants.map(|(label, ..)| label),
        14,
    )
}

/// One column per design and scheduler, segment `<design>_<scheduler>`.
fn sched_cols() -> Vec<Col> {
    let mut cols = Vec::new();
    for design in ["std", "das"] {
        for sched in ["frfcfs", "fcfs"] {
            let ov = Overrides {
                scheduler: Some(sched.to_string()),
                ..Overrides::default()
            };
            cols.push((format!("{design}_{sched}"), design, ov));
        }
    }
    cols
}

fn build_ablation_scheduler(p: &BuildParams) -> Vec<JobSpec> {
    grid(p, "ablation_scheduler", &singles(p), &sched_cols())
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
        let _ = write!(o, "{name:<12}");
        for (seg, ..) in sched_cols() {
            let ipc = ctx.cell(name, &seg).core_ipcs()[0];
            let _ = write!(o, " {ipc:>12.3}");
        }
        let _ = writeln!(o);
    }
    o
}

/// The §Fig. 5 arrangement variants: `(label, arrangement key and id
/// segment, mean hop count on the full-scale bank, swap ticks at that hop
/// count)`.
fn arrangement_variants() -> [(&'static str, &'static str, u32, u64); 2] {
    use das_core::groups::BankGroups;
    use das_dram::geometry::BankLayout;
    let mgmt = SystemConfig::paper_full().management;
    let t = TimingSet::asymmetric();
    // Each subarray boundary beyond the first relays both directions of the
    // swap through one more migration row, at half a tRC per relay.
    let per_hop = t.slow.trc().raw() / 2;
    let variant = |label, key, arr| {
        // Hop distance is a property of the full-scale physical design, so
        // compute it on the paper's 32768-row bank regardless of scale.
        let full = BankLayout::build(32768, mgmt.fast_ratio, arr, 128, 512);
        let groups = BankGroups::new(32768, mgmt.group_size, mgmt.fast_ratio);
        let hops = groups.mean_intra_group_hops(&full).round().max(1.0) as u32;
        let swap = t.swap.raw() + 2 * u64::from(hops - 1) * per_hop;
        (label, key, hops, swap)
    };
    [
        variant(
            "reduced-interleaving",
            "reduced",
            Arrangement::ReducedInterleaving,
        ),
        variant("partitioning", "partitioning", Arrangement::Partitioning),
    ]
}

fn build_ablation_arrangement(p: &BuildParams) -> Vec<JobSpec> {
    let cols = arrangement_variants().map(|(_, key, _, swap)| {
        let ov = Overrides {
            arrangement: Some(key.to_string()),
            swap_ticks: Some(swap),
            ..Overrides::default()
        };
        (key.to_string(), "das", ov)
    });
    grid(
        p,
        "ablation_arrangement",
        &singles(p),
        &with_std(cols.to_vec()),
    )
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
    let (names, rows) = over_std(ctx, &variants.map(|(_, key, ..)| key));
    for (name, row) in names.iter().zip(&rows) {
        let _ = write!(o, "{name:<12}");
        for (imp, (_, _, hops, _)) in row.iter().zip(variants) {
            let _ = write!(o, " {:>22}", format!("{} (hops {})", pct(*imp), hops));
        }
        let _ = writeln!(o);
    }
    gmean_row(&mut o, &rows, variants.len(), 22);
    o
}

fn build_ablation_inclusive(p: &BuildParams) -> Vec<JobSpec> {
    grid(
        p,
        "ablation_inclusive",
        &singles(p),
        &designs(&["std", "das", "das_incl"]),
    )
}

fn render_ablation_inclusive(ctx: &RenderCtx) -> String {
    let cfg = SystemConfig::scaled_by(ctx.scale, ctx.insts);
    let layout = cfg.bank_layout();
    let usable_excl = cfg.geometry.table_base();
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
    let (names, rows) = over_std(ctx, &["das", "das_incl"]);
    for (name, row) in names.iter().zip(&rows) {
        let _ = writeln!(
            o,
            "{:<12} {:>12} {:>12} {:>14} {:>14}",
            name,
            pct(row[0]),
            pct(row[1]),
            ctx.cell(name, "das").u64("metrics/promotions"),
            ctx.cell(name, "das_incl").u64("metrics/promotions")
        );
    }
    gmean_row(&mut o, &rows, 2, 12);
    let _ = writeln!(
        o,
        "\nPerformance is comparable; the exclusive design is adopted for the\n\
         ~12.5% capacity it refuses to forfeit (§5: \"we adopt the\n\
         exclusive-cache approach mainly because of the total capacity concern\")."
    );
    o
}

fn build_ablation_tldram(p: &BuildParams) -> Vec<JobSpec> {
    grid(
        p,
        "ablation_tldram",
        &singles(p),
        &designs(&["std", "tl", "das"]),
    )
}

fn render_ablation_tldram(ctx: &RenderCtx) -> String {
    use das_dram::area::{asymmetric_overhead, tl_dram_overhead, SLOW_PER_FAST};
    let mut o = String::new();
    let _ = writeln!(
        o,
        "# Ablation: TL-DRAM vs DAS-DRAM (improvement over Std-DRAM)"
    );
    let _ = writeln!(
        o,
        "area overhead: TL-DRAM {:.1}%  |  DAS-DRAM {:.1}%\n",
        tl_dram_overhead() * 100.0,
        asymmetric_overhead(SLOW_PER_FAST) * 100.0
    );
    let _ = writeln!(o, "{:<12} {:>12} {:>12}", "workload", "TL-DRAM", "DAS-DRAM");
    let (names, rows) = over_std(ctx, &["tl", "das"]);
    for (name, row) in names.iter().zip(&rows) {
        let _ = writeln!(o, "{:<12} {:>12} {:>12}", name, pct(row[0]), pct(row[1]));
    }
    gmean_row(&mut o, &rows, 2, 12);
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
    let cols = SALP_COMBOS.map(|(seg, _, key, salp)| {
        let ov = Overrides {
            salp: Some(salp),
            ..Overrides::default()
        };
        (seg.to_string(), key, ov)
    });
    grid(p, "ablation_salp", &singles(p), &cols)
}

fn render_ablation_salp(ctx: &RenderCtx) -> String {
    let mut o = sweep_table(
        ctx,
        "Ablation: SALP Composition (improvement over Std-DRAM without SALP)",
        &SALP_COMBOS.map(|(seg, ..)| seg),
        &SALP_COMBOS.map(|(_, label, ..)| label),
        12,
    );
    let _ = writeln!(
        o,
        "\nSALP removes row-buffer conflicts; DAS removes activation latency —\n\
         the two compose, as §8 argues for parallelism-oriented proposals."
    );
    o
}

/// Page-policy combos: `(id segment, column label, design key, policy key)`.
const PAGE_COMBOS: [(&str, &str, &str, &str); 4] = [
    ("std_closed", "Std closed", "std", "closed"),
    ("das_open", "DAS open", "das", "open"),
    ("das_closed", "DAS closed", "das", "closed"),
    ("fs_open", "FS open", "fs", "open"),
];

fn build_ablation_pagepolicy(p: &BuildParams) -> Vec<JobSpec> {
    let cols = PAGE_COMBOS.map(|(seg, _, key, policy)| {
        let ov = Overrides {
            page_policy: Some(policy.to_string()),
            ..Overrides::default()
        };
        (seg.to_string(), key, ov)
    });
    grid(
        p,
        "ablation_pagepolicy",
        &singles(p),
        &with_std(cols.to_vec()),
    )
}

fn render_ablation_pagepolicy(ctx: &RenderCtx) -> String {
    sweep_table(
        ctx,
        "Ablation: Page Policy (improvement over open-page Std-DRAM)",
        &PAGE_COMBOS.map(|(seg, ..)| seg),
        &PAGE_COMBOS.map(|(_, label, ..)| label),
        12,
    )
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

fn build_telemetry(p: &BuildParams) -> Vec<JobSpec> {
    let ov = Overrides {
        telemetry_epoch: Some(EPOCH_CYCLES),
        trace_path: Some(TELEMETRY_TRACE.to_string()),
        ..Overrides::default()
    };
    grid(
        p,
        "telemetry",
        &benches(p, &["mcf"]),
        &[("das".to_string(), "das", ov)],
    )
}

fn render_telemetry(ctx: &RenderCtx) -> String {
    let Some(job) = ctx.jobs.first() else {
        return "# telemetry: no workload selected\n".to_string();
    };
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

/// Non-baseline backend design keys, catalog order.
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

/// Appends a gmean-ranking block: backends ordered by gmean IPC
/// improvement over the DDR3 baseline, one ranking per workload class;
/// nothing when there are no rows.
fn write_class_ranking(o: &mut String, names: &[&str], rows: &[Vec<f64>], keys: &[&str]) {
    if rows.is_empty() {
        return;
    }
    let _ = writeln!(
        o,
        "\n## ranking by gmean IPC improvement over {} (per workload class)",
        design_label("std")
    );
    let mut classes: Vec<&str> = names.iter().map(|n| workload_class(n)).collect();
    classes.sort_unstable();
    classes.dedup();
    for class in classes {
        let member_rows: Vec<Vec<f64>> = names
            .iter()
            .zip(rows)
            .filter(|(n, _)| workload_class(n) == class)
            .map(|(_, r)| r.clone())
            .collect();
        let head = format!("{:<12}", format!("{class}:"));
        write_ranking(o, &head, &design_labels(keys), &member_rows);
    }
}

fn build_cross_arch_rank(p: &BuildParams) -> Vec<JobSpec> {
    grid(
        p,
        "cross_arch_rank",
        &singles(p),
        &with_std(designs(&CROSS_KEYS)),
    )
}

fn render_cross_arch_rank(ctx: &RenderCtx) -> String {
    let (names, rows) = over_std(ctx, &CROSS_KEYS);
    let mut o = String::new();
    improvement_table(
        &mut o,
        "Cross-architecture: IPC improvement over DDR3 baseline",
        &names,
        &design_labels(&CROSS_KEYS),
        14,
        &rows,
    );
    write_class_ranking(&mut o, &names, &rows, &CROSS_KEYS);
    o
}

fn build_cross_arch_mix(p: &BuildParams) -> Vec<JobSpec> {
    grid(
        p,
        "cross_arch_mix",
        &mix_rows(p),
        &with_std(designs(&CROSS_KEYS)),
    )
}

fn render_cross_arch_mix(ctx: &RenderCtx) -> String {
    sweep_table(
        ctx,
        "Cross-architecture: four-program mixes (weighted IPC improvement over DDR3)",
        &CROSS_KEYS,
        &design_labels(&CROSS_KEYS),
        14,
    )
}

/// One column per sweeping backend and fast-level ratio, segment
/// `<backend>_d<denominator>`.
fn cross_sweep_cols() -> Vec<Col> {
    let mut cols = Vec::new();
    for key in CROSS_SWEEP_KEYS {
        for den in RATIO_DENS {
            let ov = Overrides {
                fast_ratio_den: Some(den),
                ..Overrides::default()
            };
            cols.push((format!("{key}_d{den}"), key, ov));
        }
    }
    cols
}

fn build_cross_arch_sweep(p: &BuildParams) -> Vec<JobSpec> {
    grid(
        p,
        "cross_arch_sweep",
        &singles(p),
        &with_std(cross_sweep_cols()),
    )
}

fn render_cross_arch_sweep(ctx: &RenderCtx) -> String {
    let columns: Vec<String> = CROSS_SWEEP_KEYS
        .iter()
        .flat_map(|key| RATIO_DENS.iter().map(move |den| format!("{key} 1/{den}")))
        .collect();
    sweep_table(
        ctx,
        "Cross-architecture: fast-capacity sweep (TL-DRAM pinned to 1/4, omitted)",
        &segs(&cross_sweep_cols()),
        &columns,
        10,
    )
}

/// Copy-cost combos: designs distinguished purely by inter-row copy cost.
const COPY_KEYS: [&str; 4] = ["das", "das_fm", "lisa", "clr"];

fn build_cross_arch_copy(p: &BuildParams) -> Vec<JobSpec> {
    let rows = benches(p, &POINTER_WORKLOADS);
    grid(p, "cross_arch_copy", &rows, &with_std(designs(&COPY_KEYS)))
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
    o += &sweep_table(
        ctx,
        "IPC improvement over DDR3 baseline",
        &COPY_KEYS,
        &design_labels(&COPY_KEYS),
        14,
    );
    o
}

/// SALP composition combos: `(id segment, column label, design key, salp
/// override)`.
const CROSS_SALP_COMBOS: [(&str, &str, &str, Option<bool>); 5] = [
    ("salp", "SALP", "salp", None),
    ("das", "DAS", "das", None),
    ("das_salp", "DAS+SALP", "das", Some(true)),
    ("lisa", "LISA", "lisa", None),
    ("lisa_salp", "LISA+SALP", "lisa", Some(true)),
];

/// The SALP composition runs on three representative workloads (one
/// streaming, two irregular) to keep the grid bounded.
const CROSS_SALP_WORKLOADS: [&str; 3] = ["libquantum", "mcf", "omnetpp"];

fn build_cross_arch_salp(p: &BuildParams) -> Vec<JobSpec> {
    let cols = CROSS_SALP_COMBOS.map(|(seg, _, key, salp)| {
        let ov = Overrides {
            salp,
            ..Overrides::default()
        };
        (seg.to_string(), key, ov)
    });
    let rows = benches(p, &CROSS_SALP_WORKLOADS);
    grid(p, "cross_arch_salp", &rows, &with_std(cols.to_vec()))
}

fn render_cross_arch_salp(ctx: &RenderCtx) -> String {
    let mut o = sweep_table(
        ctx,
        "Cross-architecture: SALP composition (improvement over DDR3)",
        &CROSS_SALP_COMBOS.map(|(seg, ..)| seg),
        &CROSS_SALP_COMBOS.map(|(_, label, ..)| label),
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
    grid(
        p,
        "cross_arch_area",
        &benches(p, &["mcf"]),
        &with_std(designs(&CROSS_KEYS)),
    )
}

fn render_cross_arch_area(ctx: &RenderCtx) -> String {
    let (names, rows) = over_std(ctx, &CROSS_KEYS);
    let mut o = String::new();
    let _ = writeln!(
        o,
        "# Cross-architecture: performance per silicon area ({})",
        names.join("+")
    );
    if rows.is_empty() {
        return o;
    }
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

/// A Std-DRAM and a DAS-DRAM column per variant, segments
/// `<variant>_std` and `<variant>_das`, with `ov` for each variant.
fn std_das_cols(variants: &[&str], ov: impl Fn(&str) -> Overrides) -> Vec<Col> {
    let mut cols = Vec::new();
    for v in variants {
        for key in ["std", "das"] {
            cols.push((format!("{v}_{key}"), key, ov(v)));
        }
    }
    cols
}

/// Per row, each variant's DAS-DRAM cell over its own Std-DRAM cell.
fn das_over_std<'a>(ctx: &RenderCtx<'a>, variants: &[&str]) -> (Vec<&'a str>, Vec<Vec<f64>>) {
    let cols: Vec<(String, String)> = variants
        .iter()
        .map(|v| (format!("{v}_das"), format!("{v}_std")))
        .collect();
    improvements(ctx, &cols)
}

/// Appends one coherence-traffic line per row, read from the row's `seg`
/// cell's `metrics/coherence` block.
fn write_coherence_lines(o: &mut String, ctx: &RenderCtx, seg: &str) {
    for row in ctx.group_names() {
        let r = ctx.cell(row, seg);
        let _ = writeln!(
            o,
            "{row:<12} bus_tx={:>8}  inval={:>7}  interv={:>7}  upd={:>7}  \
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
    grid(
        p,
        "coherent_rank",
        &shared_rows(p),
        &with_std(designs(&CROSS_KEYS)),
    )
}

fn render_coherent_rank(ctx: &RenderCtx) -> String {
    let (names, rows) = over_std(ctx, &CROSS_KEYS);
    let labels = design_labels(&CROSS_KEYS);
    let mut o = String::new();
    improvement_table(
        &mut o,
        "Coherent front end: IPC improvement over DDR3 baseline (MESI, 4 cores)",
        &names,
        &labels,
        14,
        &rows,
    );
    write_ranking(&mut o, "\nranking:", &labels, &rows);
    let _ = writeln!(o, "\n## MESI coherence traffic (Std-DRAM backend)");
    write_coherence_lines(&mut o, ctx, "std");
    o
}

fn build_coherent_protocol(p: &BuildParams) -> Vec<JobSpec> {
    let cols = std_das_cols(&COH_PROTOCOLS, |proto| Overrides {
        protocol: Some(proto.to_string()),
        ..Overrides::default()
    });
    grid(p, "coherent_protocol", &shared_rows(p), &cols)
}

fn render_coherent_protocol(ctx: &RenderCtx) -> String {
    let (names, rows) = das_over_std(ctx, &COH_PROTOCOLS);
    let mut o = String::new();
    improvement_table(
        &mut o,
        "Coherent front end: protocol comparison (DAS-DRAM improvement over DDR3)",
        &names,
        &COH_PROTOCOLS.map(|p| format!("DAS {}", protocol_label(p))),
        14,
        &rows,
    );
    for proto in COH_PROTOCOLS {
        let _ = writeln!(
            o,
            "\n## {} coherence traffic (DAS-DRAM backend)",
            protocol_label(proto)
        );
        write_coherence_lines(&mut o, ctx, &format!("{proto}_das"));
    }
    o
}

fn build_coherent_sharing(p: &BuildParams) -> Vec<JobSpec> {
    let cols = std_das_cols(&SHARING_LEVELS, |level| Overrides {
        sharing: Some(level.to_string()),
        ..Overrides::default()
    });
    grid(p, "coherent_sharing", &shared_rows(p), &cols)
}

fn render_coherent_sharing(ctx: &RenderCtx) -> String {
    let (names, rows) = das_over_std(ctx, &SHARING_LEVELS);
    let mut o = String::new();
    improvement_table(
        &mut o,
        "Coherent front end: sharing-intensity sweep (DAS-DRAM improvement over DDR3)",
        &names,
        &SHARING_LEVELS,
        14,
        &rows,
    );
    let _ = writeln!(o, "\n## bus pressure vs sharing (DAS-DRAM backend, MESI)");
    for kind in &names {
        let _ = write!(o, "{kind:<12}");
        for level in SHARING_LEVELS {
            let r = ctx.cell(kind, &format!("{level}_das"));
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

fn policy_labels() -> Vec<&'static str> {
    POLICY_KEYS.iter().map(|k| policy_label(k)).collect()
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

/// The policy columns on one backend, segment `<backend>_<policy>`.
fn backend_policy_segs(backend: &str) -> Vec<String> {
    POLICY_KEYS
        .iter()
        .map(|key| format!("{backend}_{key}"))
        .collect()
}

fn build_policy_search_rank(p: &BuildParams) -> Vec<JobSpec> {
    let mut cols = Vec::new();
    for backend in POLICY_BACKENDS {
        for (seg, key) in backend_policy_segs(backend).into_iter().zip(POLICY_KEYS) {
            cols.push((seg, backend, policy_ov(key)));
        }
    }
    grid(p, "policy_search_rank", &singles(p), &with_std(cols))
}

fn render_policy_search_rank(ctx: &RenderCtx) -> String {
    let labels = policy_labels();
    let mut o = String::new();
    for backend in POLICY_BACKENDS {
        let segs = backend_policy_segs(backend);
        let (names, rows) = over_std(ctx, &segs.iter().map(String::as_str).collect::<Vec<_>>());
        if !o.is_empty() {
            let _ = writeln!(o);
        }
        let label = design_label(backend);
        improvement_table(
            &mut o,
            &format!("Policy search: IPC improvement over DDR3 baseline ({label})"),
            &names,
            &labels,
            16,
            &rows,
        );
        write_ranking(&mut o, &format!("ranking ({label}):"), &labels, &rows);
    }
    o
}

/// Every policy at every fast-level ratio on DAS-DRAM, policy-major,
/// segment `<policy>_d<denominator>`.
fn policy_size_cols() -> Vec<Col> {
    let mut cols = Vec::new();
    for key in POLICY_KEYS {
        for den in RATIO_DENS {
            let mut ov = policy_ov(key);
            ov.fast_ratio_den = Some(den);
            cols.push((format!("{key}_d{den}"), "das", ov));
        }
    }
    cols
}

fn build_policy_search_size(p: &BuildParams) -> Vec<JobSpec> {
    grid(
        p,
        "policy_search_size",
        &singles(p),
        &with_std(policy_size_cols()),
    )
}

fn render_policy_search_size(ctx: &RenderCtx) -> String {
    let cols = policy_size_cols();
    let columns: Vec<String> = POLICY_KEYS
        .iter()
        .flat_map(|key| RATIO_DENS.iter().map(move |den| format!("{key} 1/{den}")))
        .collect();
    let (names, rows) = over_std(ctx, &segs(&cols));
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
        let at_size: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| {
                r.iter()
                    .skip(di)
                    .step_by(RATIO_DENS.len())
                    .copied()
                    .collect()
            })
            .collect();
        let (best, g) = ranked(&policy_labels(), &at_size)[0];
        let _ = writeln!(o, "1/{den:<4} {best} {}", pct(g));
    }
    o
}

fn build_policy_search_adapt(p: &BuildParams) -> Vec<JobSpec> {
    // Explicit tokens throughout (including paper_fixed): this experiment
    // reads the report's `policy` accounting block, which only
    // materialises when a policy is installed.
    let cols = POLICY_ADAPTIVE.map(|key| {
        let ov = Overrides {
            policy: Some(key.to_string()),
            ..Overrides::default()
        };
        (key.to_string(), "das", ov)
    });
    grid(
        p,
        "policy_search_adapt",
        &benches(p, &POLICY_ADAPT_WORKLOADS),
        &cols,
    )
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
            let r = ctx.cell(name, key);
            let _ = writeln!(
                o,
                "{:<16} promotes={:>6}  holds={:>8}  \
                 adjusts={:>4}  epochs={:>3}  final_threshold={}",
                policy_label(key),
                r.u64("metrics/policy/promotes"),
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
    fn only_filter_reaches_the_one_workload_experiments() {
        let mut p = tiny_params();
        p.only = vec!["M1".to_string(), "lock".to_string()];
        let mcf: Vec<String> = ALL
            .iter()
            .flat_map(|e| (e.build)(&p))
            .filter(|j| j.workload == "mcf")
            .map(|j| j.id)
            .collect();
        assert!(mcf.is_empty(), "--only M1,lock still ran mcf: {mcf:?}");
        for id in ["telemetry", "cross_arch_area"] {
            assert!((by_id(id).unwrap().build)(&p).is_empty(), "{id}");
        }
    }

    #[test]
    fn job_order_matches_the_legacy_binaries() {
        let p = tiny_params();
        let fig7c = (by_id("fig7c").unwrap().build)(&p);
        // Panel-major: every SAS job precedes every DAS job.
        let first_das = fig7c.iter().position(|j| j.design == "das").unwrap();
        assert!(fig7c[..first_das].iter().all(|j| j.design == "sas"));
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
        let backend_keys: Vec<&str> = ["std"].into_iter().chain(CROSS_KEYS).collect();
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
        // area: one workload.
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
