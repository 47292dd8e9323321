//! The traced run's per-layer numbers.
//!
//! Every layer is a crate, timed from outside around its public call: the
//! workload's own reference streams are replayed through that one layer
//! in isolation (generator, `.dtr` decoder, cache hierarchy, coherent
//! cluster, DAS manager, migration policy, memory controller). A replay
//! gives the layer's host cost per operation; the layer's counters come
//! from the run reports. Cost per operation × the operations each timed
//! job performed gives the layer's estimated share of the job's wall
//! time; what no layer claims is reported as `sim.unattributed_frac`,
//! and the run is rejected if the estimates claim more than the measured
//! wall (see `stats::reconcile`). An isolated replay only approximates a
//! layer's cost inside the running program; the unattributed share keeps
//! that gap visible.

use std::collections::BTreeMap;
use std::io::BufReader;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use das_cache::hierarchy::{CacheHierarchy, CacheLevel};
use das_coherence::cluster::{ClusterConfig, CoherentCluster};
use das_core::management::{DasManager, PolicyCosts};
use das_cpu::trace::TraceItem;
use das_dram::channel::ChannelDevice;
use das_dram::geometry::MemCoord;
use das_dram::tick::{Tick, TICKS_PER_CPU_CYCLE, TICKS_PER_NS};
use das_harness::manifest::JobSpec;
use das_harness::report::ReportView;
use das_memctrl::controller::MemoryController;
use das_memctrl::request::Request;
use das_policy::{MigrationPolicy, PolicyAction, PolicyEvent, PolicyKind};
use das_sim::config::SystemConfig;
use das_sim::experiments::{run_one_coherent_instrumented, run_one_instrumented};
use das_sim::AddressMap;
use das_telemetry::hist::LatencyHistogram;
use das_telemetry::json::{self, Value};
use das_telemetry::{LatencyClass, TelemetryConfig};
use das_trace::format::TraceReader;
use das_trace::TraceStore;
use das_workloads::dtr;
use das_workloads::gen::TraceGen;
use das_workloads::shared::SharedGen;

use crate::jobs::JobList;
use crate::stats;
use crate::{Ctx, RunResult};

/// Items replayed per stream through the layers below the decoder, at
/// most (bounds the traced run's length).
const MAX_REPLAY_ITEMS: usize = 1_000_000;
/// Items replayed per coherent stream (all cores together): the cluster
/// costs microseconds per access.
const MAX_COHERENT_ITEMS: usize = 100_000;
/// Items generated per stream for the generator's cost.
const GEN_ITEMS: usize = 200_000;

/// What the workload hands to the replays.
pub struct LayerInput<'a> {
    /// The workload's jobs.
    pub jobs: &'a JobList,
    /// One rendered report per job, job order.
    pub reports: &'a [String],
    /// Host wall time of each job through the harness, ns (job order).
    pub job_wall_ns: Vec<f64>,
    /// The warm trace store the jobs replayed from.
    pub store: Option<&'a TraceStore>,
    /// Store hits / lookups during the timed phase.
    pub store_hit_ratio: f64,
    /// `runner::execute` minus a direct run of the same job, ns.
    pub harness_overhead_ns: f64,
    /// Index of the job re-run with telemetry for the latency histograms.
    pub pinned: usize,
}

/// The harness layer's own cost: `runner::execute` (generator-backed, so
/// the trace store does not enter) minus a direct `das_sim` run of the
/// same job — each the faster of two alternating runs — median over
/// `specs`, ns. The two reports must agree.
///
/// # Errors
///
/// A failed run, or a report that differs between the two paths.
pub fn harness_overhead_ns(
    ctx: &mut Ctx,
    specs: &[&JobSpec],
    parent: Option<usize>,
) -> Result<f64, String> {
    let mut d = Vec::new();
    for spec in specs {
        let (mut via_ns, mut direct_ns) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..2 {
            let t0 = Instant::now();
            let via = das_harness::runner::execute(
                spec,
                &das_harness::profile::ProfileCache::new(),
                &ctx.work,
                None,
            )?;
            let t1 = Instant::now();
            ctx.tracer
                .record("harness.execute", t0, t1, parent, &spec.id);
            let (direct, wall) = crate::common::direct_report(spec)?;
            if via.render() != direct {
                return Err(format!("{}: harness and direct reports differ", spec.id));
            }
            via_ns = via_ns.min((t1 - t0).as_secs_f64() * 1e9);
            direct_ns = direct_ns.min(wall.as_secs_f64() * 1e9);
        }
        d.push(via_ns - direct_ns);
    }
    Ok(stats::median(&d).unwrap_or(0.0))
}

/// Accumulated host time and operation count of one layer's replays.
#[derive(Debug, Default, Clone, Copy)]
struct Cost {
    ns: f64,
    ops: u64,
}

impl Cost {
    fn add(&mut self, ns: f64, ops: u64) {
        self.ns += ns;
        self.ops += ops;
    }

    fn per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ns / self.ops as f64
        }
    }
}

/// Counters shared between a [`TimedPolicy`] and the replay.
#[derive(Debug, Default)]
struct PolicyProbe {
    ns: AtomicU64,
    calls: AtomicU64,
}

/// Wraps a shipped policy and times every `observe` call from outside.
#[derive(Debug)]
struct TimedPolicy {
    inner: Box<dyn MigrationPolicy>,
    probe: Arc<PolicyProbe>,
}

impl MigrationPolicy for TimedPolicy {
    fn kind(&self) -> PolicyKind {
        self.inner.kind()
    }

    fn observe(&mut self, event: &PolicyEvent) -> Vec<PolicyAction> {
        let t0 = Instant::now();
        let actions = self.inner.observe(event);
        let ns = (Instant::now() - t0).as_nanos() as u64;
        self.probe.ns.fetch_add(ns, Ordering::Relaxed);
        self.probe.calls.fetch_add(1, Ordering::Relaxed);
        actions
    }

    fn clone_box(&self) -> Box<dyn MigrationPolicy> {
        Box::new(TimedPolicy {
            inner: self.inner.clone_box(),
            probe: Arc::clone(&self.probe),
        })
    }
}

/// Layer costs accumulated over every replayed stream.
#[derive(Debug, Default)]
struct Costs {
    gen: Cost,
    decode: Cost,
    decode_bytes: u64,
    cache: Cost,
    cache_l1_hits: u64,
    coherence: Cost,
    core: Cost,
    policy: Cost,
    memctrl: Cost,
}

fn ns_since(t0: Instant) -> f64 {
    (Instant::now() - t0).as_nanos() as f64
}

/// The job's configuration with its design's overrides applied, as the
/// simulator assembles it.
fn design_cfg(spec: &JobSpec) -> Result<(SystemConfig, das_sim::Design), String> {
    let (mut cfg, design, _) = spec.materialize()?;
    design.apply_overrides(&mut cfg);
    Ok((cfg, design))
}

/// Decodes the store's `.dtr` file for one classic job, timing
/// `TraceReader::next_block`.
fn decode(
    ctx: &mut Ctx,
    store: &TraceStore,
    spec: &JobSpec,
    costs: &mut Costs,
    parent: Option<usize>,
) -> Result<Vec<TraceItem>, String> {
    let (cfg, _, workloads) = spec.materialize()?;
    let w = workloads[0].scaled(u64::from(cfg.scale));
    let fp = dtr::episode_fingerprint(&w, cfg.seed, cfg.scale, cfg.inst_budget);
    let path = store.path_of(&fp);
    let bytes = std::fs::metadata(&path)
        .map_err(|e| format!("cannot stat {}: {e}", path.display()))?
        .len();
    let file =
        std::fs::File::open(&path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let t_span = Instant::now();
    let mut reader =
        TraceReader::new(BufReader::new(file)).map_err(|e| format!("bad trace header: {e}"))?;
    let mut items = Vec::new();
    let mut ns = 0.0;
    loop {
        let t0 = Instant::now();
        let block = reader
            .next_block()
            .map_err(|e| format!("trace decode failed: {e}"))?;
        ns += ns_since(t0);
        match block {
            Some(b) => items.extend(b),
            None => break,
        }
    }
    ctx.tracer
        .record("trace.next_block", t_span, Instant::now(), parent, &spec.id);
    costs.decode.add(ns, items.len() as u64);
    costs.decode_bytes += bytes;
    items.truncate(MAX_REPLAY_ITEMS);
    Ok(items)
}

/// Times `TraceGen::next` over one classic stream.
fn generate(
    ctx: &mut Ctx,
    spec: &JobSpec,
    costs: &mut Costs,
    parent: Option<usize>,
) -> Result<(), String> {
    let (cfg, _, workloads) = spec.materialize()?;
    let w = workloads[0].scaled(u64::from(cfg.scale));
    let mut gen = TraceGen::new(w, cfg.seed, 0);
    let t0 = Instant::now();
    let mut n = 0u64;
    let mut sink = 0u64;
    while n < GEN_ITEMS as u64 {
        let Some(item) = gen.next() else { break };
        sink = sink.wrapping_add(item.addr);
        n += 1;
    }
    std::hint::black_box(sink);
    let t1 = Instant::now();
    ctx.tracer
        .record("workloads.next", t0, t1, parent, &spec.id);
    costs.gen.add((t1 - t0).as_nanos() as f64, n);
    Ok(())
}

/// Replays one classic stream through the cache hierarchy, the DAS
/// manager (with its policy) and the memory controllers; returns the
/// stream's trace items per simulated instruction.
fn classic_stream(
    ctx: &mut Ctx,
    spec: &JobSpec,
    report: &Value,
    items: &[TraceItem],
    costs: &mut Costs,
    parent: Option<usize>,
) -> Result<f64, String> {
    let (cfg, design) = design_cfg(spec)?;
    let (_, _, workloads) = spec.materialize()?;
    let scaled: Vec<_> = workloads
        .iter()
        .map(|w| w.scaled(u64::from(cfg.scale)))
        .collect();
    let map = AddressMap::new(&cfg, &scaled);
    let mapped: Vec<(u64, bool)> = items
        .iter()
        .map(|it| (map.map(0, it.addr), it.is_write))
        .collect();
    let insts: u64 = items.iter().map(TraceItem::insts).sum();
    let line_mask = !(cfg.hierarchy.line_bytes - 1);

    // Cache hierarchy: the access/fill loop of the profiling pre-pass.
    let mut h = CacheHierarchy::new(cfg.hierarchy, 1);
    let mut misses: Vec<(u64, bool)> = Vec::new();
    let mut l1 = 0u64;
    let t0 = Instant::now();
    for &(addr, w) in &mapped {
        let out = h.access(0, addr, w);
        match out.level {
            CacheLevel::L1 => l1 += 1,
            CacheLevel::Memory => {
                let line = addr & line_mask;
                misses.push((line, w));
                h.fill_from_memory(0, line, w);
            }
            _ => {}
        }
    }
    let t1 = Instant::now();
    ctx.tracer.record("cache.access", t0, t1, parent, &spec.id);
    costs
        .cache
        .add((t1 - t0).as_nanos() as f64, mapped.len() as u64);
    costs.cache_l1_hits += l1;

    // DAS manager (dynamic designs only), with the policy timed inside.
    let mut coords: Vec<(MemCoord, bool)> = misses
        .iter()
        .map(|&(line, w)| (cfg.geometry.decode(line), w))
        .collect();
    if design.is_dynamic() && !design.is_inclusive() {
        let timing = cfg.timing_override.unwrap_or_else(|| design.timing());
        let mut m = DasManager::new(
            cfg.scaled_management(design.needs_profile()),
            cfg.geometry.clone(),
            cfg.bank_layout(),
        );
        let probe = Arc::new(PolicyProbe::default());
        if let Some(kind) = cfg.policy {
            m.install_policy(
                Box::new(TimedPolicy {
                    inner: kind.build(),
                    probe: Arc::clone(&probe),
                }),
                PolicyCosts {
                    benefit_ns: timing.slow.trc().as_ns() - timing.fast.trc().as_ns(),
                    swap_cost_ns: timing.swap.as_ns(),
                },
            );
        }
        let t0 = Instant::now();
        for (i, (c, _)) in coords.iter_mut().enumerate() {
            let tr = m.translate(c.bank, c.row);
            if let Some(req) = m.on_data_access(c.bank, c.row, i as u64) {
                m.commit_swap(&req, i as u64);
            }
            c.row = tr.phys_row;
        }
        let t1 = Instant::now();
        let policy_ns = probe.ns.load(Ordering::Relaxed) as f64;
        ctx.tracer
            .record("core.translate", t0, t1, parent, &spec.id);
        costs
            .core
            .add((t1 - t0).as_nanos() as f64 - policy_ns, coords.len() as u64);
        costs
            .policy
            .add(policy_ns, probe.calls.load(Ordering::Relaxed));
    }

    // Memory controllers, requests spaced as in the timed run.
    let accesses = counter(report, "metrics/memory_accesses").max(1);
    let gap = (counter(report, "metrics/window_cycles") * TICKS_PER_CPU_CYCLE / accesses).max(1);
    let layout = cfg.bank_layout();
    let timing = cfg.timing_override.unwrap_or_else(|| design.timing());
    let mut ctrls: Vec<(MemoryController, Tick)> = (0..cfg.geometry.channels)
        .map(|ch| {
            let dev = ChannelDevice::with_salp(
                ch,
                cfg.geometry.ranks_per_channel,
                cfg.geometry.banks_per_rank,
                layout.clone(),
                timing,
                cfg.refresh,
                cfg.salp,
            );
            (MemoryController::new(cfg.controller, dev), Tick::ZERO)
        })
        .collect();
    let t0 = Instant::now();
    for (i, &(coord, is_write)) in coords.iter().enumerate() {
        let arrival = Tick::new(i as u64 * gap);
        let (c, now) = &mut ctrls[usize::from(coord.bank.channel)];
        step_until(c, now, arrival)?;
        while !(if is_write {
            c.can_accept_write()
        } else {
            c.can_accept_read()
        }) {
            if !step(c, now)? {
                return Err("memory controller wedged with a full queue".to_string());
            }
        }
        c.enqueue(Request {
            id: i as u64,
            coord,
            is_write,
            arrival: arrival.max(*now),
        })
        .map_err(|e| format!("enqueue failed: {e:?}"))?;
    }
    for (c, now) in &mut ctrls {
        while c.backlog() > 0 {
            if !step(c, now)? {
                return Err("memory controller wedged while draining".to_string());
            }
        }
    }
    let t1 = Instant::now();
    ctx.tracer
        .record("memctrl.enqueue_advance", t0, t1, parent, &spec.id);
    costs
        .memctrl
        .add((t1 - t0).as_nanos() as f64, coords.len() as u64);

    Ok(items.len() as f64 / insts.max(1) as f64)
}

/// Advances `c` to its next action; `false` when it has none.
fn step(c: &mut MemoryController, now: &mut Tick) -> Result<bool, String> {
    c.advance(*now)
        .map_err(|e| format!("controller failed: {e:?}"))?;
    match c.next_action_time(*now) {
        Some(t) => {
            *now = t.max(*now + Tick::new(1));
            c.advance(*now)
                .map_err(|e| format!("controller failed: {e:?}"))?;
            Ok(true)
        }
        None => Ok(false),
    }
}

/// Advances `c` through every action due at or before `until`.
fn step_until(c: &mut MemoryController, now: &mut Tick, until: Tick) -> Result<(), String> {
    loop {
        c.advance(*now)
            .map_err(|e| format!("controller failed: {e:?}"))?;
        match c.next_action_time(*now) {
            Some(t) if t <= until => *now = t.max(*now + Tick::new(1)),
            _ => {
                *now = (*now).max(until);
                return Ok(());
            }
        }
    }
}

/// Replays one coherent job's shared-footprint streams through
/// `SharedGen::next` and `CoherentCluster::access`; returns the streams'
/// items per simulated instruction.
fn coherent_stream(
    ctx: &mut Ctx,
    spec: &JobSpec,
    costs: &mut Costs,
    parent: Option<usize>,
) -> Result<f64, String> {
    let (cfg, _) = design_cfg(spec)?;
    let (shared, protocol) = spec
        .coherent_spec()?
        .ok_or_else(|| format!("{} is not a coherent job", spec.id))?;
    let shared = shared.scaled(u64::from(cfg.scale));
    let per_core = MAX_COHERENT_ITEMS / shared.cores;
    let mut gens: Vec<SharedGen> = (0..shared.cores)
        .map(|c| SharedGen::new(shared.clone(), cfg.seed, c))
        .collect();
    let mut items: Vec<(usize, TraceItem)> = Vec::with_capacity(per_core * shared.cores);
    let t0 = Instant::now();
    for _ in 0..per_core {
        for (c, g) in gens.iter_mut().enumerate() {
            if let Some(it) = g.next() {
                items.push((c, it));
            }
        }
    }
    let t1 = Instant::now();
    ctx.tracer
        .record("workloads.next", t0, t1, parent, &spec.id);
    costs
        .gen
        .add((t1 - t0).as_nanos() as f64, items.len() as u64);

    let map = AddressMap::new(&cfg, &shared.workload_configs());
    let shared_bytes = shared.shared_bytes();
    let line_mask = !(cfg.hierarchy.line_bytes - 1);
    let lines: Vec<(usize, u64, bool)> = items
        .iter()
        .map(|(c, it)| {
            let owner = if it.addr < shared_bytes { 0 } else { *c };
            (*c, map.map(owner, it.addr) & line_mask, it.is_write)
        })
        .collect();
    let h = cfg.hierarchy;
    let mut cluster = CoherentCluster::new(
        protocol,
        ClusterConfig {
            cores: shared.cores,
            l1_lines: (h.l1_bytes / h.line_bytes) as usize,
            line_bytes: h.line_bytes,
            hit_cycles: h.l1_latency,
        },
    );
    let t0 = Instant::now();
    for (i, &(c, line, w)) in lines.iter().enumerate() {
        std::hint::black_box(cluster.access(c, line, w, i as u64));
    }
    let t1 = Instant::now();
    ctx.tracer
        .record("coherence.access", t0, t1, parent, &spec.id);
    costs
        .coherence
        .add((t1 - t0).as_nanos() as f64, lines.len() as u64);
    let insts: u64 = items.iter().map(|(_, it)| it.insts()).sum();
    Ok(items.len() as f64 / insts.max(1) as f64)
}

/// Sums `path` (a u64 counter) over reports selected by `keep`.
fn sum(reports: &[Value], path: &str, keep: impl Fn(&Value) -> bool) -> u64 {
    reports
        .iter()
        .filter(|v| keep(v))
        .map(|v| counter(v, path))
        .sum()
}

/// A u64 counter of a report; 0 where the report has no such block.
fn counter(v: &Value, path: &str) -> u64 {
    v.get_path(path).and_then(Value::as_u64).unwrap_or(0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn per_kinst(num: u64, insts: u64) -> f64 {
    ratio(num, insts) * 1000.0
}

/// Runs the replays and fills in every per-layer metric of `out`.
///
/// # Errors
///
/// Readable replay failures.
pub fn replay(
    ctx: &mut Ctx,
    input: &LayerInput,
    root: Option<usize>,
    out: &mut RunResult,
) -> Result<(), String> {
    let parent = ctx.tracer.open("layers", root, "");
    let reports: Vec<Value> = input
        .reports
        .iter()
        .map(|r| json::parse(r))
        .collect::<Result<_, _>>()?;
    let specs: Vec<&JobSpec> = input.jobs.jobs.iter().map(|j| &j.spec).collect();
    let insts_of = |v: &Value| crate::common::report_insts(v);
    let total_insts: u64 = reports.iter().map(insts_of).sum();
    let is_std = |i: usize| specs[i].design == "std";

    // Counters from the reports (simulated, exact).
    let ipc: Vec<f64> = reports
        .iter()
        .map(|v| ReportView(v).f64("metrics/ipc_sum"))
        .collect();
    out.layer(
        "cpu.ipc_sum",
        ipc.iter().sum::<f64>() / ipc.len().max(1) as f64,
    );
    out.layer(
        "cache.llc_mpki",
        per_kinst(sum(&reports, "metrics/llc_misses", |_| true), total_insts),
    );
    let has = |p: &'static str| move |v: &Value| ReportView(v).has(p);
    let coh_insts: u64 = reports
        .iter()
        .filter(|v| has("metrics/coherence")(v))
        .map(insts_of)
        .sum();
    let l1_hits = sum(
        &reports,
        "metrics/coherence/l1_hits",
        has("metrics/coherence"),
    );
    let l1_misses = sum(
        &reports,
        "metrics/coherence/l1_misses",
        has("metrics/coherence"),
    );
    out.layer(
        "coherence.l1_miss_ratio",
        ratio(l1_misses, l1_hits + l1_misses),
    );
    out.layer(
        "coherence.bus_tx_per_kinst",
        per_kinst(
            sum(
                &reports,
                "metrics/coherence/bus_transactions",
                has("metrics/coherence"),
            ),
            coh_insts,
        ),
    );
    out.layer(
        "coherence.invalidations_per_kinst",
        per_kinst(
            sum(
                &reports,
                "metrics/coherence/invalidations",
                has("metrics/coherence"),
            ),
            coh_insts,
        ),
    );
    let looked_up = |v: &Value| {
        counter(v, "metrics/translation/hits") + counter(v, "metrics/translation/misses") > 0
    };
    let t_hits = sum(&reports, "metrics/translation/hits", looked_up);
    let t_misses = sum(&reports, "metrics/translation/misses", looked_up);
    let dyn_insts: u64 = reports.iter().filter(|v| looked_up(v)).map(insts_of).sum();
    let promotions = sum(&reports, "metrics/promotions", looked_up);
    out.layer("core.tcache_hit_ratio", ratio(t_hits, t_hits + t_misses));
    out.layer(
        "core.promotions_per_kinst",
        per_kinst(promotions, dyn_insts),
    );
    out.layer(
        "core.aborted_promotion_ratio",
        ratio(
            sum(&reports, "metrics/aborted_promotions", looked_up),
            promotions,
        ),
    );
    let pol = has("metrics/policy");
    let promotes = sum(&reports, "metrics/policy/promotes", pol);
    let holds = sum(&reports, "metrics/policy/holds", pol);
    out.layer("policy.promote_ratio", ratio(promotes, promotes + holds));
    out.layer(
        "memctrl.row_hit_ratio",
        ratio(
            sum(&reports, "metrics/access_mix/row_buffer", |_| true),
            sum(&reports, "metrics/access_mix/row_buffer", |_| true)
                + sum(&reports, "metrics/access_mix/fast", |_| true)
                + sum(&reports, "metrics/access_mix/slow", |_| true),
        ),
    );
    let non_std: Vec<Value> = reports
        .iter()
        .enumerate()
        .filter(|(i, _)| !is_std(*i))
        .map(|(_, v)| v.clone())
        .collect();
    let fast = sum(&non_std, "metrics/access_mix/fast", |_| true);
    let slow = sum(&non_std, "metrics/access_mix/slow", |_| true);
    out.layer("dram.fast_act_ratio", ratio(fast, fast + slow));
    out.layer(
        "dram.swaps_per_kinst",
        per_kinst(
            sum(&non_std, "metrics/promotions", |_| true),
            non_std.iter().map(insts_of).sum(),
        ),
    );
    out.layer("trace.store_hit_ratio", input.store_hit_ratio);
    out.layer(
        "harness.overhead_ms_per_job",
        input.harness_overhead_ns / 1e6,
    );

    // Simulated DRAM read latency of the pinned job, from telemetry.
    let pinned = specs[input.pinned];
    let (mut cfg, design, workloads) = pinned.materialize()?;
    cfg = cfg.with_telemetry(TelemetryConfig::on(100_000));
    let tel = match pinned.coherent_spec()? {
        Some((shared, protocol)) => {
            run_one_coherent_instrumented(&cfg, design, &shared, protocol).1
        }
        None => run_one_instrumented(&cfg, design, &workloads).1,
    };
    if let Some(t) = tel {
        let mut all = LatencyHistogram::new();
        for class in LatencyClass::ALL {
            all.merge(t.merged.class(class));
        }
        let ns = |p: f64| all.percentile(p) as f64 / TICKS_PER_NS as f64;
        out.layer("memctrl.read_latency_ns_p50", ns(50.0));
        out.layer("memctrl.read_latency_ns_p99", ns(99.0));
    }

    // Isolated replays, one representative job per distinct stream: the
    // workload's DAS job where there is one.
    let mut costs = Costs::default();
    // Trace items per simulated instruction, per stream.
    let mut items_per_inst: BTreeMap<String, f64> = BTreeMap::new();
    let mut reps: BTreeMap<String, usize> = BTreeMap::new();
    for (i, s) in specs.iter().enumerate() {
        let key = stream_key(s);
        let better = s.design == "das" && reps.get(&key).is_some_and(|&r| specs[r].design != "das");
        if !reps.contains_key(&key) || better {
            reps.insert(key, i);
        }
    }
    for (key, &i) in &reps {
        let spec = specs[i];
        let r = if spec.coherent_spec()?.is_some() {
            coherent_stream(ctx, spec, &mut costs, parent)?
        } else {
            let store = input.store.ok_or("classic replays need the trace store")?;
            let items = decode(ctx, store, spec, &mut costs, parent)?;
            generate(ctx, spec, &mut costs, parent)?;
            classic_stream(ctx, spec, &reports[i], &items, &mut costs, parent)?
        };
        items_per_inst.insert(key.clone(), r);
    }
    out.layer("workloads.gen_ns_per_item", costs.gen.per_op());
    out.layer("trace.decode_ns_per_record", costs.decode.per_op());
    out.layer(
        "trace.bytes_per_record",
        ratio(costs.decode_bytes, costs.decode.ops.max(1)),
    );
    out.layer("cache.access_ns", costs.cache.per_op());
    out.layer(
        "cache.l1_hit_ratio",
        ratio(costs.cache_l1_hits, costs.cache.ops),
    );
    out.layer("coherence.access_ns", costs.coherence.per_op());
    out.layer("core.access_ns", costs.core.per_op());
    out.layer("policy.observe_ns", costs.policy.per_op());
    out.layer("memctrl.request_ns", costs.memctrl.per_op());

    // Reconciliation: each layer's estimated share of the measured job
    // walls (one pass over the job list).
    let mut parts: BTreeMap<&str, f64> = BTreeMap::new();
    let mut profiled = std::collections::BTreeSet::new();
    let mut mem_accesses = 0u64;
    for (spec, v) in specs.iter().zip(&reports) {
        let (cfg, design, _) = spec.materialize()?;
        let rate = items_per_inst
            .get(&stream_key(spec))
            .copied()
            .unwrap_or(0.0);
        let cores = ReportView(v).arr("metrics/cores").len() as f64;
        let items = cfg.inst_budget as f64 * cores * rate;
        let mut add = |k, ns: f64| *parts.entry(k).or_insert(0.0) += ns.max(0.0);
        if spec.coherent_spec()?.is_some() {
            add("workloads", items * costs.gen.per_op());
            add(
                "coherence",
                (counter(v, "metrics/coherence/l1_hits")
                    + counter(v, "metrics/coherence/l1_misses")) as f64
                    * costs.coherence.per_op(),
            );
        } else {
            add("trace", items * costs.decode.per_op());
            add("cache", items * costs.cache.per_op());
            if design.needs_profile() && profiled.insert(stream_key(spec)) {
                // One profiling pre-pass per stream per pass (memoized).
                let pre = items * cfg.profile_multiplier.max(1) as f64;
                add("workloads", pre * costs.gen.per_op());
                add("cache", pre * costs.cache.per_op());
            }
        }
        add(
            "core",
            (counter(v, "metrics/translation/hits") + counter(v, "metrics/translation/misses"))
                as f64
                * costs.core.per_op(),
        );
        add(
            "policy",
            (counter(v, "metrics/policy/promotes")
                + counter(v, "metrics/policy/holds")
                + counter(v, "metrics/policy/epochs")) as f64
                * costs.policy.per_op(),
        );
        let mem = counter(v, "metrics/memory_accesses") + counter(v, "metrics/table_fetch_reads");
        mem_accesses += mem;
        add("memctrl", mem as f64 * costs.memctrl.per_op());
        add("harness", input.harness_overhead_ns);
    }
    let wall: f64 = input.job_wall_ns.iter().sum();
    let rec = stats::reconcile(wall, &parts.values().copied().collect::<Vec<_>>());
    out.layer(
        "sim.run_ms",
        wall / input.job_wall_ns.len().max(1) as f64 / 1e6,
    );
    out.layer(
        "sim.host_ns_per_mem_access",
        ratio(wall as u64, mem_accesses),
    );
    out.layer("sim.unattributed_frac", rec.unattributed_frac);
    for (k, ns) in &parts {
        out.note(format!(
            "layer share {k:<10} {:>7.3} % of job wall",
            ns / wall * 100.0
        ));
    }
    out.note(format!(
        "reconciliation: wall {:.3} ms, attributed {:.3} ms, unattributed {:.3} ms",
        wall / 1e6,
        rec.attributed / 1e6,
        rec.unattributed / 1e6
    ));
    out.checks.check(rec.ok, || {
        format!(
            "traced run does not reconcile: attributed {:.3} ms + unattributed {:.3} ms vs wall {:.3} ms",
            rec.attributed / 1e6,
            rec.unattributed / 1e6,
            wall / 1e6
        )
    });
    ctx.tracer.close(parent);
    out.layer(
        "trace_overhead_frac",
        ctx.tracer.bookkeeping_ns() / wall.max(1.0),
    );
    out.note(format!(
        "probe cost {:.1} ns (subtracted from every span)",
        ctx.tracer.probe_ns()
    ));
    Ok(())
}

/// Jobs sharing a key replay the same reference stream: same workload
/// token, seed, budget and coherence parameters.
fn stream_key(spec: &JobSpec) -> String {
    format!(
        "{}|{}|{}|{:?}|{:?}|{:?}",
        spec.workload, spec.seed, spec.insts, spec.ov.protocol, spec.ov.cores, spec.ov.sharing
    )
}
