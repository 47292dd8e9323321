//! Pieces shared by the batch and served workloads: trace-store warm-up,
//! direct reference runs, report arithmetic and process memory.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BinaryHeap};
use std::hash::BuildHasherDefault;
use std::time::{Duration, Instant};

use das_harness::manifest::JobSpec;
use das_harness::report::ReportView;
use das_sim::experiments::{run_one, run_one_coherent};
use das_sim::report::run_report;
use das_telemetry::json::{self, Value};
use das_trace::TraceStore;
use das_workloads::dtr;
use das_workloads::shared::{SharedGen, SharedSpec};

use crate::jobs::JobList;
use crate::stats;

/// Materialises every job's reference streams and returns the number of
/// distinct ones. Classic jobs' episodes go into `store`, the way the
/// harness runner will look them up. Coherent jobs generate their
/// shared-footprint streams in-process on every run, so each distinct
/// one is generated here over the job's budget and dropped — the coherent
/// counterpart of materialisation, which puts the generators' cost into
/// `setup_s` on every batch workload.
///
/// # Errors
///
/// Readable materialisation failures.
pub fn warm_store(store: &TraceStore, jobs: &JobList) -> Result<usize, String> {
    let mut seen = std::collections::BTreeSet::new();
    for j in &jobs.jobs {
        let (cfg, _, workloads) = j.spec.materialize()?;
        if let Some((shared, _)) = j.spec.coherent_spec()? {
            let shared = shared.scaled(u64::from(cfg.scale));
            if seen.insert(format!("{} seed {}", shared.name(), cfg.seed)) {
                std::hint::black_box(generate_shared(&shared, cfg.seed, cfg.inst_budget));
            }
            continue;
        }
        for w in workloads {
            let w = w.scaled(u64::from(cfg.scale));
            let fp = dtr::episode_fingerprint(&w, cfg.seed, cfg.scale, cfg.inst_budget);
            if !seen.insert(fp.hex()) {
                continue;
            }
            store
                .get_or_materialize(&fp, |out| {
                    dtr::record_episode(&w, cfg.seed, cfg.inst_budget, out).map(|_| ())
                })
                .map_err(|e| format!("cannot materialize {}: {e}", w.name))?;
        }
    }
    Ok(seen.len())
}

/// Generates every core's stream of `spec` until it covers `budget`
/// instructions; returns the number of items.
fn generate_shared(spec: &SharedSpec, seed: u64, budget: u64) -> u64 {
    let mut items = 0;
    for core in 0..spec.cores {
        let mut gen = SharedGen::new(spec.clone(), seed, core);
        while gen.insts_emitted() < budget {
            let Some(item) = gen.next() else { break };
            std::hint::black_box(item);
            items += 1;
        }
    }
    items
}

/// Runs `spec` directly through `das_sim::experiments` (no harness, no
/// store) and returns its rendered report plus the run's wall time.
///
/// # Errors
///
/// Readable materialisation or simulation failures.
pub fn direct_report(spec: &JobSpec) -> Result<(String, Duration), String> {
    let (cfg, design, workloads) = spec.materialize()?;
    let t0 = Instant::now();
    let m = match spec.coherent_spec()? {
        Some((shared, protocol)) => run_one_coherent(&cfg, design, &shared, protocol),
        None => run_one(&cfg, design, &workloads),
    }
    .map_err(|e| format!("direct run of {} failed: {e}", spec.id))?;
    let wall = t0.elapsed();
    Ok((run_report(&m, None).render(), wall))
}

/// Instructions retired in the measured window, summed over cores.
pub fn report_insts(v: &Value) -> u64 {
    ReportView(v)
        .arr("metrics/cores")
        .iter()
        .map(|c| ReportView(c).u64("insts"))
        .sum()
}

/// The simulated aggregates of one set of reports (one per job, job
/// order): the gmean gain over every non-baseline job, per-paper-design
/// gmean gains, and the report digest.
#[derive(Debug, Clone)]
pub struct SimSummary {
    /// Gmean IPC gain over Std-DRAM, percent, across all non-baseline
    /// jobs.
    pub ipc_gain_pct: f64,
    /// Gmean gain per paper design key, percent.
    pub by_design: BTreeMap<&'static str, f64>,
    /// Mean absolute gap to the paper's figure, pp.
    pub paper_gap_pp: f64,
    /// FNV-1a digest over every rendered report, in job order.
    pub digest: u64,
}

/// Computes the [`SimSummary`] of `reports` (rendered, in job order).
///
/// # Errors
///
/// A report that does not parse, or a list without paper designs.
pub fn sim_summary(jobs: &JobList, reports: &[String]) -> Result<SimSummary, String> {
    let parsed: Vec<Value> = reports
        .iter()
        .map(|r| json::parse(r))
        .collect::<Result<_, _>>()?;
    let mut all = Vec::new();
    let mut per: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (j, v) in jobs.jobs.iter().zip(&parsed) {
        let Some(b) = j.base else { continue };
        let gain = ReportView(v).improvement_over(&ReportView(&parsed[b]));
        all.push(gain);
        if let Some(k) = j.paper_key {
            per.entry(k).or_default().push(gain);
        }
    }
    let by_design: BTreeMap<&'static str, f64> = per
        .into_iter()
        .map(|(k, g)| (k, stats::gmean_gain(&g) * 100.0))
        .collect();
    let measured: Vec<(&str, f64)> = by_design.iter().map(|(k, v)| (*k, *v)).collect();
    let paper_gap_pp = stats::paper_gap_pp(&measured, jobs.paper)
        .ok_or_else(|| "no job of the workload has a paper counterpart".to_string())?;
    let digest = reports
        .iter()
        .fold(stats::FNV_OFFSET, |h, r| stats::fnv1a(r.as_bytes(), h));
    Ok(SimSummary {
        ipc_gain_pct: stats::gmean_gain(&all) * 100.0,
        by_design,
        paper_gap_pp,
        digest,
    })
}

/// The process's peak resident set (`VmHWM`) without the calibration
/// kernel's buffers, MB.
pub fn peak_rss_mb(cal: &Calibrator) -> f64 {
    status_kb("VmHWM:") / 1024.0 - cal.resident_mb()
}

/// Makes `dir` exist and be empty.
///
/// # Errors
///
/// Readable filesystem failures.
pub fn fresh_dir(dir: &std::path::Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

/// Time of one calibration kernel run on the reference machine (a
/// shared 2-core VM at a quiet moment), ns.
pub const CAL_REF_NS: f64 = 12.5e6;

type FixedMap = std::collections::HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

/// Measures how fast the host is running right now.
///
/// The reference machine shares its cores, caches and memory with other
/// tenants, and its speed drifts by half over minutes. Host times are
/// therefore reported at reference speed: every set-up repetition, batch
/// job and served segment is bracketed by two samples and its measured
/// time multiplied by their mean. Contention within a run, which comes in
/// bursts of seconds, is handled by taking each batch job's fastest
/// repetition. The kernel has the shape of the simulator's host work: a
/// memory-bound half (a binary-heap event queue, a hash map of 64 k keys
/// and random reads and writes over a 4 MB table) and a branchy,
/// cache-resident half (varint decode over 64 KB, like trace decode).
/// The two halves track different kinds of contention from other tenants;
/// together they follow the simulator's job times more closely than
/// either alone. The kernel uses none of the simulator's code, so a
/// change to the program moves the scaled figures exactly as it moves
/// the raw ones. Its buffers are
/// allocated once and stay resident; [`Calibrator::resident_mb`] is
/// subtracted from the peak RSS.
#[derive(Debug)]
pub struct Calibrator {
    table: Vec<u64>,
    map: FixedMap,
    heap: BinaryHeap<Reverse<u64>>,
    /// Random bytes the decode half of the kernel parses as varints.
    bytes: Vec<u8>,
    resident_mb: f64,
    samples: Vec<f64>,
}

impl Calibrator {
    /// Allocates and touches the kernel's buffers.
    pub fn new() -> Calibrator {
        let before = status_kb("VmRSS:");
        let mut rng = stats::SplitMix64::new(0xB17E);
        let mut c = Calibrator {
            table: vec![0u64; 1 << 19],
            map: FixedMap::with_capacity_and_hasher(1 << 16, BuildHasherDefault::default()),
            heap: BinaryHeap::with_capacity(2048),
            bytes: (0..1 << 16).map(|_| rng.next_u64() as u8).collect(),
            resident_mb: 0.0,
            samples: Vec::new(),
        };
        c.kernel_ns();
        c.resident_mb = (status_kb("VmRSS:") - before).max(0.0) / 1024.0;
        c
    }

    /// Resident memory of the kernel's buffers, MB.
    pub fn resident_mb(&self) -> f64 {
        self.resident_mb
    }

    /// Runs the fixed kernel once; its wall time, ns.
    pub fn kernel_ns(&mut self) -> f64 {
        self.table.fill(0);
        self.map.clear();
        self.heap.clear();
        let mut rng = stats::SplitMix64::new(0xCA11);
        let mask = self.table.len() - 1;
        let t0 = Instant::now();
        let mut acc = 0u64;
        for i in 0..50_000u64 {
            let r = rng.next_u64();
            self.heap.push(Reverse(r >> 20));
            if self.heap.len() > 1024 {
                acc ^= self.heap.pop().map_or(0, |x| x.0);
            }
            *self.map.entry(r & 0xffff).or_insert(0) += i;
            let idx = (r >> 16) as usize & mask;
            self.table[idx] = self.table[idx].wrapping_add(acc);
            acc = acc.wrapping_add(self.table[acc as usize & mask]);
        }
        for _ in 0..20 {
            let mut bytes = self.bytes.iter();
            while bytes.len() > 0 {
                let (mut v, mut shift) = (0u64, 0);
                for &b in bytes.by_ref() {
                    v |= u64::from(b & 0x7f) << shift;
                    shift += 7;
                    if b & 0x80 == 0 || shift > 56 {
                        break;
                    }
                }
                acc = if v & 1 == 0 {
                    acc.wrapping_add(v)
                } else {
                    acc ^ v.rotate_left(7)
                };
            }
        }
        std::hint::black_box(acc);
        t0.elapsed().as_nanos() as f64
    }

    /// Takes one speed sample — reference kernel time ÷ kernel time now —
    /// records it for [`Calibrator::speed`] and returns it.
    pub fn sample(&mut self) -> f64 {
        let factor = CAL_REF_NS / self.kernel_ns();
        self.samples.push(factor);
        factor
    }

    /// The median of this run's samples (1 without any), for the notes.
    pub fn speed(&self) -> f64 {
        stats::median(&self.samples).unwrap_or(1.0)
    }
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

/// A `kB` field of `/proc/self/status`; 0 where unavailable.
fn status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}
