//! The declarative run matrix: a [`Manifest`] is a list of experiments,
//! each a list of [`JobSpec`]s — everything one simulation run needs
//! (design, workload, seed, instruction budget, scale, and the parameter
//! overrides the figure sweeps vary), as data instead of code.
//!
//! Every figure/table/ablation binary can *emit* its manifest
//! (`--emit-manifest PATH`) instead of executing it, and the `harness`
//! binary executes any manifest — the run matrix becomes a file you can
//! inspect, split, diff and resume.
//!
//! Manifests are strict JSON (rendered and parsed by
//! [`das_telemetry::json`]); unknown fields are rejected so a typo in a
//! hand-edited manifest fails loudly instead of silently running the
//! default configuration.

use das_sim::config::{Design, SystemConfig};
use das_telemetry::json::{self, Value};
use das_workloads::config::WorkloadConfig;
use das_workloads::{mixes, shared, spec};

use crate::render::group_of;

/// Manifest format version (bumped on schema changes). A build parses
/// exactly this version. Version 4 is the first whose overrides carry
/// `policy:<name>` (`paper_fixed`, `hysteresis`, `cost_aware`,
/// `phase_adaptive`, `feedback`), valid only on dynamic exclusive designs.
pub const MANIFEST_VERSION: u64 = 4;

/// A complete run matrix: one or more experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Grid-wide per-core instruction budget — the `--insts` the grid was
    /// built from. Individual jobs carry their own (possibly derived)
    /// budgets; this root value parameterises the job-free experiments
    /// (Tables 1/2 render from pure configuration).
    pub insts: u64,
    /// Grid-wide capacity scale factor (same role as `insts`).
    pub scale: u32,
    /// The experiments, in presentation order.
    pub experiments: Vec<ExperimentPlan>,
}

/// One experiment: an identifier (the figure/table/ablation it renders)
/// plus its jobs in deterministic execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentPlan {
    /// Catalog identifier (`fig7a`, `table1`, `ablation_salp`, …).
    pub id: String,
    /// Jobs in execution (and journal) order.
    pub jobs: Vec<JobSpec>,
}

/// One simulation run, fully described.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Manifest-unique job id (`<experiment>/<row>/<column>`).
    pub id: String,
    /// Design key (see [`Design::key`]): `std`, `sas`, `charm`, `das`,
    /// `das_fm`, `fs`, `das_incl`, `tl`, `clr`, `lisa`, `salp`.
    pub design: String,
    /// Workload token: a Table 2 benchmark name (`mcf`) or a mix
    /// (`mix:M1`, which expands to the paper's four benchmarks with
    /// halved footprints).
    pub workload: String,
    /// Per-core instruction budget.
    pub insts: u64,
    /// Capacity scale factor.
    pub scale: u32,
    /// Master seed (workloads, replacement randomness).
    pub seed: u64,
    /// Parameter overrides relative to the Table 1 configuration.
    pub ov: Overrides,
}

/// Optional per-job parameter overrides. `None` fields keep the Table 1
/// defaults; only set fields are serialised, so manifests stay readable.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Overrides {
    /// Promotion-filter threshold (Fig. 8 sweeps).
    pub threshold: Option<u32>,
    /// Migration group size in rows (Fig. 9b sweep).
    pub group_size: Option<u32>,
    /// Full-scale translation-cache capacity in bytes (Fig. 9a sweep).
    pub tcache_bytes: Option<u64>,
    /// Fast-level capacity ratio denominator (`1/N`, Fig. 9c/9d sweeps).
    pub fast_ratio_den: Option<u32>,
    /// Replacement policy (`lru`, `random`, `seq`, `counter`).
    pub replacement: Option<String>,
    /// Scheduler kind (`frfcfs`, `fcfs`).
    pub scheduler: Option<String>,
    /// Row-buffer page policy (`open`, `closed`).
    pub page_policy: Option<String>,
    /// Subarray-level parallelism (SALP ablation).
    pub salp: Option<bool>,
    /// Physical arrangement (`reduced`, `partitioning`, `interleaving`).
    pub arrangement: Option<String>,
    /// Device-timing override: swap latency in ticks (migration ablation;
    /// `single_migration` is derived as half the swap).
    pub swap_ticks: Option<u64>,
    /// Telemetry epoch length in CPU cycles (enables the sink).
    pub telemetry_epoch: Option<u64>,
    /// Runaway-event budget override.
    pub event_budget: Option<u64>,
    /// Side-effect export: write the run's Chrome trace-event JSON here
    /// (requires `telemetry_epoch`).
    pub trace_path: Option<String>,
    /// Coherence protocol for `shared:*` workloads (`mesi`, `dragon`).
    pub protocol: Option<String>,
    /// Core count for `shared:*` workloads (default 4).
    pub cores: Option<u32>,
    /// Sharing intensity for `shared:*` workloads (`low`, `mid`, `high`).
    pub sharing: Option<String>,
    /// Migration policy (`paper_fixed`, `hysteresis`, `cost_aware`,
    /// `phase_adaptive`, `feedback`); dynamic exclusive designs only.
    pub policy: Option<String>,
}

/// Resolves a workload token into the (full-scale) workload set:
/// `"<bench>"` → one Table 2 benchmark; `"mix:<M>"` → the paper's
/// four-benchmark mix with per-benchmark footprints halved (the
/// multi-programming execution point of Fig. 7e); `"shared:<kind>"` → a
/// shared-footprint coherent workload (`ring`, `lock`, `frontier`) at the
/// default four-core mid-sharing point (overrides refine it, see
/// [`JobSpec::coherent_spec`]).
///
/// # Errors
///
/// Returns a message naming the unknown token.
pub fn resolve_workload(token: &str) -> Result<Vec<WorkloadConfig>, String> {
    if let Some(mix_name) = token.strip_prefix("mix:") {
        if !mixes::names().contains(&mix_name) {
            return Err(format!("unknown mix {mix_name:?}"));
        }
        Ok(mixes::mix(mix_name).iter().map(|w| w.scaled(2)).collect())
    } else if let Some(kind) = token.strip_prefix("shared:") {
        let kind = shared::SharedKind::parse(kind)
            .ok_or_else(|| format!("unknown shared workload {kind:?}"))?;
        Ok(shared::SharedSpec::new(kind, 4, shared::Sharing::Mid).workload_configs())
    } else {
        if !spec::names().contains(&token) {
            return Err(format!("unknown benchmark {token:?}"));
        }
        Ok(vec![spec::by_name(token)])
    }
}

impl JobSpec {
    /// For `shared:<kind>` workload tokens, resolves the coherent
    /// front-end parameters: the full-scale shared-footprint spec (kind,
    /// core count, sharing intensity) and the coherence protocol. Classic
    /// workload tokens return `Ok(None)`.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown kind/protocol/sharing tokens, an
    /// out-of-range core count, or coherent overrides on a classic
    /// workload.
    pub fn coherent_spec(
        &self,
    ) -> Result<Option<(shared::SharedSpec, das_coherence::ProtocolKind)>, String> {
        let Some(kind) = self.workload.strip_prefix("shared:") else {
            if self.ov.protocol.is_some() || self.ov.cores.is_some() || self.ov.sharing.is_some() {
                return Err("protocol/cores/sharing overrides need a shared:* workload".to_string());
            }
            return Ok(None);
        };
        let kind = shared::SharedKind::parse(kind)
            .ok_or_else(|| format!("unknown shared workload {kind:?}"))?;
        let cores = match self.ov.cores {
            Some(c) if (1..=16).contains(&c) => c as usize,
            Some(c) => return Err(format!("cores override must be 1..=16, got {c}")),
            None => 4,
        };
        let sharing = match &self.ov.sharing {
            Some(s) => shared::Sharing::parse(s)
                .ok_or_else(|| format!("unknown sharing intensity {s:?}"))?,
            None => shared::Sharing::Mid,
        };
        let protocol = match &self.ov.protocol {
            Some(p) => das_coherence::ProtocolKind::parse(p)
                .ok_or_else(|| format!("unknown coherence protocol {p:?}"))?,
            None => das_coherence::ProtocolKind::Mesi,
        };
        Ok(Some((
            shared::SharedSpec::new(kind, cores, sharing),
            protocol,
        )))
    }

    /// Materialises the job: the system configuration (with all overrides
    /// applied), the design, and the full-scale workload set.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown design/workload/override tokens.
    pub fn materialize(&self) -> Result<(SystemConfig, Design, Vec<WorkloadConfig>), String> {
        use das_core::replacement::ReplacementPolicy;
        use das_dram::geometry::{Arrangement, FastRatio};
        use das_memctrl::controller::{PagePolicy, SchedulerKind};

        let design = Design::parse(&self.design)
            .ok_or_else(|| format!("unknown design key {:?}", self.design))?;
        let defaults = das_core::management::ManagementConfig::paper_default();
        SystemConfig::check_geometry(
            design,
            self.scale,
            self.ov.group_size.unwrap_or(defaults.group_size),
            self.ov.fast_ratio_den.unwrap_or(defaults.fast_ratio.den()),
        )?;
        let workloads = match self.coherent_spec()? {
            Some((spec, _)) => {
                if design.needs_profile() {
                    return Err(format!(
                        "design {:?} needs a profiling pre-pass, which shared:* \
                         workloads do not support",
                        self.design
                    ));
                }
                spec.workload_configs()
            }
            None => resolve_workload(&self.workload)?,
        };
        let mut cfg = SystemConfig::scaled_by(self.scale, self.insts);
        cfg.seed = self.seed;
        let ov = &self.ov;
        if let Some(t) = ov.threshold {
            cfg.management.promotion_threshold = t;
        }
        if let Some(g) = ov.group_size {
            cfg.management.group_size = g;
        }
        if let Some(b) = ov.tcache_bytes {
            cfg.management.tcache_bytes = b;
        }
        if let Some(den) = ov.fast_ratio_den {
            cfg.management.fast_ratio = FastRatio::new(1, den);
        }
        if let Some(r) = &ov.replacement {
            cfg.management.replacement = ReplacementPolicy::parse(r)
                .ok_or_else(|| format!("unknown replacement policy {r:?}"))?;
        }
        if let Some(s) = &ov.scheduler {
            cfg.controller.scheduler = match s.as_str() {
                "frfcfs" => SchedulerKind::FrFcfs,
                "fcfs" => SchedulerKind::Fcfs,
                other => return Err(format!("unknown scheduler {other:?}")),
            };
        }
        if let Some(p) = &ov.page_policy {
            cfg.controller.page_policy = match p.as_str() {
                "open" => PagePolicy::Open,
                "closed" => PagePolicy::Closed,
                other => return Err(format!("unknown page policy {other:?}")),
            };
        }
        if let Some(s) = ov.salp {
            cfg.salp = s;
        }
        if let Some(a) = &ov.arrangement {
            cfg.arrangement = match a.as_str() {
                "reduced" => Arrangement::ReducedInterleaving,
                "partitioning" => Arrangement::Partitioning,
                "interleaving" => Arrangement::Interleaving,
                other => return Err(format!("unknown arrangement {other:?}")),
            };
        }
        if let Some(swap) = ov.swap_ticks {
            let mut t = design.timing();
            t.swap = das_dram::tick::Tick::new(swap);
            t.single_migration = das_dram::tick::Tick::new(swap / 2);
            cfg.timing_override = Some(t);
        }
        if let Some(epoch) = ov.telemetry_epoch {
            cfg.telemetry = das_telemetry::TelemetryConfig::on(epoch);
        }
        if let Some(e) = ov.event_budget {
            cfg.event_budget = e;
        }
        if let Some(p) = &ov.policy {
            let kind = das_policy::PolicyKind::parse(p)
                .ok_or_else(|| format!("unknown migration policy {p:?}"))?;
            if !design.takes_policy() {
                return Err(format!(
                    "policy override needs a dynamic exclusive design, got {:?}",
                    self.design
                ));
            }
            cfg.policy = Some(kind);
        }
        Ok((cfg, design, workloads))
    }

    /// Serialises the job as a JSON object (only-set overrides included).
    pub fn to_value(&self) -> Value {
        let mut ov = Value::obj();
        macro_rules! put {
            ($field:ident as u64) => {
                if let Some(v) = self.ov.$field {
                    ov = ov.set(stringify!($field), u64::from(v));
                }
            };
            ($field:ident) => {
                if let Some(v) = &self.ov.$field {
                    ov = ov.set(stringify!($field), v.clone());
                }
            };
        }
        put!(threshold as u64);
        put!(group_size as u64);
        put!(tcache_bytes as u64);
        put!(fast_ratio_den as u64);
        put!(replacement);
        put!(scheduler);
        put!(page_policy);
        put!(salp);
        put!(arrangement);
        put!(swap_ticks as u64);
        put!(telemetry_epoch as u64);
        put!(event_budget as u64);
        put!(trace_path);
        put!(protocol);
        put!(cores as u64);
        put!(sharing);
        put!(policy);
        Value::obj()
            .set("id", self.id.as_str())
            .set("design", self.design.as_str())
            .set("workload", self.workload.as_str())
            .set("insts", self.insts)
            .set("scale", u64::from(self.scale))
            .set("seed", self.seed)
            .set("ov", ov)
    }

    /// Parses a job from its JSON object form (strict: unknown fields and
    /// unknown override keys are rejected).
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed field.
    pub fn from_value(v: &Value) -> Result<JobSpec, String> {
        let obj = match v {
            Value::Obj(pairs) => pairs,
            _ => return Err("job must be an object".into()),
        };
        let mut job = JobSpec {
            id: String::new(),
            design: String::new(),
            workload: String::new(),
            insts: 0,
            scale: 0,
            seed: 0,
            ov: Overrides::default(),
        };
        for (k, val) in obj {
            match k.as_str() {
                "id" => job.id = req_str(val, "id")?,
                "design" => job.design = req_str(val, "design")?,
                "workload" => job.workload = req_str(val, "workload")?,
                "insts" => job.insts = req_u64(val, "insts")?,
                "scale" => {
                    job.scale = u32::try_from(req_u64(val, "scale")?)
                        .map_err(|_| "scale out of range".to_string())?;
                }
                "seed" => job.seed = req_u64(val, "seed")?,
                "ov" => job.ov = Overrides::from_value(val)?,
                other => return Err(format!("unknown job field {other:?}")),
            }
        }
        if job.id.is_empty() || job.design.is_empty() || job.workload.is_empty() {
            return Err("job needs id, design and workload".into());
        }
        if job.insts == 0 || job.scale == 0 {
            return Err(format!("job {} needs insts and scale", job.id));
        }
        Ok(job)
    }
}

impl Overrides {
    /// Parses the overrides object (strict).
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed field.
    pub fn from_value(v: &Value) -> Result<Overrides, String> {
        let obj = match v {
            Value::Obj(pairs) => pairs,
            _ => return Err("ov must be an object".into()),
        };
        let mut ov = Overrides::default();
        for (k, val) in obj {
            match k.as_str() {
                "threshold" => ov.threshold = Some(req_u32(val, k)?),
                "group_size" => ov.group_size = Some(req_u32(val, k)?),
                "tcache_bytes" => ov.tcache_bytes = Some(req_u64(val, k)?),
                "fast_ratio_den" => ov.fast_ratio_den = Some(req_u32(val, k)?),
                "replacement" => ov.replacement = Some(req_str(val, k)?),
                "scheduler" => ov.scheduler = Some(req_str(val, k)?),
                "page_policy" => ov.page_policy = Some(req_str(val, k)?),
                "salp" => ov.salp = Some(val.as_bool().ok_or("salp must be a bool")?),
                "arrangement" => ov.arrangement = Some(req_str(val, k)?),
                "swap_ticks" => ov.swap_ticks = Some(req_u64(val, k)?),
                "telemetry_epoch" => ov.telemetry_epoch = Some(req_u64(val, k)?),
                "event_budget" => ov.event_budget = Some(req_u64(val, k)?),
                "trace_path" => ov.trace_path = Some(req_str(val, k)?),
                "protocol" => ov.protocol = Some(req_str(val, k)?),
                "cores" => ov.cores = Some(req_u32(val, k)?),
                "sharing" => ov.sharing = Some(req_str(val, k)?),
                "policy" => ov.policy = Some(req_str(val, k)?),
                other => return Err(format!("unknown override {other:?}")),
            }
        }
        Ok(ov)
    }
}

fn req_str(v: &Value, field: &str) -> Result<String, String> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{field} must be a string"))
}

fn req_u64(v: &Value, field: &str) -> Result<u64, String> {
    v.as_u64().ok_or_else(|| format!("{field} must be a u64"))
}

fn req_u32(v: &Value, field: &str) -> Result<u32, String> {
    u32::try_from(req_u64(v, field)?).map_err(|_| format!("{field} out of u32 range"))
}

impl Manifest {
    /// Serialises the manifest as one JSON document.
    pub fn to_value(&self) -> Value {
        Value::obj()
            .set("das_manifest", MANIFEST_VERSION)
            .set("insts", self.insts)
            .set("scale", u64::from(self.scale))
            .set(
                "experiments",
                Value::Arr(
                    self.experiments
                        .iter()
                        .map(|e| {
                            Value::obj().set("id", e.id.as_str()).set(
                                "jobs",
                                Value::Arr(e.jobs.iter().map(JobSpec::to_value).collect()),
                            )
                        })
                        .collect(),
                ),
            )
    }

    /// Renders the manifest document.
    pub fn render(&self) -> String {
        self.to_value().render()
    }

    /// Parses and validates a manifest document.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON, schema violations, duplicate
    /// job ids, or unresolvable designs/workloads.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let doc = json::parse(text)?;
        let version = doc
            .get("das_manifest")
            .and_then(Value::as_u64)
            .ok_or("not a das_manifest document")?;
        if version != MANIFEST_VERSION {
            return Err(format!(
                "manifest version {version} unsupported (this build reads \
                 {MANIFEST_VERSION})"
            ));
        }
        let insts = doc
            .get("insts")
            .and_then(Value::as_u64)
            .ok_or("manifest needs a root insts")?;
        let scale = doc
            .get("scale")
            .and_then(Value::as_u64)
            .and_then(|s| u32::try_from(s).ok())
            .ok_or("manifest needs a root scale")?;
        if insts == 0 || scale == 0 {
            return Err("manifest insts and scale must be positive".into());
        }
        let exps = doc
            .get("experiments")
            .and_then(Value::as_arr)
            .ok_or("missing experiments array")?;
        let mut experiments = Vec::new();
        for e in exps {
            let id = e
                .get("id")
                .and_then(Value::as_str)
                .ok_or("experiment needs an id")?
                .to_string();
            let jobs = e
                .get("jobs")
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("experiment {id} needs a jobs array"))?
                .iter()
                .map(JobSpec::from_value)
                .collect::<Result<Vec<_>, _>>()
                .map_err(|err| format!("experiment {id}: {err}"))?;
            experiments.push(ExperimentPlan { id, jobs });
        }
        let m = Manifest {
            insts,
            scale,
            experiments,
        };
        m.validate()?;
        Ok(m)
    }

    /// Checks that every experiment id names a catalog experiment (its
    /// renderer runs after the jobs, so an unknown id must fail before any
    /// job does), job-id uniqueness, that every job materialises, and that
    /// each experiment's jobs are a shape its renderer can read: a subset
    /// of the catalog grid at the manifest's `insts`/`scale` holding every
    /// catalog job of each group (workload row) it touches, as `--only`
    /// produces.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = std::collections::HashSet::new();
        for e in &self.experiments {
            let Some(exp) = crate::catalog::by_id(&e.id) else {
                return Err(format!("unknown experiment {:?}", e.id));
            };
            for j in &e.jobs {
                if !seen.insert(j.id.as_str()) {
                    return Err(format!("duplicate job id {:?}", j.id));
                }
                j.materialize()
                    .map_err(|err| format!("job {}: {err}", j.id))?;
            }
            let grid = (exp.build)(&crate::catalog::BuildParams::new(self.insts, self.scale));
            check_grid_shape(&e.id, &e.jobs, &grid)?;
        }
        Ok(())
    }

    /// All jobs across experiments, in execution order.
    pub fn jobs(&self) -> Vec<&JobSpec> {
        self.experiments
            .iter()
            .flat_map(|e| e.jobs.iter())
            .collect()
    }

    /// A 64-bit FNV-1a fingerprint of the rendered manifest, as fixed-width
    /// hex. Journals record it so a resume against a *different* manifest
    /// is rejected instead of silently misattributing results.
    pub fn fingerprint(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.render().as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
        format!("{h:016x}")
    }
}

/// Checks that `jobs` of experiment `exp` are a subset of its catalog
/// `grid` that holds every grid job of each group it touches.
fn check_grid_shape(exp: &str, jobs: &[JobSpec], grid: &[JobSpec]) -> Result<(), String> {
    if let Some(j) = jobs.iter().find(|j| !grid.iter().any(|g| g.id == j.id)) {
        return Err(format!(
            "experiment {exp}: job {:?} is not in its catalog grid",
            j.id
        ));
    }
    let groups: Vec<&str> = jobs.iter().map(|j| group_of(&j.id)).collect();
    if let Some(g) = grid
        .iter()
        .find(|g| groups.contains(&group_of(&g.id)) && !jobs.iter().any(|j| j.id == g.id))
    {
        return Err(format!(
            "experiment {exp}: job {:?} of group {:?} is missing",
            g.id,
            group_of(&g.id)
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A catalog-shaped manifest: the Fig. 8a sweep's `mcf` row and the
    /// Fig. 7d `M1` mix row.
    fn sample() -> Manifest {
        crate::cli::build_catalog_manifest(
            &["fig8a".to_string(), "fig7d".to_string()],
            100_000,
            64,
            &["mcf".to_string(), "M1".to_string()],
        )
        .expect("catalog experiments")
    }

    fn sample_job(m: &Manifest, id: &str) -> JobSpec {
        m.jobs()
            .into_iter()
            .find(|j| j.id == id)
            .unwrap_or_else(|| panic!("no job {id}"))
            .clone()
    }

    #[test]
    fn manifest_round_trips_and_fingerprints_stably() {
        let m = sample();
        let doc = m.render();
        let back = Manifest::parse(&doc).expect("round trip");
        assert_eq!(back, m);
        assert_eq!(back.render(), doc);
        assert_eq!(back.fingerprint(), m.fingerprint());
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let mut doc = sample().to_value();
        // Splice an unknown override into the rendered text.
        let rendered = doc.render();
        // `warp_factor` never existed; the fault-injection keys were
        // retired with the injector, and the watchdog override had no user
        // (spelled in pieces, so a source search for a retired name finds
        // no live use).
        for (key, val) in [
            ("warp_factor".to_string(), "9"),
            (["fault", "rate"].join("_"), "0.01"),
            (["fault", "seed"].join("_"), "7"),
            (["invariant", "check", "events"].join("_"), "10000"),
            (["watchdog", "wakes"].join("_"), "50000"),
        ] {
            let text = rendered.replace(
                "\"threshold\":4",
                &format!("\"threshold\":4,\"{key}\":{val}"),
            );
            let err = Manifest::parse(&text).unwrap_err();
            assert!(
                err.contains(&format!("unknown override \"{key}\"")),
                "{err}"
            );
        }
        doc = Value::obj()
            .set("das_manifest", 99u64)
            .set("insts", 1u64)
            .set("scale", 1u64)
            .set("experiments", Value::Arr(Vec::new()));
        assert!(Manifest::parse(&doc.render())
            .unwrap_err()
            .contains("version"));
    }

    #[test]
    fn out_of_range_geometry_is_an_error_not_a_panic() {
        let fig7b = |scale| {
            crate::cli::build_catalog_manifest(
                &["fig7b".to_string()],
                50_000,
                scale,
                &["mcf".to_string()],
            )
            .unwrap()
        };
        for scale in [65_536, 4096] {
            let err = fig7b(scale).validate().unwrap_err();
            assert!(err.contains(&format!("scale {scale}")), "{err}");
        }
        let job = |group_size, fast_ratio_den| JobSpec {
            ov: Overrides {
                group_size,
                fast_ratio_den,
                ..Overrides::default()
            },
            ..sample_job(&sample(), "fig8a/mcf/t4")
        };
        for (j, want) in [
            (job(Some(3), None), "group size 3 "),
            (job(Some(512), None), "group size 512 "),
            (job(None, Some(0)), "fast ratio 1/0 "),
            (job(None, Some(3)), "fast ratio 1/3 "),
        ] {
            let err = j.materialize().unwrap_err();
            assert!(err.starts_with(want), "{err}");
        }
    }

    #[test]
    fn unknown_experiment_ids_are_rejected() {
        let mut m = sample();
        m.experiments[0].id = "fig99z".into();
        assert!(m
            .validate()
            .unwrap_err()
            .contains("unknown experiment \"fig99z\""));
        assert!(Manifest::parse(&m.render())
            .unwrap_err()
            .contains("unknown experiment"));
    }

    #[test]
    fn duplicate_job_ids_are_rejected() {
        let mut m = sample();
        let dup = m.experiments[0].jobs[0].clone();
        m.experiments[0].jobs.push(dup);
        assert!(m.validate().unwrap_err().contains("duplicate"));
    }

    #[test]
    fn job_lists_the_renderer_cannot_read_are_rejected() {
        // A hand-cut Fig. 7a row: Std and DAS only, DAS renamed.
        let mut m = crate::cli::build_catalog_manifest(
            &["fig7a".to_string()],
            50_000,
            64,
            &["libquantum".to_string()],
        )
        .unwrap();
        m.experiments[0]
            .jobs
            .retain(|j| j.id.ends_with("/std") || j.id.ends_with("/das"));
        let err = m.validate().unwrap_err();
        assert_eq!(
            err,
            "experiment fig7a: job \"fig7a/libquantum/sas\" of group \"libquantum\" is missing"
        );
        m.experiments[0].jobs[1].id = "fig7a/libquantum/mine".into();
        let err = m.validate().unwrap_err();
        assert_eq!(
            err,
            "experiment fig7a: job \"fig7a/libquantum/mine\" is not in its catalog grid"
        );
        assert_eq!(Manifest::parse(&m.render()).unwrap_err(), err);
    }

    #[test]
    fn every_only_filtered_catalog_grid_validates() {
        let mut names: Vec<&str> = spec::names();
        names.extend(mixes::names());
        names.extend(["ring", "lock", "frontier"]);
        let all: Vec<String> = crate::catalog::ids()
            .iter()
            .map(|s| s.to_string())
            .collect();
        for only in names.iter().map(|n| vec![n.to_string()]).chain([
            Vec::new(),
            vec!["mcf".to_string(), "lbm".to_string(), "lock".to_string()],
        ]) {
            let m = crate::cli::build_catalog_manifest(&all, 100_000, 64, &only).unwrap();
            m.validate()
                .unwrap_or_else(|e| panic!("--only {only:?}: {e}"));
        }
    }

    #[test]
    fn materialize_applies_overrides() {
        let m = sample();
        let (cfg, design, wl) = sample_job(&m, "fig8a/mcf/t4").materialize().unwrap();
        assert_eq!(design, Design::DasDram);
        assert_eq!(cfg.management.promotion_threshold, 4);
        assert_eq!(cfg.inst_budget, 100_000);
        assert_eq!(wl.len(), 1);
        let (_, _, mix) = sample_job(&m, "fig7d/M1/das").materialize().unwrap();
        assert_eq!(mix.len(), 4, "mix token expands to four benchmarks");
    }

    #[test]
    fn unknown_tokens_are_rejected() {
        let mut job = sample_job(&sample(), "fig8a/mcf/t4");
        job.design = "warp".to_string();
        assert_eq!(
            job.materialize().unwrap_err(),
            "unknown design key \"warp\""
        );
        assert!(resolve_workload("mix:M99").is_err());
        assert!(resolve_workload("nosuchbench").is_err());
    }

    #[test]
    fn only_the_current_version_parses() {
        for other in [MANIFEST_VERSION - 1, MANIFEST_VERSION + 1] {
            let text = sample().render().replace(
                &format!("\"das_manifest\":{MANIFEST_VERSION}"),
                &format!("\"das_manifest\":{other}"),
            );
            assert_ne!(text, sample().render(), "substitution must hit");
            let err = Manifest::parse(&text).unwrap_err();
            assert!(err.contains("version"), "{err}");
        }
        assert_eq!(Manifest::parse(&sample().render()), Ok(sample()));
    }

    #[test]
    fn shared_workload_tokens_materialize() {
        let job = JobSpec {
            id: "coh/lock/das".into(),
            design: "das".into(),
            workload: "shared:lock".into(),
            insts: 100_000,
            scale: 64,
            seed: 42,
            ov: Overrides {
                protocol: Some("dragon".into()),
                cores: Some(2),
                sharing: Some("high".into()),
                ..Overrides::default()
            },
        };
        let (spec, protocol) = job.coherent_spec().unwrap().expect("coherent job");
        assert_eq!(protocol, das_coherence::ProtocolKind::Dragon);
        assert_eq!(spec.cores, 2);
        assert_eq!(spec.name(), "lock x2 @high");
        let (_, design, wl) = job.materialize().unwrap();
        assert_eq!(design, Design::DasDram);
        assert_eq!(wl.len(), 2, "one stream per core");
        // Round trip preserves the coherent overrides.
        let back = JobSpec::from_value(&job.to_value()).unwrap();
        assert_eq!(back, job);
    }

    #[test]
    fn policy_overrides_materialize_and_round_trip() {
        let mut job = JobSpec {
            id: "pol/mcf/das".into(),
            design: "das".into(),
            workload: "mcf".into(),
            insts: 100_000,
            scale: 64,
            seed: 42,
            ov: Overrides {
                policy: Some("cost_aware".into()),
                ..Overrides::default()
            },
        };
        let (cfg, design, _) = job.materialize().unwrap();
        assert_eq!(design, Design::DasDram);
        assert_eq!(cfg.policy, Some(das_policy::PolicyKind::CostAware));
        let back = JobSpec::from_value(&job.to_value()).unwrap();
        assert_eq!(back, job);
        // Every shipped policy key is a valid token.
        for kind in das_policy::ALL_POLICIES {
            job.ov.policy = Some(kind.key().into());
            let (cfg, _, _) = job.materialize().unwrap();
            assert_eq!(cfg.policy, Some(kind));
        }
    }

    #[test]
    fn policy_override_errors_are_loud() {
        let mut job = JobSpec {
            id: "pol/bad".into(),
            design: "das".into(),
            workload: "mcf".into(),
            insts: 1_000,
            scale: 64,
            seed: 42,
            ov: Overrides {
                policy: Some("oracle".into()),
                ..Overrides::default()
            },
        };
        assert!(job.materialize().unwrap_err().contains("migration policy"));
        job.ov.policy = Some("feedback".into());
        // A policy needs a dynamic exclusive fast level to steer: the
        // homogeneous baseline, static-profiled placements and the
        // inclusive-cache managements (das_incl, TL-DRAM) are all rejected.
        for design in ["std", "salp", "sas", "charm", "das_incl", "tl"] {
            job.design = design.into();
            assert!(
                job.materialize()
                    .unwrap_err()
                    .contains("dynamic exclusive design"),
                "{design} must reject a policy override"
            );
        }
        // Dynamic exclusive designs accept it.
        for design in ["das", "das_fm", "lisa", "clr"] {
            job.design = design.into();
            assert!(job.materialize().is_ok(), "{design} runs policies");
        }
    }

    #[test]
    fn coherent_token_errors_are_loud() {
        let mut job = JobSpec {
            id: "coh/bad".into(),
            design: "das".into(),
            workload: "shared:nosuch".into(),
            insts: 1_000,
            scale: 64,
            seed: 42,
            ov: Overrides::default(),
        };
        assert!(job.materialize().unwrap_err().contains("shared workload"));
        job.workload = "shared:ring".into();
        job.ov.protocol = Some("moesi".into());
        assert!(job.materialize().unwrap_err().contains("protocol"));
        job.ov.protocol = None;
        job.ov.cores = Some(99);
        assert!(job.materialize().unwrap_err().contains("1..=16"));
        job.ov.cores = None;
        job.design = "sas".into();
        assert!(job.materialize().unwrap_err().contains("pre-pass"));
        // Coherent overrides on a classic workload are rejected.
        job.design = "das".into();
        job.workload = "mcf".into();
        job.ov.sharing = Some("mid".into());
        assert!(job.materialize().unwrap_err().contains("shared:*"));
    }
}
