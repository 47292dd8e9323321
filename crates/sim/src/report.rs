//! Machine-readable run reports.
//!
//! [`run_report`] assembles one run's [`RunMetrics`] — and, when the
//! telemetry sink was on, its latency histograms and epoch time-series —
//! into a [`das_telemetry::json::Value`] tree; [`run_report_json`] renders
//! it. The schema is flat and stable: top-level `design`/`workload`
//! identification, a `metrics` object mirroring [`RunMetrics`], and an
//! optional `telemetry` object (see
//! [`das_telemetry::TelemetryReport::to_value`]).

use das_telemetry::json::Value;
use das_telemetry::TelemetryReport;

use crate::stats::RunMetrics;

/// Serialises one run's metrics as a JSON object.
pub fn metrics_to_value(m: &RunMetrics) -> Value {
    let coherence = m.coherence.as_ref().map(|c| {
        Value::obj()
            .set("protocol", c.protocol.as_str())
            .set("cores", c.cores as u64)
            .set("bus_rd", c.stats.bus_rd)
            .set("bus_rdx", c.stats.bus_rdx)
            .set("bus_upgr", c.stats.bus_upgr)
            .set("bus_upd", c.stats.bus_upd)
            .set("bus_transactions", c.stats.bus_transactions())
            .set("invalidations", c.stats.invalidations)
            .set("interventions", c.stats.interventions)
            .set("writeback_flushes", c.stats.writeback_flushes)
            .set("bus_wait_cycles", c.stats.bus_wait_cycles)
            .set("bus_busy_cycles", c.stats.bus_busy_cycles)
            .set("l1_hits", c.stats.l1_hits)
            .set("l1_misses", c.stats.l1_misses)
            .set("l1_hit_rate", c.l1_hit_rate())
            .set("invalidations_per_tx", c.invalidations_per_tx())
            .set("shared_promotions", c.stats.shared_promotions)
    });
    let cores = Value::Arr(
        m.cores
            .iter()
            .map(|c| {
                Value::obj()
                    .set("insts", c.insts)
                    .set("cycles", c.cycles)
                    .set("llc_misses", c.llc_misses)
                    .set("ipc", c.ipc())
                    .set("mpki", c.mpki())
            })
            .collect(),
    );
    let (rb, fast, slow) = m.access_mix.fractions();
    let v = Value::obj()
        .set("ipc_sum", m.ipc_sum())
        .set("mpki", m.mpki())
        .set("cores", cores)
        .set(
            "access_mix",
            Value::obj()
                .set("row_buffer", m.access_mix.row_buffer)
                .set("fast", m.access_mix.fast)
                .set("slow", m.access_mix.slow)
                .set("row_buffer_frac", rb)
                .set("fast_frac", fast)
                .set("slow_frac", slow),
        )
        .set("fast_activation_ratio", m.fast_activation_ratio())
        .set("promotions", m.promotions)
        .set("ppkm", m.ppkm())
        .set("memory_accesses", m.memory_accesses)
        .set("llc_misses", m.llc_misses)
        .set("footprint_bytes", m.footprint_bytes)
        .set("table_fetch_reads", m.table_fetch_reads)
        .set(
            "translation",
            Value::obj()
                .set("hits", m.translation.hits)
                .set("misses", m.translation.misses)
                .set("fills", m.translation.fills)
                .set("invalidations", m.translation.invalidations),
        )
        .set(
            "energy_nj",
            Value::obj()
                .set("act_pre", m.energy.act_pre_nj)
                .set("burst", m.energy.burst_nj)
                .set("migration", m.energy.migration_nj)
                .set("background", m.energy.background_nj)
                .set("total", m.energy.total_nj()),
        )
        .set("window_cycles", m.window_cycles)
        .set("active_subarrays", m.active_subarrays)
        .set("total_subarrays", m.total_subarrays);
    // The keys are absent (not null) on classic runs so their reports stay
    // byte-identical to pre-coherence / pre-policy builds.
    let v = match coherence {
        Some(c) => v.set("coherence", c),
        None => v,
    };
    match m.policy.as_ref() {
        Some(p) => v.set(
            "policy",
            Value::obj()
                .set("policy", p.policy.as_str())
                .set("promotes", p.promotes)
                .set("holds", p.holds)
                .set("threshold_adjusts", p.threshold_adjusts)
                .set("epochs", p.epochs)
                .set("final_threshold", p.final_threshold as u64),
        ),
        None => v,
    }
}

/// Builds the full run report: identification, metrics, and (when the sink
/// was on) the telemetry block with per-class latency percentiles and the
/// epoch series.
pub fn run_report(m: &RunMetrics, tel: Option<&TelemetryReport>) -> Value {
    let mut report = Value::obj()
        .set("design", m.design.as_str())
        .set("workload", m.workload.as_str())
        .set("metrics", metrics_to_value(m));
    report = match tel {
        Some(t) => report.set("telemetry", t.to_value()),
        None => report.set("telemetry", Value::Null),
    };
    report
}

/// Renders [`run_report`] as a compact JSON document.
pub fn run_report_json(m: &RunMetrics, tel: Option<&TelemetryReport>) -> String {
    run_report(m, tel).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{AccessMix, CoreMetrics};
    use das_telemetry::json::validate;

    fn metrics() -> RunMetrics {
        RunMetrics {
            design: "DAS-DRAM".into(),
            workload: "mcf".into(),
            cores: vec![CoreMetrics {
                insts: 1_000,
                cycles: 2_000,
                llc_misses: 50,
            }],
            access_mix: AccessMix {
                row_buffer: 40,
                fast: 45,
                slow: 15,
            },
            promotions: 7,
            memory_accesses: 100,
            llc_misses: 50,
            ..RunMetrics::default()
        }
    }

    #[test]
    fn report_without_telemetry_validates() {
        let json = run_report_json(&metrics(), None);
        validate(&json).unwrap();
        assert!(json.contains("\"design\":\"DAS-DRAM\""));
        assert!(json.contains("\"telemetry\":null"));
        assert!(
            !json.contains("coherence"),
            "classic reports must not grow a coherence key"
        );
        assert!(
            !json.contains("\"policy\""),
            "classic reports must not grow a policy key"
        );
    }

    #[test]
    fn coherence_block_appears_when_front_end_was_mounted() {
        use crate::stats::CoherenceMetrics;
        let mut m = metrics();
        m.coherence = Some(CoherenceMetrics {
            protocol: "MESI".into(),
            cores: 4,
            stats: das_coherence::CoherenceStats {
                bus_rd: 10,
                bus_rdx: 5,
                invalidations: 3,
                l1_hits: 90,
                l1_misses: 15,
                ..Default::default()
            },
        });
        let json = run_report_json(&m, None);
        validate(&json).unwrap();
        assert!(json.contains("\"coherence\":{\"protocol\":\"MESI\""));
        assert!(json.contains("\"bus_transactions\":15"));
        assert!(json.contains("\"invalidations_per_tx\":0.2"));
    }

    #[test]
    fn policy_block_appears_when_a_policy_was_installed() {
        use crate::stats::PolicyMetrics;
        let mut m = metrics();
        m.policy = Some(PolicyMetrics {
            policy: "feedback".into(),
            promotes: 12,
            holds: 88,
            threshold_adjusts: 2,
            epochs: 3,
            final_threshold: 6,
        });
        let json = run_report_json(&m, None);
        validate(&json).unwrap();
        assert!(json.contains("\"policy\":{\"policy\":\"feedback\""));
        assert!(json.contains("\"final_threshold\":6"));
    }

    #[test]
    fn report_with_telemetry_embeds_percentiles() {
        use das_telemetry::{LatencyClass, Telemetry, TelemetryConfig};
        let mut t = Telemetry::new(TelemetryConfig::on(1_000), 1, 24_000.0);
        t.record_latency(0, LatencyClass::FastMiss, 500);
        t.record_latency(0, LatencyClass::SlowMiss, 900);
        let rep = t.into_report().unwrap();
        let json = run_report_json(&metrics(), Some(&rep));
        validate(&json).unwrap();
        assert!(
            json.contains("\"p99\""),
            "per-class percentiles present: {json}"
        );
        assert!(json.contains("\"epochs\":[]"));
    }
}
