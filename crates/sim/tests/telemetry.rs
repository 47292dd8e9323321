//! Telemetry behaviour of the full system: an Off sink leaves runs
//! bit-identical to uninstrumented ones, an On sink produces deterministic
//! histograms/series/traces whose exports parse, and the epoch series shows
//! DAS-DRAM's fast-activation ratio rising as the warm-up promotes rows.

use das_sim::config::{Design, SystemConfig};
use das_sim::experiments::{run_one, run_one_instrumented};
use das_sim::report::run_report_json;
use das_sim::stats::RunMetrics;
use das_telemetry::{json, LatencyClass, TelemetryConfig};
use das_workloads::spec;

fn mcf() -> Vec<das_workloads::config::WorkloadConfig> {
    vec![spec::by_name("mcf")]
}

fn fingerprint(m: &RunMetrics) -> impl PartialEq + std::fmt::Debug {
    (
        m.access_mix,
        m.promotions,
        m.memory_accesses,
        m.llc_misses,
        m.table_fetch_reads,
        m.window_cycles,
        m.cores
            .iter()
            .map(|c| (c.insts, c.cycles, c.llc_misses))
            .collect::<Vec<_>>(),
    )
}

#[test]
fn off_sink_is_bit_identical_and_reports_nothing() {
    let cfg = SystemConfig::test_small();
    let base = run_one(&cfg, Design::DasDram, &mcf()).unwrap();
    let (res, report) = run_one_instrumented(&cfg, Design::DasDram, &mcf());
    let off = res.unwrap();
    assert!(report.is_none(), "Off sink must not produce a report");
    assert_eq!(fingerprint(&base), fingerprint(&off));
}

#[test]
fn on_sink_does_not_perturb_the_simulation() {
    // The sink observes; it must never steer. Metrics with telemetry on are
    // bit-identical to metrics with it off.
    let cfg = SystemConfig::test_small();
    let inst = cfg.clone().with_telemetry(TelemetryConfig::on(50_000));
    let base = run_one(&cfg, Design::DasDram, &mcf()).unwrap();
    let (res, report) = run_one_instrumented(&inst, Design::DasDram, &mcf());
    let on = res.unwrap();
    assert_eq!(fingerprint(&base), fingerprint(&on));
    let report = report.expect("On sink must produce a report");
    assert!(
        report.merged.total_count() > 0,
        "latencies must be recorded"
    );
    assert!(
        !report.series.samples().is_empty(),
        "epochs must be sampled"
    );
}

#[test]
fn instrumented_runs_are_deterministic() {
    let cfg = SystemConfig::test_small().with_telemetry(TelemetryConfig::on(50_000));
    let (r1, t1) = run_one_instrumented(&cfg, Design::DasDram, &mcf());
    let (r2, t2) = run_one_instrumented(&cfg, Design::DasDram, &mcf());
    assert_eq!(fingerprint(&r1.unwrap()), fingerprint(&r2.unwrap()));
    let (t1, t2) = (t1.unwrap(), t2.unwrap());
    assert_eq!(
        t1.series.samples(),
        t2.series.samples(),
        "epoch series must reproduce"
    );
    assert_eq!(
        t1.trace.events(),
        t2.trace.events(),
        "event traces must reproduce"
    );
    for class in LatencyClass::ALL {
        assert_eq!(
            t1.merged.class(class).nonzero_buckets(),
            t2.merged.class(class).nonzero_buckets(),
            "histograms must reproduce ({})",
            class.label()
        );
    }
}

#[test]
fn das_warmup_raises_the_fast_activation_ratio() {
    let cfg = SystemConfig::test_small().with_telemetry(TelemetryConfig::on(50_000));
    let (res, report) = run_one_instrumented(&cfg, Design::DasDram, &mcf());
    let m = res.unwrap();
    assert!(m.promotions > 0, "DAS must promote rows");
    let report = report.unwrap();
    let samples = report.series.samples();
    assert!(samples.len() >= 4, "need several epochs: {}", samples.len());
    // Promotions fill the fast level over time: the average fast ratio of
    // the later half of the run must exceed the first epoch's.
    let first = samples[0].fast_ratio;
    let later: Vec<f64> = samples[samples.len() / 2..]
        .iter()
        .map(|s| s.fast_ratio)
        .collect();
    let later_avg = later.iter().sum::<f64>() / later.len() as f64;
    assert!(
        later_avg > first,
        "fast ratio must rise during warm-up: first {first:.3}, later avg {later_avg:.3}"
    );
    // Swap spans must appear in the trace once promotions happened.
    assert!(
        report.trace.count_named("swap") > 0,
        "committed swaps must be traced"
    );
}

#[test]
fn exports_parse_and_carry_percentiles() {
    let cfg = SystemConfig::test_small().with_telemetry(TelemetryConfig::on(50_000));
    let (res, report) = run_one_instrumented(&cfg, Design::DasDram, &mcf());
    let m = res.unwrap();
    let report = report.unwrap();

    let trace_json = report.chrome_trace_json();
    json::validate(&trace_json).unwrap();
    assert!(trace_json.contains("\"traceEvents\""));
    assert!(
        trace_json.contains("\"ph\":\"C\""),
        "epoch counters exported"
    );

    let report_json = run_report_json(&m, Some(&report));
    json::validate(&report_json).unwrap();
    for label in ["row_buffer", "fast", "slow"] {
        assert!(
            report_json.contains(&format!("\"{label}\":{{\"count\"")),
            "class {label}"
        );
    }
    for p in ["\"p50\"", "\"p95\"", "\"p99\""] {
        assert!(report_json.contains(p), "percentile {p} present");
    }
    // Slow activations pay the longer restore: their median latency cannot
    // be below the fast median on an asymmetric design.
    let fast = report.merged.class(LatencyClass::FastMiss);
    let slow = report.merged.class(LatencyClass::SlowMiss);
    if fast.count() > 100 && slow.count() > 100 {
        assert!(
            slow.percentile(50.0) >= fast.percentile(50.0),
            "slow p50 {} < fast p50 {}",
            slow.percentile(50.0),
            fast.percentile(50.0)
        );
    }
}

#[test]
fn coherent_telemetry_totals_match_the_cluster_counters() {
    use das_coherence::ProtocolKind;
    use das_sim::experiments::{run_one_coherent, run_one_coherent_instrumented};
    use das_workloads::shared::{SharedKind, SharedSpec, Sharing};

    let cfg = SystemConfig::test_small();
    let spec = SharedSpec::new(SharedKind::Lock, 4, Sharing::Mid);
    for protocol in [ProtocolKind::Mesi, ProtocolKind::Dragon] {
        let base = run_one_coherent(&cfg, Design::DasDram, &spec, protocol).unwrap();
        let inst = cfg.clone().with_telemetry(TelemetryConfig::on(50_000));
        let (res, report) = run_one_coherent_instrumented(&inst, Design::DasDram, &spec, protocol);
        let on = res.unwrap();
        assert_eq!(fingerprint(&base), fingerprint(&on));
        // The sink sums per-access deltas, so its totals are the counters.
        let s = &on.coherence.as_ref().expect("coherence block").stats;
        let report = report.expect("On sink must produce a report");
        let counters = [
            s.bus_rd,
            s.bus_rdx,
            s.bus_upgr,
            s.bus_upd,
            s.invalidations,
            s.interventions,
            s.writeback_flushes,
        ];
        assert_eq!(report.coh_counts, counters, "{protocol:?}");
        assert!(report.coh_bus_wait.count() > 0, "{protocol:?}");
    }
}
