//! # das-telemetry — observability for the DAS-DRAM simulation stack
//!
//! Three instruments, all deterministic (driven by the simulated clock,
//! never the wall clock) and all dependency-free:
//!
//! * [`hist`] — HDR-style log-bucketed latency histograms with percentile
//!   queries and cross-channel merge;
//! * [`series`] — an epoch sampler turning periodic cumulative counter
//!   snapshots into a per-epoch time-series (IPC, fast-activation ratio,
//!   queue occupancy, promotions), exposing warm-up and phase behaviour;
//! * [`trace`] — a structured event trace (migration spans, watchdog
//!   instants, per-epoch counters) exporting Chrome trace-event JSON
//!   viewable in Perfetto;
//!
//! plus [`json`], the minimal value builder/validator the exporters share.
//!
//! [`Telemetry`] is the sink the simulator holds. Constructed [`SinkMode::Off`]
//! (the default), every record method returns after one branch and no
//! buffer is allocated — a run with the sink off is bit-identical to one
//! without the instrumentation (locked in by `crates/sim/tests/telemetry.rs`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hist;
pub mod json;
pub mod series;
pub mod trace;

use std::collections::HashMap;

pub use hist::LatencyHistogram;
pub use series::{EpochCounters, EpochSample, EpochSeries};
pub use trace::{Arg, EventTrace, Phase, TraceEvent};

/// Whether the sink records anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SinkMode {
    /// Record nothing; every hook is a single-branch no-op.
    #[default]
    Off,
    /// Record histograms, the epoch series and the event trace.
    On,
}

/// Telemetry configuration carried in the system config.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Sink mode.
    pub mode: SinkMode,
    /// Epoch length in CPU cycles (sampling period of the time-series).
    pub epoch_cycles: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            mode: SinkMode::Off,
            epoch_cycles: 100_000,
        }
    }
}

impl TelemetryConfig {
    /// An enabled configuration sampling every `epoch_cycles` CPU cycles.
    pub fn on(epoch_cycles: u64) -> Self {
        assert!(epoch_cycles > 0, "epoch length must be positive");
        TelemetryConfig {
            mode: SinkMode::On,
            epoch_cycles,
        }
    }

    /// Whether the sink records.
    pub fn enabled(&self) -> bool {
        self.mode == SinkMode::On
    }
}

/// How a serviced access was classified (mirrors the simulator's
/// `ServiceClass` without depending on it — this crate stays a leaf).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyClass {
    /// Serviced from an open row buffer.
    RowBufferHit,
    /// Required a fast-subarray activation.
    FastMiss,
    /// Required a slow-subarray activation.
    SlowMiss,
}

impl LatencyClass {
    /// All classes, in report order.
    pub const ALL: [LatencyClass; 3] = [
        LatencyClass::RowBufferHit,
        LatencyClass::FastMiss,
        LatencyClass::SlowMiss,
    ];

    /// Stable label used in JSON reports.
    pub fn label(self) -> &'static str {
        match self {
            LatencyClass::RowBufferHit => "row_buffer",
            LatencyClass::FastMiss => "fast",
            LatencyClass::SlowMiss => "slow",
        }
    }

    fn index(self) -> usize {
        match self {
            LatencyClass::RowBufferHit => 0,
            LatencyClass::FastMiss => 1,
            LatencyClass::SlowMiss => 2,
        }
    }
}

/// Coherence event kinds tracked by the sink, in report order. Indices
/// match the `counts` argument of [`Telemetry::coh_access`].
pub const COH_EVENTS: [&str; 7] = [
    "bus_rd",
    "bus_rdx",
    "bus_upgr",
    "bus_upd",
    "invalidations",
    "interventions",
    "writeback_flushes",
];

/// Per-class latency histograms (one [`LatencyHistogram`] per
/// [`LatencyClass`]).
#[derive(Debug, Clone, Default)]
pub struct ClassHistograms {
    hists: [LatencyHistogram; 3],
}

impl ClassHistograms {
    /// Records a sample under `class`.
    pub fn record(&mut self, class: LatencyClass, v: u64) {
        self.hists[class.index()].record(v);
    }

    /// The histogram for `class`.
    pub fn class(&self, class: LatencyClass) -> &LatencyHistogram {
        &self.hists[class.index()]
    }

    /// Merges `other` into `self` (cross-channel aggregation).
    pub fn merge(&mut self, other: &ClassHistograms) {
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge(b);
        }
    }

    /// Total samples across classes.
    pub fn total_count(&self) -> u64 {
        self.hists.iter().map(LatencyHistogram::count).sum()
    }

    /// Serialises all classes as a JSON object keyed by class label, each
    /// with count/min/max/mean/p50/p95/p99/p999 and the non-empty buckets.
    pub fn to_value(&self) -> json::Value {
        let mut obj = json::Value::obj();
        for class in LatencyClass::ALL {
            let h = self.class(class);
            let buckets = json::Value::Arr(
                h.nonzero_buckets()
                    .into_iter()
                    .map(|(low, c)| json::Value::Arr(vec![low.into(), c.into()]))
                    .collect(),
            );
            obj = obj.set(
                class.label(),
                json::Value::obj()
                    .set("count", h.count())
                    .set("min", h.min())
                    .set("max", h.max())
                    .set("mean", h.mean())
                    .set("p50", h.percentile(50.0))
                    .set("p95", h.percentile(95.0))
                    .set("p99", h.percentile(99.0))
                    .set("p999", h.percentile(99.9))
                    .set("buckets", buckets),
            );
        }
        obj
    }
}

/// The telemetry sink the simulator drives. All hooks are single-branch
/// no-ops when the sink is [`SinkMode::Off`].
#[derive(Debug)]
pub struct Telemetry {
    cfg: TelemetryConfig,
    ticks_per_us: f64,
    /// Per-channel histograms (index = channel).
    channel_hists: Vec<ClassHistograms>,
    series: EpochSeries,
    trace: EventTrace,
    /// Begin tick and channel of in-flight migration spans, by token.
    swap_begin: HashMap<u64, (u64, u32)>,
    /// Coherence event counts, indexed as [`COH_EVENTS`].
    coh_counts: [u64; 7],
    /// Bus-arbitration wait per coherence transaction, in core cycles.
    coh_bus_wait: LatencyHistogram,
}

impl Telemetry {
    /// Builds the sink for `channels` DRAM channels. `ticks_per_us`
    /// converts simulator ticks to trace-export microseconds.
    pub fn new(cfg: TelemetryConfig, channels: usize, ticks_per_us: f64) -> Self {
        let on = cfg.enabled();
        Telemetry {
            cfg,
            ticks_per_us,
            channel_hists: if on {
                vec![ClassHistograms::default(); channels]
            } else {
                Vec::new()
            },
            series: EpochSeries::new(if on { cfg.epoch_cycles } else { 0 }),
            trace: EventTrace::new(),
            swap_begin: HashMap::new(),
            coh_counts: [0; 7],
            coh_bus_wait: LatencyHistogram::default(),
        }
    }

    /// A disabled sink (what `Default`-configured systems hold).
    pub fn off() -> Self {
        Telemetry::new(TelemetryConfig::default(), 0, 1.0)
    }

    /// Whether the sink records.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled()
    }

    /// Epoch length in CPU cycles.
    pub fn epoch_cycles(&self) -> u64 {
        self.cfg.epoch_cycles
    }

    /// Records one serviced request's latency on `channel`.
    pub fn record_latency(&mut self, channel: usize, class: LatencyClass, ticks: u64) {
        if !self.enabled() {
            return;
        }
        self.channel_hists[channel].record(class, ticks);
    }

    /// Ingests the cumulative counters at an epoch boundary (`tick` is the
    /// simulated time of the boundary) and emits the per-epoch counter
    /// events into the trace.
    pub fn epoch_boundary(&mut self, tick: u64, cum: EpochCounters) {
        if !self.enabled() {
            return;
        }
        self.series.push_cumulative(cum);
        let s = *self.series.samples().last().expect("just pushed");
        let ts = tick;
        self.trace.push(TraceEvent {
            name: "fast_ratio",
            cat: "epoch",
            ph: Phase::Counter,
            ts_ticks: ts,
            dur_ticks: None,
            tid: u32::MAX,
            args: vec![("value", Arg::F64(s.fast_ratio))],
        });
        self.trace.push(TraceEvent {
            name: "queue_occupancy",
            cat: "epoch",
            ph: Phase::Counter,
            ts_ticks: ts,
            dur_ticks: None,
            tid: u32::MAX,
            args: vec![
                ("read", Arg::U64(s.counters.read_queue)),
                ("write", Arg::U64(s.counters.write_queue)),
            ],
        });
    }

    /// Opens a migration span: the management layer decided to move a row.
    pub fn swap_begin(&mut self, token: u64, tick: u64, channel: u32) {
        if !self.enabled() {
            return;
        }
        self.swap_begin.insert(token, (tick, channel));
    }

    /// Closes a migration span as committed.
    pub fn swap_commit(&mut self, token: u64, tick: u64) {
        if !self.enabled() {
            return;
        }
        let Some((begin, channel)) = self.swap_begin.remove(&token) else {
            return;
        };
        self.trace.push(TraceEvent {
            name: "swap",
            cat: "migration",
            ph: Phase::Complete,
            ts_ticks: begin,
            dur_ticks: Some(tick.saturating_sub(begin)),
            tid: channel,
            args: vec![("token", Arg::U64(token)), ("outcome", Arg::Str("commit"))],
        });
    }

    /// Records the coherence activity one cluster access caused: per-kind
    /// event deltas (indexed as [`COH_EVENTS`]) and the cycles the access's
    /// bus transactions spent waiting for arbitration. A sample lands in
    /// the bus-wait histogram only when the access used the bus at all.
    pub fn coh_access(&mut self, counts: [u64; 7], bus_wait: u64) {
        if !self.enabled() {
            return;
        }
        let mut used_bus = false;
        for (total, d) in self.coh_counts.iter_mut().zip(counts) {
            *total += d;
            used_bus |= d != 0;
        }
        if used_bus {
            self.coh_bus_wait.record(bus_wait);
        }
    }

    /// Records an instant event (`watchdog_fire`).
    pub fn instant(&mut self, name: &'static str, cat: &'static str, tick: u64) {
        if !self.enabled() {
            return;
        }
        self.trace.push(TraceEvent {
            name,
            cat,
            ph: Phase::Instant,
            ts_ticks: tick,
            dur_ticks: None,
            tid: u32::MAX,
            args: vec![],
        });
    }

    /// Finishes recording and produces the report (merged histograms,
    /// series, trace). Returns `None` for a disabled sink.
    pub fn into_report(self) -> Option<TelemetryReport> {
        if !self.enabled() {
            return None;
        }
        let mut merged = ClassHistograms::default();
        for h in &self.channel_hists {
            merged.merge(h);
        }
        Some(TelemetryReport {
            epoch_cycles: self.cfg.epoch_cycles,
            ticks_per_us: self.ticks_per_us,
            merged,
            per_channel: self.channel_hists,
            series: self.series,
            trace: self.trace,
            coh_counts: self.coh_counts,
            coh_bus_wait: self.coh_bus_wait,
        })
    }
}

/// Everything a finished instrumented run exports.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Epoch length in CPU cycles.
    pub epoch_cycles: u64,
    /// Tick-to-microsecond conversion used for trace export.
    pub ticks_per_us: f64,
    /// Histograms merged across channels.
    pub merged: ClassHistograms,
    /// Per-channel histograms.
    pub per_channel: Vec<ClassHistograms>,
    /// The epoch time-series.
    pub series: EpochSeries,
    /// The structured event trace.
    pub trace: EventTrace,
    /// Coherence event counts, indexed as [`COH_EVENTS`] (all zero for
    /// runs without a coherent front end).
    pub coh_counts: [u64; 7],
    /// Bus-arbitration wait per coherence transaction, core cycles.
    pub coh_bus_wait: LatencyHistogram,
}

impl TelemetryReport {
    /// The Chrome trace-event JSON document for this run.
    pub fn chrome_trace_json(&self) -> String {
        self.trace.to_chrome_json(self.ticks_per_us)
    }

    /// Telemetry portion of the run report: histograms (merged and
    /// per-channel) plus the epoch series and the trace-event count (the
    /// full trace exports separately via [`Self::chrome_trace_json`]).
    pub fn to_value(&self) -> json::Value {
        let mut v = json::Value::obj()
            .set("epoch_cycles", self.epoch_cycles)
            .set("trace_events", self.trace.events().len())
            .set("latency_ticks", self.merged.to_value())
            .set(
                "latency_ticks_per_channel",
                json::Value::Arr(
                    self.per_channel
                        .iter()
                        .map(ClassHistograms::to_value)
                        .collect(),
                ),
            )
            .set("epochs", self.series.to_value());
        // The coherence block appears only when a coherent front end
        // recorded something: reports of pre-existing single-core runs stay
        // byte-identical.
        if self.coh_counts.iter().any(|&c| c != 0) {
            let mut counts = json::Value::obj();
            for (name, &c) in COH_EVENTS.iter().zip(self.coh_counts.iter()) {
                counts = counts.set(name, c);
            }
            let h = &self.coh_bus_wait;
            v = v.set(
                "coherence",
                json::Value::obj().set("events", counts).set(
                    "bus_wait_cycles",
                    json::Value::obj()
                        .set("count", h.count())
                        .set("mean", h.mean())
                        .set("p50", h.percentile(50.0))
                        .set("p99", h.percentile(99.0))
                        .set("max", h.max()),
                ),
            );
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_sink_records_nothing_and_reports_none() {
        let mut t = Telemetry::off();
        t.record_latency(0, LatencyClass::FastMiss, 100);
        t.swap_begin(1, 0, 0);
        t.swap_commit(1, 50);
        t.instant("watchdog_fire", "recovery", 10);
        t.epoch_boundary(0, EpochCounters::default());
        assert!(!t.enabled());
        assert!(t.into_report().is_none());
    }

    #[test]
    fn on_sink_merges_channels_and_traces_swaps() {
        let mut t = Telemetry::new(TelemetryConfig::on(1_000), 2, 24_000.0);
        t.record_latency(0, LatencyClass::SlowMiss, 700);
        t.record_latency(1, LatencyClass::SlowMiss, 900);
        t.record_latency(1, LatencyClass::RowBufferHit, 120);
        t.swap_begin(7, 100, 1);
        t.swap_commit(7, 400);
        // A span that never began closes nothing.
        t.swap_commit(8, 300);
        let r = t.into_report().unwrap();
        assert_eq!(r.merged.class(LatencyClass::SlowMiss).count(), 2);
        assert_eq!(r.per_channel[0].class(LatencyClass::SlowMiss).count(), 1);
        assert_eq!(r.trace.count_named("swap"), 1);
        let doc = r.to_value().render();
        json::validate(&doc).unwrap();
        json::validate(&r.chrome_trace_json()).unwrap();
    }

    #[test]
    fn coherence_block_appears_only_when_events_recorded() {
        // No coherence activity: the report value has no "coherence" key.
        let t = Telemetry::new(TelemetryConfig::on(1_000), 1, 24_000.0);
        let quiet = t.into_report().unwrap().to_value().render();
        assert!(!quiet.contains("\"coherence\""));

        let mut t = Telemetry::new(TelemetryConfig::on(1_000), 1, 24_000.0);
        t.coh_access([1, 0, 0, 0, 0, 1, 0], 4); // BusRd + intervention
        t.coh_access([0, 0, 0, 0, 0, 0, 0], 0); // pure hit: no sample
        let r = t.into_report().unwrap();
        assert_eq!(r.coh_counts[0], 1);
        assert_eq!(r.coh_counts[5], 1);
        assert_eq!(r.coh_bus_wait.count(), 1);
        let doc = r.to_value().render();
        assert!(doc.contains("\"coherence\""));
        assert!(doc.contains("\"bus_rd\""));
        json::validate(&doc).unwrap();

        // Off sink: the hook is a no-op.
        let mut off = Telemetry::off();
        off.coh_access([1; 7], 10);
        assert!(off.into_report().is_none());
    }

    #[test]
    fn unknown_swap_end_is_ignored() {
        let mut t = Telemetry::new(TelemetryConfig::on(1_000), 1, 24_000.0);
        t.swap_commit(99, 10); // no matching begin
        let r = t.into_report().unwrap();
        assert_eq!(r.trace.events().len(), 0);
    }

    #[test]
    fn cross_class_merge_is_exact_per_class() {
        // Merging per-channel ClassHistograms must equal recording every
        // sample into one set, class by class — classes never bleed into
        // each other, including classes empty on one side.
        let mut ch0 = ClassHistograms::default();
        let mut ch1 = ClassHistograms::default();
        let mut whole = ClassHistograms::default();
        for v in 0..1_500u64 {
            let x = (v * 2_654_435_761) % 50_000;
            let class = match v % 3 {
                0 => LatencyClass::RowBufferHit,
                1 => LatencyClass::FastMiss,
                _ => LatencyClass::SlowMiss,
            };
            // SlowMiss lands only on channel 1: channel 0's slow histogram
            // stays empty across the merge.
            if class == LatencyClass::SlowMiss || v % 2 == 1 {
                ch1.record(class, x);
            } else {
                ch0.record(class, x);
            }
            whole.record(class, x);
        }
        assert_eq!(ch0.class(LatencyClass::SlowMiss).count(), 0);
        ch0.merge(&ch1);
        assert_eq!(ch0.total_count(), whole.total_count());
        for class in LatencyClass::ALL {
            let (m, w) = (ch0.class(class), whole.class(class));
            assert_eq!(m.count(), w.count(), "{}", class.label());
            assert_eq!(m.min(), w.min(), "{}", class.label());
            assert_eq!(m.max(), w.max(), "{}", class.label());
            assert_eq!(m.nonzero_buckets(), w.nonzero_buckets());
            for p in [50.0, 95.0, 99.0] {
                assert_eq!(m.percentile(p), w.percentile(p), "p{p}");
            }
        }
        assert_eq!(ch0.to_value().render(), whole.to_value().render());
    }
}
