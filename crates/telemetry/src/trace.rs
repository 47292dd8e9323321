//! Structured event trace with Chrome trace-event JSON export.
//!
//! Events carry simulated-time timestamps (ticks); export converts them to
//! the trace-event format's microseconds so a run opens directly in
//! Perfetto / `chrome://tracing`. Three phases are used:
//!
//! * `X` (complete) — spans with a duration: row migrations from the
//!   management decision to commit;
//! * `i` (instant) — point events: watchdog fires;
//! * `C` (counter) — per-epoch series (fast-activation ratio, queue
//!   occupancy), which Perfetto renders as step charts.

use crate::json::Value;

/// The trace-event phase (a subset of the Chrome spec).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Complete event (span with duration).
    Complete,
    /// Instant event.
    Instant,
    /// Counter event.
    Counter,
}

impl Phase {
    fn code(self) -> &'static str {
        match self {
            Phase::Complete => "X",
            Phase::Instant => "i",
            Phase::Counter => "C",
        }
    }
}

/// One argument value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// Unsigned integer argument.
    U64(u64),
    /// Float argument.
    F64(f64),
    /// String argument.
    Str(&'static str),
}

impl From<Arg> for Value {
    fn from(a: Arg) -> Value {
        match a {
            Arg::U64(v) => Value::U64(v),
            Arg::F64(v) => Value::F64(v),
            Arg::Str(v) => Value::Str(v.to_string()),
        }
    }
}

/// One structured trace event, timestamped in simulator ticks.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (shown on the track).
    pub name: &'static str,
    /// Category (used by trace viewers for filtering).
    pub cat: &'static str,
    /// Phase.
    pub ph: Phase,
    /// Start tick.
    pub ts_ticks: u64,
    /// Duration in ticks (complete events only).
    pub dur_ticks: Option<u64>,
    /// Track id (we use the DRAM channel; `u32::MAX` = global).
    pub tid: u32,
    /// Event arguments.
    pub args: Vec<(&'static str, Arg)>,
}

/// An append-only event trace.
#[derive(Debug, Clone, Default)]
pub struct EventTrace {
    events: Vec<TraceEvent>,
}

impl EventTrace {
    /// An empty trace.
    pub fn new() -> Self {
        EventTrace::default()
    }

    /// Appends an event.
    pub fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// Recorded events, in append order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events with the given name (test/report helper).
    pub fn count_named(&self, name: &str) -> usize {
        self.events.iter().filter(|e| e.name == name).count()
    }

    /// Exports the Chrome trace-event JSON document. `ticks_per_us`
    /// converts simulated ticks to the format's microsecond timestamps.
    pub fn to_chrome_json(&self, ticks_per_us: f64) -> String {
        let scale = 1.0 / ticks_per_us;
        let events: Vec<Value> = self
            .events
            .iter()
            .map(|e| {
                let mut obj = Value::obj()
                    .set("name", e.name)
                    .set("cat", e.cat)
                    .set("ph", e.ph.code())
                    .set("ts", e.ts_ticks as f64 * scale)
                    .set("pid", 0u64)
                    .set("tid", e.tid as u64);
                if let Some(d) = e.dur_ticks {
                    obj = obj.set("dur", d as f64 * scale);
                }
                if e.ph == Phase::Instant {
                    obj = obj.set("s", "g"); // global scope marker
                }
                if !e.args.is_empty() {
                    let mut args = Value::obj();
                    for (k, v) in &e.args {
                        args = args.set(k, v.clone());
                    }
                    obj = obj.set("args", args);
                }
                obj
            })
            .collect();
        Value::obj()
            .set("traceEvents", Value::Arr(events))
            .set("displayTimeUnit", "ns")
            .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    #[test]
    fn chrome_export_validates_and_scales_timestamps() {
        let mut t = EventTrace::new();
        t.push(TraceEvent {
            name: "swap",
            cat: "migration",
            ph: Phase::Complete,
            ts_ticks: 24_000, // 1 µs at 24 ticks/ns
            dur_ticks: Some(48_000),
            tid: 2,
            args: vec![("token", Arg::U64(7)), ("outcome", Arg::Str("commit"))],
        });
        t.push(TraceEvent {
            name: "watchdog_fire",
            cat: "recovery",
            ph: Phase::Instant,
            ts_ticks: 0,
            dur_ticks: None,
            tid: u32::MAX,
            args: vec![],
        });
        let json = t.to_chrome_json(24_000.0);
        validate(&json).unwrap();
        assert!(json.contains("\"ts\":1.0"), "24k ticks = 1 µs: {json}");
        assert!(json.contains("\"dur\":2.0"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"s\":\"g\""));
        assert_eq!(t.count_named("swap"), 1);
    }

    #[test]
    fn empty_trace_is_still_a_valid_document() {
        let json = EventTrace::new().to_chrome_json(24_000.0);
        validate(&json).unwrap();
        assert!(json.contains("\"traceEvents\":[]"));
    }
}
