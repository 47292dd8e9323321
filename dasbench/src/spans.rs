//! In-memory span recorder for the traced run.
//!
//! Spans are taken from the benchmark's own code around its calls into
//! each layer; nothing inside the program is instrumented. Each span has a
//! name, start, end, parent span and job id, stays in memory, and is
//! written once when the run ends. The cost of the probe itself (two
//! back-to-back `Instant::now()` calls) is calibrated at start-up and
//! subtracted from every span, and the time spent recording spans is
//! tallied so the run can report what tracing added to its wall time.

use std::path::Path;
use std::time::Instant;

use das_telemetry::json::Value;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `cache.access`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (probe cost already subtracted).
    pub end_ns: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Job the span belongs to (empty for workload-level spans).
    pub job: String,
}

/// Median cost of one `Instant::now()` probe, in ns, over `samples`
/// back-to-back pairs.
pub fn calibrate_probe(samples: usize) -> f64 {
    let mut d: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as f64
        })
        .collect();
    d.sort_by(f64::total_cmp);
    d[d.len() / 2]
}

/// The span recorder. A disabled tracer records nothing and costs one
/// branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    probe_ns: f64,
    spans: Vec<Span>,
    bookkeeping_ns: u128,
}

impl Tracer {
    /// A tracer; `enabled` selects the traced run.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            probe_ns: if enabled {
                calibrate_probe(10_001)
            } else {
                0.0
            },
            spans: Vec::new(),
            bookkeeping_ns: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The calibrated probe cost, ns.
    pub fn probe_ns(&self) -> f64 {
        self.probe_ns
    }

    /// Records a finished span `[start, end)` and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        job: &str,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let t0 = Instant::now();
        let s = (start - self.epoch).as_nanos() as u64;
        let raw = (end - start).as_nanos() as f64;
        let dur = (raw - self.probe_ns).max(0.0) as u64;
        self.spans.push(Span {
            name,
            start_ns: s,
            end_ns: s + dur,
            parent,
            job: job.to_string(),
        });
        self.bookkeeping_ns += (Instant::now() - t0).as_nanos();
        Some(self.spans.len() - 1)
    }

    /// Opens a span whose end is filled in by [`Tracer::close`] (for
    /// parents recorded before their children finish).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, job: &str) -> Option<usize> {
        let now = Instant::now();
        self.record(name, now, now, parent, job)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, idx: Option<usize>) {
        let (Some(i), true) = (idx, self.enabled) else {
            return;
        };
        let t0 = Instant::now();
        let end = (t0 - self.epoch).as_nanos() as u64;
        let span = &mut self.spans[i];
        span.end_ns = end.saturating_sub(self.probe_ns as u64).max(span.start_ns);
        self.bookkeeping_ns += (Instant::now() - t0).as_nanos();
    }

    /// Wall time spent inside the recorder itself, ns: what tracing added
    /// to the run beyond the probes the untraced run takes anyway.
    pub fn bookkeeping_ns(&self) -> f64 {
        self.bookkeeping_ns as f64
    }

    /// Writes every span as one JSON document.
    ///
    /// # Errors
    ///
    /// Readable I/O failures.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                let v = Value::obj()
                    .set("name", s.name)
                    .set("start_ns", s.start_ns)
                    .set("end_ns", s.end_ns)
                    .set("job", s.job.as_str());
                match s.parent {
                    Some(p) => v.set("parent", p as u64),
                    None => v.set("parent", Value::Null),
                }
            })
            .collect();
        let doc = Value::obj()
            .set("probe_ns", self.probe_ns)
            .set("spans", Value::Arr(spans));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, doc.render())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_cost_is_subtracted_and_disabled_tracers_record_nothing() {
        let mut off = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(off.record("x", now, now, None, ""), None);
        let mut on = Tracer::new(true);
        assert!(on.probe_ns() >= 0.0);
        let a = Instant::now();
        let b = Instant::now();
        let i = on.record("x", a, b, None, "job").unwrap();
        let s = &on.spans[i];
        // A span as short as the probe itself measures (about) nothing.
        assert!(s.end_ns - s.start_ns <= (b - a).as_nanos() as u64);
        let root = on.open("root", None, "");
        let child = on.record("y", Instant::now(), Instant::now(), root, "job");
        on.close(root);
        assert_eq!(on.spans[child.unwrap()].parent, root);
        assert!(on.spans[root.unwrap()].end_ns >= on.spans[root.unwrap()].start_ns);
    }
}
