//! Typed accessors over journalled run reports.
//!
//! Renderers never touch [`das_sim::stats::RunMetrics`] — they consume
//! the report [`Value`]s from the journal, whether those were produced
//! seconds ago in this process or loaded from a resumed file. That single
//! code path is what makes an N-thread, resumed, or re-rendered run
//! byte-identical to a fresh serial one. JSON floats render in shortest-
//! round-trip form and parse back exactly, so arithmetic over report
//! fields (the improvement metric, gmean inputs) produces bit-equal
//! results from a reloaded journal.

use das_telemetry::json::Value;

/// A borrowed view of one run report.
#[derive(Clone, Copy)]
pub struct ReportView<'a>(pub &'a Value);

impl<'a> ReportView<'a> {
    fn at(&self, path: &str) -> &'a Value {
        self.0
            .get_path(path)
            .unwrap_or_else(|| panic!("run report missing {path:?}"))
    }

    /// Float field (integers widen), panicking on schema mismatch — a
    /// malformed journal is rejected at load, so this is an internal bug.
    pub fn f64(&self, path: &str) -> f64 {
        self.at(path)
            .as_f64()
            .unwrap_or_else(|| panic!("report field {path:?} is not a number"))
    }

    /// Exact unsigned field.
    pub fn u64(&self, path: &str) -> u64 {
        self.at(path)
            .as_u64()
            .unwrap_or_else(|| panic!("report field {path:?} is not a u64"))
    }

    /// String field.
    pub fn str(&self, path: &str) -> &'a str {
        self.at(path)
            .as_str()
            .unwrap_or_else(|| panic!("report field {path:?} is not a string"))
    }

    /// Array field.
    pub fn arr(&self, path: &str) -> &'a [Value] {
        self.at(path)
            .as_arr()
            .unwrap_or_else(|| panic!("report field {path:?} is not an array"))
    }

    /// Whether the field exists (and is non-null).
    pub fn has(&self, path: &str) -> bool {
        !matches!(self.0.get_path(path), None | Some(Value::Null))
    }

    /// Per-core IPCs, in core order.
    pub fn core_ipcs(&self) -> Vec<f64> {
        self.arr("metrics/cores")
            .iter()
            .map(|c| ReportView(c).f64("ipc"))
            .collect()
    }

    /// The paper's improvement metric against a baseline run:
    /// [`das_sim::experiments::ipc_improvement`] over the journalled
    /// per-core IPCs (bit-equal to a live run's by the shortest-round-trip
    /// float guarantee).
    ///
    /// # Panics
    ///
    /// Panics if the two runs have different core counts.
    pub fn improvement_over(&self, base: &ReportView) -> f64 {
        das_sim::experiments::ipc_improvement(&self.core_ipcs(), &base.core_ipcs())
    }

    /// Access-location fractions `(row_buffer, fast, slow)` as serialised
    /// by the run (Fig. 7c/7f).
    pub fn access_fractions(&self) -> (f64, f64, f64) {
        (
            self.f64("metrics/access_mix/row_buffer_frac"),
            self.f64("metrics/access_mix/fast_frac"),
            self.f64("metrics/access_mix/slow_frac"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_sim::config::{Design, SystemConfig};
    use das_sim::experiments::{improvement, run_one};
    use das_sim::report::run_report;
    use das_telemetry::json;
    use das_workloads::spec;

    #[test]
    fn journal_round_trip_preserves_improvement_bits() {
        let cfg = SystemConfig::scaled_by(64, 200_000);
        let wl = vec![spec::by_name("libquantum")];
        let base = run_one(&cfg, Design::Standard, &wl).unwrap();
        let das = run_one(&cfg, Design::DasDram, &wl).unwrap();
        let expected = improvement(&das, &base);
        // Render and reparse, as a resumed journal would.
        let base_v = json::parse(&run_report(&base, None).render()).unwrap();
        let das_v = json::parse(&run_report(&das, None).render()).unwrap();
        let got = ReportView(&das_v).improvement_over(&ReportView(&base_v));
        assert!(
            got.to_bits() == expected.to_bits(),
            "bit-exact improvement: {got} vs {expected}"
        );
        let (rb, f, s) = ReportView(&base_v).access_fractions();
        let (erb, ef, es) = base.access_mix.fractions();
        assert_eq!(
            (rb.to_bits(), f.to_bits(), s.to_bits()),
            (erb.to_bits(), ef.to_bits(), es.to_bits())
        );
    }

    #[test]
    fn accessors_read_scalar_fields() {
        let v = json::parse(
            r#"{"design":"X","metrics":{"ipc_sum":1.5,"promotions":7},"telemetry":null}"#,
        )
        .unwrap();
        let r = ReportView(&v);
        assert_eq!(r.str("design"), "X");
        assert_eq!(r.u64("metrics/promotions"), 7);
        assert!((r.f64("metrics/ipc_sum") - 1.5).abs() < 1e-12);
        assert!(!r.has("telemetry"));
        assert!(r.has("metrics/ipc_sum"));
    }
}
