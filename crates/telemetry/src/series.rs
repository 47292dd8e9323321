//! Epoch time-series: periodic snapshots of run counters.
//!
//! The simulator reports **cumulative** counters at every epoch boundary
//! (a fixed number of CPU cycles, so sampling is tick-driven and
//! deterministic); the sampler differences consecutive snapshots into
//! per-epoch deltas. This is what makes warm-up and phase behaviour
//! visible: the fast-activation ratio of epoch *k* is computed from the
//! activations of epoch *k* alone, not diluted by the whole history.

use crate::json::Value;

/// Cumulative counters at one epoch boundary, as reported by the simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochCounters {
    /// CPU cycle of the boundary (multiple of the epoch length).
    pub cycle: u64,
    /// Instructions retired, summed over cores.
    pub insts: u64,
    /// DRAM reads completed.
    pub reads: u64,
    /// DRAM writes completed.
    pub writes: u64,
    /// Row-buffer hits among serviced accesses.
    pub row_hits: u64,
    /// Fast-subarray activations.
    pub fast_acts: u64,
    /// Slow-subarray activations.
    pub slow_acts: u64,
    /// Row promotions committed.
    pub promotions: u64,
    /// Read-queue occupancy at the boundary (instantaneous, all channels).
    pub read_queue: u64,
    /// Write-queue occupancy at the boundary (instantaneous, all channels).
    pub write_queue: u64,
}

impl EpochCounters {
    fn delta(&self, prev: &EpochCounters) -> EpochCounters {
        EpochCounters {
            cycle: self.cycle,
            insts: self.insts - prev.insts,
            reads: self.reads - prev.reads,
            writes: self.writes - prev.writes,
            row_hits: self.row_hits - prev.row_hits,
            fast_acts: self.fast_acts - prev.fast_acts,
            slow_acts: self.slow_acts - prev.slow_acts,
            promotions: self.promotions - prev.promotions,
            // Occupancies are instantaneous, not differenced.
            read_queue: self.read_queue,
            write_queue: self.write_queue,
        }
    }
}

/// One per-epoch sample (deltas plus instantaneous occupancies).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochSample {
    /// Epoch index (0-based).
    pub epoch: u64,
    /// Counter deltas over this epoch (`cycle` = boundary cycle).
    pub counters: EpochCounters,
    /// Aggregate IPC over the epoch (instructions / epoch cycles, summed
    /// over cores — the multi-programming throughput view).
    pub ipc: f64,
    /// Fast share of this epoch's row activations (0 when none).
    pub fast_ratio: f64,
}

impl EpochSample {
    /// Serialises the sample as a JSON object.
    pub fn to_value(&self) -> Value {
        let c = &self.counters;
        Value::obj()
            .set("epoch", self.epoch)
            .set("cycle", c.cycle)
            .set("ipc", self.ipc)
            .set("fast_ratio", self.fast_ratio)
            .set("insts", c.insts)
            .set("reads", c.reads)
            .set("writes", c.writes)
            .set("row_hits", c.row_hits)
            .set("fast_acts", c.fast_acts)
            .set("slow_acts", c.slow_acts)
            .set("promotions", c.promotions)
            .set("read_queue", c.read_queue)
            .set("write_queue", c.write_queue)
    }
}

/// The recorded time-series.
#[derive(Debug, Clone, Default)]
pub struct EpochSeries {
    /// Epoch length in CPU cycles.
    pub epoch_cycles: u64,
    samples: Vec<EpochSample>,
    last: EpochCounters,
}

impl EpochSeries {
    /// An empty series with the given epoch length.
    pub fn new(epoch_cycles: u64) -> Self {
        EpochSeries {
            epoch_cycles,
            samples: Vec::new(),
            last: EpochCounters::default(),
        }
    }

    /// Ingests the cumulative counters at the next epoch boundary and
    /// records the per-epoch delta sample.
    pub fn push_cumulative(&mut self, cum: EpochCounters) {
        let d = cum.delta(&self.last);
        let acts = d.fast_acts + d.slow_acts;
        let sample = EpochSample {
            epoch: self.samples.len() as u64,
            ipc: if self.epoch_cycles == 0 {
                0.0
            } else {
                d.insts as f64 / self.epoch_cycles as f64
            },
            fast_ratio: if acts == 0 {
                0.0
            } else {
                d.fast_acts as f64 / acts as f64
            },
            counters: d,
        };
        self.samples.push(sample);
        self.last = cum;
    }

    /// The recorded samples, in order.
    pub fn samples(&self) -> &[EpochSample] {
        &self.samples
    }

    /// Serialises the series as a JSON array of sample objects.
    pub fn to_value(&self) -> Value {
        Value::Arr(self.samples.iter().map(EpochSample::to_value).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cum(cycle: u64, insts: u64, fast: u64, slow: u64) -> EpochCounters {
        EpochCounters {
            cycle,
            insts,
            fast_acts: fast,
            slow_acts: slow,
            ..Default::default()
        }
    }

    #[test]
    fn deltas_and_ratios_are_per_epoch() {
        let mut s = EpochSeries::new(1_000);
        s.push_cumulative(cum(1_000, 2_000, 10, 90));
        s.push_cumulative(cum(2_000, 5_000, 110, 140));
        let v = s.samples();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].counters.insts, 2_000);
        assert!((v[0].ipc - 2.0).abs() < 1e-12);
        assert!((v[0].fast_ratio - 0.1).abs() < 1e-12);
        // Epoch 1 sees only its own activations: 100 fast, 50 slow.
        assert_eq!(v[1].counters.fast_acts, 100);
        assert!((v[1].ipc - 3.0).abs() < 1e-12);
        assert!((v[1].fast_ratio - 100.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn empty_epoch_reports_zero_ratio() {
        let mut s = EpochSeries::new(100);
        s.push_cumulative(cum(100, 0, 0, 0));
        assert_eq!(s.samples()[0].fast_ratio, 0.0);
        assert_eq!(s.samples()[0].ipc, 0.0);
    }

    #[test]
    fn series_serialises_to_valid_json() {
        let mut s = EpochSeries::new(500);
        s.push_cumulative(cum(500, 100, 1, 3));
        let json = s.to_value().render();
        crate::json::validate(&json).unwrap();
        assert!(json.contains("\"fast_ratio\":0.25"));
    }
}
