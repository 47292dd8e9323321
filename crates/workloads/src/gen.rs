//! The trace generator: turns a [`WorkloadConfig`] into an infinite,
//! reproducible stream of [`TraceItem`]s.
//!
//! Structure of the stream: the generator picks a *row visit* according to
//! the workload's pattern, then emits a short *run* of consecutive-line
//! references within that row (row-buffer locality), with instruction gaps
//! sampled around the MPKI-derived mean. Hot regions drift on phase
//! boundaries so that dynamic management (DAS) can track what static
//! profiling (SAS/CHARM) cannot.

use das_cpu::TraceItem;
use das_faults::Prng;

use crate::config::{Pattern, WorkloadConfig, LINE_BYTES, ROW_BYTES};

/// Reproducible synthetic trace generator.
///
/// Two generators built with the same `(config, seed, region_base)` produce
/// identical streams — the property the profiling passes for the SAS/CHARM
/// baselines rely on.
///
/// # Examples
///
/// ```
/// use das_workloads::{spec::spec2006, TraceGen};
///
/// let cfg = spec2006().into_iter().find(|c| c.name == "libquantum").unwrap();
/// let a: Vec<_> = TraceGen::new(cfg.clone(), 7, 0).take(100).collect();
/// let b: Vec<_> = TraceGen::new(cfg, 7, 0).take(100).collect();
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct TraceGen {
    cfg: WorkloadConfig,
    rng: Prng,
    /// Base byte address of this workload's region (keeps multi-programmed
    /// workloads disjoint).
    region_base: u64,
    /// Stream cursors in lines (Stream pattern), offset evenly.
    stream_lines: Vec<u64>,
    /// Remaining lines in the current run and its position.
    run_left: u32,
    run_row: u64,
    run_col: u64,
    /// Instructions emitted so far (drives phase drift).
    insts: u64,
    /// Current phase index.
    phase: u64,
    mean_gap: f64,
    /// Multiplier of the row-scatter permutation (coprime with the row
    /// count).
    scatter_mul: u64,
    /// Seed material for per-phase layer origins.
    phase_salt: u64,
}

impl TraceGen {
    /// Creates a generator for `cfg`, deterministically seeded by `seed`,
    /// mapping the workload's footprint at byte offset `region_base`.
    pub fn new(cfg: WorkloadConfig, seed: u64, region_base: u64) -> Self {
        // Mix the workload name into the seed so co-scheduled copies of
        // different benchmarks decorrelate even with equal seeds.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
        for b in cfg.name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        let mean_gap = cfg.mean_gap();
        let rows = cfg.footprint_rows();
        // Golden-ratio multiplier, adjusted to be coprime with the row
        // count, for the row-scatter permutation (see `addr`).
        let mut scatter_mul = ((rows as f64 * 0.618_033_9) as u64) | 1;
        while gcd(scatter_mul, rows) != 1 {
            scatter_mul += 2;
        }
        TraceGen {
            cfg,
            rng: Prng::new(h),
            region_base,
            stream_lines: Vec::new(),
            run_left: 0,
            run_row: 0,
            run_col: 0,
            insts: 0,
            phase: 0,
            mean_gap,
            scatter_mul,
            phase_salt: h ^ 0x5068_6173_6553_616c,
        }
    }

    /// The configuration driving this generator.
    pub fn config(&self) -> &WorkloadConfig {
        &self.cfg
    }

    /// Instructions represented by the items emitted so far.
    pub fn insts_emitted(&self) -> u64 {
        self.insts
    }

    fn lines_per_row(&self) -> u64 {
        ROW_BYTES / LINE_BYTES
    }

    /// Exponential-ish gap with the configured mean, clamped to keep single
    /// items from dwarfing the reorder window.
    fn sample_gap(&mut self) -> u32 {
        if self.mean_gap <= 0.0 {
            return 0;
        }
        let u: f64 = self.rng.range_f64(1e-9, 1.0);
        let g = -self.mean_gap * u.ln();
        g.min(self.mean_gap * 8.0).round() as u32
    }

    fn maybe_advance_phase(&mut self) {
        if let Some(period) = self.cfg.phase_insts {
            let phase = self.insts / period;
            if phase != self.phase {
                self.phase = phase;
            }
        }
    }

    /// Picks the next row visit according to the pattern, returning
    /// `(row, first_col, run_len)`.
    fn pick_row(&mut self) -> (u64, u64, u32) {
        let rows = self.cfg.footprint_rows();
        let lpr = self.lines_per_row();
        let runs = self.cfg.run_lines.max(1);
        match &self.cfg.pattern {
            Pattern::Stream { streams } => {
                // Each cursor sweeps the footprint in order from its own
                // offset; visits rotate across cursors as a real multi-
                // array kernel interleaves its streams.
                let k = (*streams).max(1) as usize;
                let total = rows * lpr;
                if self.stream_lines.len() != k {
                    self.stream_lines = (0..k as u64).map(|i| i * total / k as u64).collect();
                }
                let which = self.rng.range_usize(0, k);
                let line = self.stream_lines[which];
                self.stream_lines[which] = (line + runs as u64) % total;
                (line / lpr, line % lpr, runs)
            }
            Pattern::Layered { layers } => {
                // Each layer occupies a contiguous region whose origin is a
                // seeded hash of the current phase: program phases move to
                // *unpredictable* parts of the footprint (a lifetime/train
                // profile cannot anticipate them — §7's static-vs-dynamic
                // gap). The residual probability is uniform everywhere.
                let mut row = None;
                let u: f64 = self.rng.next_f64();
                let mut acc = 0.0;
                for (li, layer) in layers.iter().enumerate() {
                    let layer_rows = ((rows as f64 * layer.frac) as u64).max(1);
                    if u < acc + layer.prob {
                        let origin = mix64(
                            self.phase_salt
                                ^ (li as u64).wrapping_mul(0x9e37_79b9)
                                ^ self.phase.wrapping_mul(0x85eb_ca6b),
                        ) % rows;
                        let r = (origin + self.rng.range_u64(0, layer_rows)) % rows;
                        row = Some(r);
                        break;
                    }
                    acc += layer.prob;
                }
                let row = row.unwrap_or_else(|| self.rng.range_u64(0, rows));
                let len = self.rng.range_u32(1, runs.max(1) + 1);
                (row, self.rng.range_u64(0, lpr), len)
            }
        }
    }

    fn addr(&self, row: u64, col: u64) -> u64 {
        // Row-scatter permutation: an OS allocates physical pages roughly
        // at random, so a workload's *logically* hot region is scattered
        // across the physical row space (and hence across migration
        // groups). Without this, a contiguous hot region would pile dozens
        // of hot rows into single migration groups that only own a few
        // fast slots — a conflict pathology no real system exhibits.
        let rows = self.cfg.footprint_rows();
        let phys = (row % rows).wrapping_mul(self.scatter_mul) % rows;
        self.region_base + phys * ROW_BYTES + (col % self.lines_per_row()) * LINE_BYTES
    }
}

/// SplitMix64 finaliser: a cheap, well-mixed 64-bit hash.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Greatest common divisor (Euclid).
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl Iterator for TraceGen {
    type Item = TraceItem;

    fn next(&mut self) -> Option<TraceItem> {
        self.maybe_advance_phase();
        if self.run_left == 0 {
            let (row, col, len) = self.pick_row();
            self.run_row = row;
            self.run_col = col;
            self.run_left = len;
        }
        let addr = self.addr(self.run_row, self.run_col);
        self.run_col += 1;
        self.run_left -= 1;
        let gap = self.sample_gap();
        let is_write = self.rng.gen_bool(self.cfg.write_frac);
        let depends_on_prev = !is_write && self.rng.gen_bool(self.cfg.dep_frac);
        self.insts += gap as u64 + 1;
        Some(TraceItem {
            gap,
            addr,
            is_write,
            depends_on_prev,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Layer;
    use std::collections::HashSet;

    fn cfg(pattern: Pattern) -> WorkloadConfig {
        WorkloadConfig {
            name: "test".into(),
            mpki: 25.0,
            footprint_bytes: 4 << 20,
            write_frac: 0.25,
            dep_frac: 0.5,
            pattern,
            run_lines: 4,
            phase_insts: Some(100_000),
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a: Vec<_> = TraceGen::new(cfg(Pattern::hot_cold(0.2, 0.6)), 1, 0)
            .take(500)
            .collect();
        let b: Vec<_> = TraceGen::new(cfg(Pattern::hot_cold(0.2, 0.6)), 1, 0)
            .take(500)
            .collect();
        assert_eq!(a, b);
        let c: Vec<_> = TraceGen::new(cfg(Pattern::hot_cold(0.2, 0.6)), 2, 0)
            .take(500)
            .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn addresses_stay_in_region() {
        let base = 0x4000_0000;
        let g = TraceGen::new(cfg(Pattern::hot_cold(0.1, 0.9)), 3, base);
        for item in g.take(2000) {
            assert!(item.addr >= base);
            assert!(item.addr < base + (4 << 20));
        }
    }

    #[test]
    fn mpki_calibration_is_close() {
        let mut g = TraceGen::new(cfg(Pattern::stream()), 5, 0);
        let n = 20_000;
        for _ in 0..n {
            g.next();
        }
        let achieved_mpki = n as f64 * 1000.0 / g.insts_emitted() as f64;
        assert!(
            (achieved_mpki - 25.0).abs() < 3.0,
            "target 25 MPKI, got {achieved_mpki:.2}"
        );
    }

    #[test]
    fn stream_pattern_sweeps_rows_in_line_order() {
        let mut c = cfg(Pattern::stream());
        c.write_frac = 0.0;
        c.dep_frac = 0.0;
        let items: Vec<_> = TraceGen::new(c.clone(), 1, 0).take(512).collect();
        // Within each row visit, lines advance sequentially (row-buffer
        // locality), and every line of the footprint is visited exactly
        // once per sweep even though rows are scattered.
        for w in items.windows(2) {
            let (r0, c0) = (w[0].addr / ROW_BYTES, (w[0].addr % ROW_BYTES) / 64);
            let (r1, c1) = (w[1].addr / ROW_BYTES, (w[1].addr % ROW_BYTES) / 64);
            if r0 == r1 {
                assert!(c1 == c0 + 1 || c1 == 0, "line order broken: {c0} -> {c1}");
            }
        }
        let distinct: HashSet<u64> = items.iter().map(|i| i.addr).collect();
        assert_eq!(
            distinct.len(),
            items.len(),
            "one sweep never repeats a line"
        );
    }

    #[test]
    fn hotcold_concentrates_accesses() {
        let mut c = cfg(Pattern::hot_cold(0.05, 0.9));
        c.phase_insts = None;
        let items: Vec<_> = TraceGen::new(c, 9, 0).take(10_000).collect();
        let mut row_counts = std::collections::HashMap::new();
        for it in &items {
            *row_counts.entry(it.addr / ROW_BYTES).or_insert(0u64) += 1;
        }
        let mut counts: Vec<u64> = row_counts.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        let top_decile: u64 = counts.iter().take(counts.len() / 10 + 1).sum();
        assert!(
            top_decile as f64 / total as f64 > 0.5,
            "hot rows should dominate: {:.2}",
            top_decile as f64 / total as f64
        );
    }

    #[test]
    fn phases_shift_hot_region() {
        let c = WorkloadConfig {
            phase_insts: Some(20_000),
            ..cfg(Pattern::hot_cold(0.05, 1.0))
        };
        let mut g = TraceGen::new(c, 11, 0);
        let mut early = HashSet::new();
        let mut late = HashSet::new();
        for _ in 0..300 {
            early.insert(g.next().unwrap().addr / ROW_BYTES);
        }
        while g.insts_emitted() < 200_000 {
            g.next();
        }
        for _ in 0..300 {
            late.insert(g.next().unwrap().addr / ROW_BYTES);
        }
        let overlap = early.intersection(&late).count();
        assert!(
            (overlap as f64) < 0.8 * early.len().min(late.len()) as f64,
            "hot set should drift: overlap {overlap} of {}",
            early.len()
        );
    }

    #[test]
    fn write_and_dep_fractions_are_respected() {
        let items: Vec<_> = TraceGen::new(cfg(Pattern::hot_cold(0.3, 0.5)), 13, 0)
            .take(20_000)
            .collect();
        let writes = items.iter().filter(|i| i.is_write).count() as f64 / items.len() as f64;
        assert!((writes - 0.25).abs() < 0.03, "write fraction {writes}");
        let loads: Vec<_> = items.iter().filter(|i| !i.is_write).collect();
        let deps = loads.iter().filter(|i| i.depends_on_prev).count() as f64 / loads.len() as f64;
        assert!((deps - 0.5).abs() < 0.05, "dep fraction {deps}");
    }

    #[test]
    fn pointer_chase_visits_many_rows() {
        let mcf_like = Pattern::Layered {
            layers: vec![Layer::new(0.05, 0.5), Layer::new(0.2, 0.3)],
        };
        let items: Vec<_> = TraceGen::new(cfg(mcf_like), 17, 0).take(5_000).collect();
        let rows: HashSet<u64> = items.iter().map(|i| i.addr / ROW_BYTES).collect();
        assert!(
            rows.len() > 200,
            "pointer chase should scatter: {} rows",
            rows.len()
        );
    }
}
