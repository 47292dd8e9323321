//! Silicon-area overhead models for the hybrid-bitline designs (§3.1, §4.3).
//!
//! The paper evaluates designs by the extra die area they cost relative to
//! a homogeneous DRAM of the same capacity:
//!
//! * **DAS/CHARM (asymmetric subarrays)** — fast subarrays add extra sense
//!   amplifiers (row buffers) and peripheral decode per unit capacity. With
//!   the row buffer ≈ 1/6 of a subarray and a 1:2 fast:slow subarray ratio,
//!   the paper reports **6.6 %** (§4.3), and 11.3 % at ratio 1/4 (§7.6).
//! * **TL-DRAM (segmented bitlines)** — isolation transistors (~11.5 row
//!   heights per subarray) plus the half-density near segments forced by
//!   the open-bitline architecture; ~**24 %** for 128 near rows (§3.1).
//! * **CLR-DRAM, LISA, SALP** — a thin stripe added to every subarray
//!   ([`stripe_overhead`]).
//!
//! Every model is a formula over the named constants below, in
//! row-equivalent heights.

/// Rows per subarray of a homogeneous device, and per slow subarray.
const SUBARRAY_ROWS: f64 = 512.0;

/// Sense-amplifier stripe height (CHARM: 1/6 of a 512-row subarray).
const SENSE_ROWS: f64 = 85.0;

/// Rows per fast subarray (paper: 128).
const FAST_ROWS: f64 = 128.0;

/// Extra peripheral (decoder/column-mux) height per fast subarray.
const FAST_PERIPHERAL_ROWS: f64 = 12.0;

/// Slow subarrays per fast subarray in the paper's reduced-interleaving
/// pattern (capacity ratio 1/8).
pub const SLOW_PER_FAST: u32 = 2;

/// TL-DRAM's near-segment rows (§3.1 discusses 128).
const TL_NEAR_ROWS: f64 = 128.0;

/// TL-DRAM's isolation-transistor stripe (§3.1: 11.5 rows).
const TL_ISOLATION_ROWS: f64 = 11.5;

/// TL-DRAM's sense-amplifier stripe (§3.1 follows TL-DRAM's 108 rows).
const TL_SENSE_ROWS: f64 = 108.0;

/// CLR-DRAM's extra isolation/coupling transistors per subarray (ISCA
/// 2020 §6: 0.045 % of die area, about a quarter row).
pub const CLR_DRIVER_ROWS: f64 = 0.25;

/// LISA's link-transistor stripe per subarray boundary (HPCA 2016 §4:
/// 0.8 % of die area).
pub const LISA_LINK_ROWS: f64 = 4.8;

/// SALP-MASA's subarray-select latches and designated-bit wiring per
/// subarray (ISCA 2012 §5: ~0.15 % of die area).
pub const SALP_LATCH_ROWS: f64 = 0.9;

/// Fractional area overhead of asymmetric subarrays versus a homogeneous
/// device of equal capacity, with `slow_per_fast` slow subarrays per fast
/// one (§7.6 quotes 6.6 % at capacity ratio 1/8 and 11.3 % at 1/4).
pub fn asymmetric_overhead(slow_per_fast: u32) -> f64 {
    let slow_per_fast = f64::from(slow_per_fast);
    // Homogeneous: the same capacity built from slow subarrays only.
    let homogeneous_subarrays = (FAST_ROWS + slow_per_fast * SUBARRAY_ROWS) / SUBARRAY_ROWS;
    let homogeneous_area = homogeneous_subarrays * (SUBARRAY_ROWS + SENSE_ROWS);
    // Asymmetric: one fast subarray (its own row buffer + peripherals)
    // plus the slow subarrays.
    let asymmetric_area = (FAST_ROWS + SENSE_ROWS + FAST_PERIPHERAL_ROWS)
        + slow_per_fast * (SUBARRAY_ROWS + SENSE_ROWS);
    asymmetric_area / homogeneous_area - 1.0
}

/// Fractional area overhead of TL-DRAM's segmented bitlines versus a
/// homogeneous device.
///
/// The open-bitline architecture forces near segments onto both ends
/// of the subarray, leaving half of each near region unusable (§3.1:
/// "the cell density of the fast-segment is only one half of a normal
/// cell array"), plus the isolation stripe itself.
pub fn tl_dram_overhead() -> f64 {
    let extra = TL_NEAR_ROWS /* empty half of the near region */ + TL_ISOLATION_ROWS;
    extra / (SUBARRAY_ROWS + TL_SENSE_ROWS)
}

/// Fractional area overhead of an `extra_rows`-tall stripe added to every
/// subarray: CLR-DRAM's morphing drivers ([`CLR_DRIVER_ROWS`]), LISA's
/// inter-subarray links ([`LISA_LINK_ROWS`]) and SALP's latches
/// ([`SALP_LATCH_ROWS`]).
pub fn stripe_overhead(extra_rows: f64) -> f64 {
    extra_rows / (SUBARRAY_ROWS + SENSE_ROWS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn das_overhead_matches_paper_6_6_percent() {
        let o = asymmetric_overhead(SLOW_PER_FAST);
        assert!(
            (0.05..0.08).contains(&o),
            "DAS overhead should be ≈6.6%: got {:.1}%",
            o * 100.0
        );
    }

    #[test]
    fn das_overhead_grows_with_fast_share() {
        // §7.6: 6.6% at ratio 1/8 (1:2 pattern) vs 11.3% at 1/4.
        let eighth = asymmetric_overhead(SLOW_PER_FAST);
        let quarter = asymmetric_overhead(1);
        assert!(quarter > eighth * 1.5, "{quarter} vs {eighth}");
        assert!(
            (0.09..0.14).contains(&quarter),
            "1/4-ratio overhead should be ≈11.3%: got {:.1}%",
            quarter * 100.0
        );
    }

    #[test]
    fn tl_dram_overhead_matches_paper_24_percent() {
        let o = tl_dram_overhead();
        assert!(
            (0.20..0.26).contains(&o),
            "TL-DRAM overhead should be ≈24%: got {:.1}%",
            o * 100.0
        );
    }

    #[test]
    fn tl_dram_is_far_more_expensive_than_das() {
        assert!(tl_dram_overhead() > 3.0 * asymmetric_overhead(SLOW_PER_FAST));
    }

    #[test]
    fn backend_overheads_match_papers_md_table() {
        // Quoted in PAPERS.md: CLR-DRAM ≈0.045 %, LISA ≈0.8 %, SALP ≈0.15 %.
        let table: [(&str, f64, f64, f64); 3] = [
            ("clr", stripe_overhead(CLR_DRIVER_ROWS), 0.0003, 0.0006),
            ("lisa", stripe_overhead(LISA_LINK_ROWS), 0.007, 0.009),
            ("salp", stripe_overhead(SALP_LATCH_ROWS), 0.0012, 0.0018),
        ];
        for (name, o, lo, hi) in table {
            assert!(
                (lo..hi).contains(&o),
                "{name} overhead {:.3}% outside [{:.3}%, {:.3}%]",
                o * 100.0,
                lo * 100.0,
                hi * 100.0
            );
        }
    }

    #[test]
    fn backend_overhead_ordering_is_tl_das_lisa_salp_clr() {
        let tl = tl_dram_overhead();
        let das = asymmetric_overhead(SLOW_PER_FAST);
        let lisa = stripe_overhead(LISA_LINK_ROWS);
        let salp = stripe_overhead(SALP_LATCH_ROWS);
        let clr = stripe_overhead(CLR_DRIVER_ROWS);
        assert!(tl > das && das > lisa && lisa > salp && salp > clr);
        assert!(clr > 0.0);
    }

    #[test]
    fn overheads_keep_their_bits() {
        // Every f64 the renders and reports print, bit for bit.
        let table = [
            (asymmetric_overhead(SLOW_PER_FAST), 0x3fac_df8d_a685_80c0),
            (asymmetric_overhead(1), 0x3fb9_fc65_e2ab_5a50),
            (tl_dram_overhead(), 0x3fcc_cccc_cccc_cccd),
            (stripe_overhead(CLR_DRIVER_ROWS), 0x3f3b_71a2_84ee_6b34),
            (stripe_overhead(LISA_LINK_ROWS), 0x3f80_7761_82f5_7385),
            (stripe_overhead(SALP_LATCH_ROWS), 0x3f58_b312_4470_2d48),
        ];
        for (i, (o, bits)) in table.into_iter().enumerate() {
            assert_eq!(o.to_bits(), bits, "entry {i}: {o}");
        }
    }
}
