//! Seeded randomized tests for the management structures (formerly
//! proptest; rewritten on the deterministic `das-faults` PRNG): permutation
//! invariants under arbitrary swap sequences, translation-cache bounds,
//! filter and replacement behaviour, and a long mixed-operation consistency
//! drive of the whole management layer.

use das_core::groups::{BankGroups, GroupId};
use das_core::management::{DasManager, ManagementConfig, MigrationRequest};
use das_core::promotion::PromotionFilter;
use das_core::replacement::{ReplacementPolicy, Replacer};
use das_core::translation::TranslationCache;
use das_dram::geometry::{
    Arrangement, BankCoord, BankLayout, DramGeometry, FastRatio, GlobalRowId,
};
use das_faults::Prng;

/// Group permutations stay bijective under any in-group swap sequence, and
/// the number of fast residents per group is constant.
#[test]
fn group_swaps_preserve_permutation() {
    for seed in 0..30u64 {
        let mut rng = Prng::new(seed);
        let mut g = BankGroups::new(4096, 32, FastRatio::new(1, 8));
        let n = rng.range_usize(1, 200);
        for _ in 0..n {
            let grp = rng.range_u32(0, 128);
            let (a, b) = (rng.range_u32(0, 32), rng.range_u32(0, 32));
            let (ra, rb) = (grp * 32 + a, grp * 32 + b);
            if ra == rb {
                continue;
            }
            g.swap_logical(ra, rb);
            assert_eq!(g.verify(), Ok(()), "seed {seed}");
            let fast = (0..32).filter(|&s| g.is_fast(grp * 32 + s)).count();
            assert_eq!(fast, 4, "seed {seed}");
        }
    }
}

/// After promoting row A over victim B, A is fast, B is slow, and every
/// other row of the group is untouched.
#[test]
fn swap_is_local() {
    for seed in 0..60u64 {
        let mut rng = Prng::new(seed ^ 0x10ca1);
        let a = rng.range_u32(0, 32);
        let b = rng.range_u32(0, 32);
        if a == b {
            continue;
        }
        let mut g = BankGroups::new(4096, 32, FastRatio::new(1, 8));
        let before: Vec<u8> = (0..32).map(|s| g.phys_slot(s)).collect();
        g.swap_logical(a, b);
        for s in 0..32u32 {
            if s == a {
                assert_eq!(g.phys_slot(s), before[b as usize], "seed {seed}");
            } else if s == b {
                assert_eq!(g.phys_slot(s), before[a as usize], "seed {seed}");
            } else {
                assert_eq!(g.phys_slot(s), before[s as usize], "seed {seed}");
            }
        }
    }
}

/// The translation cache never reports more residents than capacity and
/// lookups after insert always hit (no spurious eviction of the line just
/// inserted).
#[test]
fn tcache_insert_then_hit() {
    for seed in 0..40u64 {
        let mut rng = Prng::new(seed ^ 0x7cac);
        let n = rng.range_usize(1, 300);
        let mut t = TranslationCache::new(256, 8);
        let mut inserted = 0u64;
        for _ in 0..n {
            let r = rng.range_u64(0, 100_000);
            t.insert(GlobalRowId(r));
            inserted += 1;
            assert!(t.contains(GlobalRowId(r)), "seed {seed}");
        }
        assert!(t.stats().fills <= inserted, "seed {seed}");
    }
}

/// A threshold-T filter grants exactly floor(n/T) promotions for n accesses
/// to one row (given enough counter capacity).
#[test]
fn filter_threshold_arithmetic() {
    for t in 1u32..6 {
        for n in 1u32..40 {
            let mut f = PromotionFilter::new(t, 64);
            let mut grants = 0;
            for _ in 0..n {
                let grant = f.note(GlobalRowId(7)) >= t;
                f.resolve(GlobalRowId(7), grant);
                grants += u32::from(grant);
            }
            assert_eq!(grants, n / t, "threshold {t}, accesses {n}");
        }
    }
}

/// Every replacement policy returns victims strictly below the slot count,
/// for any access history.
#[test]
fn replacement_victims_in_range() {
    for (pi, policy) in [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Random,
        ReplacementPolicy::Sequential,
        ReplacementPolicy::GlobalCounter,
    ]
    .into_iter()
    .enumerate()
    {
        for seed in 0..10u64 {
            let mut rng = Prng::new(seed ^ (pi as u64) << 8);
            let fast_slots = rng.range_u32(1, 8);
            let mut r = Replacer::new(policy, 42);
            let n = rng.range_usize(0, 100);
            for i in 0..n {
                let gid = GroupId {
                    bank: 0,
                    group: rng.range_u32(0, 16),
                };
                let slot = (rng.range_u32(0, 4) as u8) % fast_slots as u8;
                r.note_fast_access(gid, slot, fast_slots, i as u64);
                let v = r.choose_victim(gid, fast_slots);
                assert!((v as u32) < fast_slots, "seed {seed}, policy {policy:?}");
            }
        }
    }
}

/// Manager end-to-end: any sequence of accesses with immediate swap commits
/// keeps translation consistent — the physical rows of all logical rows in
/// a touched group remain a permutation.
#[test]
fn manager_accesses_keep_translation_consistent() {
    for seed in 0..15u64 {
        let mut rng = Prng::new(seed ^ 0x3a3a);
        let geometry = DramGeometry::paper_scaled(64);
        let layout = BankLayout::build(
            geometry.rows_per_bank,
            FastRatio::new(1, 8),
            Arrangement::ReducedInterleaving,
            128,
            512,
        );
        let cfg = ManagementConfig {
            tcache_bytes: 1 << 10,
            ..ManagementConfig::paper_default()
        };
        let mut m = DasManager::new(cfg, geometry, layout);
        let bank = BankCoord::new(0, 0, 0);
        let n = rng.range_usize(1, 150);
        for i in 0..n {
            let row = rng.range_u32(0, 512);
            if let Some(swap) = m.on_data_access(bank, row, i as u64) {
                m.commit_swap(&swap, i as u64);
                assert!(m.is_fast(bank, row), "seed {seed}: promotee must be fast");
                assert!(
                    !m.is_fast(bank, swap.victim.unwrap()),
                    "seed {seed}: victim must be slow"
                );
            }
            // Translation is always self-consistent.
            let tr = m.translate(bank, row);
            let (peek_phys, peek_fast) = m.peek(bank, row);
            assert_eq!(tr.phys_row, peek_phys, "seed {seed}");
            assert_eq!(tr.in_fast, peek_fast, "seed {seed}");
        }
        // All physical rows across the bank are still distinct.
        let mut seen = std::collections::HashSet::new();
        for row in 0..512u32 {
            assert!(
                seen.insert(m.peek(bank, row).0),
                "seed {seed}: row {row} aliased"
            );
        }
    }
}

/// The bank layout of the long-haul drives.
fn drive_layout(geometry: &DramGeometry) -> BankLayout {
    BankLayout::build(
        geometry.rows_per_bank,
        FastRatio::new(1, 8),
        Arrangement::ReducedInterleaving,
        128,
        512,
    )
}

fn drive_config() -> ManagementConfig {
    ManagementConfig {
        tcache_bytes: 2 << 10,
        ..ManagementConfig::paper_default()
    }
}

/// Long-haul consistency drive: ~10k mixed read/promote/swap operations
/// against the management layer, checking the exclusive-cache invariant
/// (each logical row in exactly one physical location) and translation-
/// cache ↔ device agreement after every batch.
#[test]
fn ten_thousand_mixed_ops_preserve_exclusive_cache_invariant() {
    let geometry = DramGeometry::paper_scaled(64);
    let layout = drive_layout(&geometry);
    let m = DasManager::new(drive_config(), geometry.clone(), layout);
    mixed_ops_drive(m, &geometry, geometry.rows_per_bank);
}

/// The same op stream against the inclusive placement, whose logical rows
/// are the layout's slow rows: each group's tags name distinct rows of the
/// group, every cached translation names a row with a fast copy, and no
/// two rows are served from one physical row.
#[test]
fn ten_thousand_mixed_ops_preserve_inclusive_tag_invariants() {
    let geometry = DramGeometry::paper_scaled(64);
    let layout = drive_layout(&geometry);
    let rows = layout.slow_rows();
    let m = DasManager::inclusive(drive_config(), geometry.clone(), layout);
    mixed_ops_drive(m, &geometry, rows);
}

/// Runs 10 000 seeded operations over logical rows `0..rows` of every bank,
/// checking [`DasManager::check_invariants`] after each batch.
fn mixed_ops_drive(mut m: DasManager, geometry: &DramGeometry, rows: u32) {
    let mut rng = Prng::new(0xbadc_ab1e);
    let banks: Vec<BankCoord> = geometry.banks().collect();
    let mut pending: Vec<MigrationRequest> = Vec::new();
    let mut ops = 0u64;
    const BATCH: usize = 250;
    const BATCHES: usize = 40; // 40 × 250 = 10 000 ops
    for batch in 0..BATCHES {
        for i in 0..BATCH {
            let now = (batch * BATCH + i) as u64;
            let bank = banks[rng.range_usize(0, banks.len())];
            match rng.range_u32(0, 10) {
                // Mostly reads; some trigger promotions that we either
                // commit immediately or defer.
                0..=7 => {
                    let row = rng.range_u32(0, rows);
                    let _ = m.translate(bank, row);
                    if let Some(req) = m.on_data_access(bank, row, now) {
                        if rng.range_u32(0, 4) == 0 {
                            pending.push(req); // swap in flight
                        } else {
                            m.commit_swap(&req, now);
                        }
                    }
                }
                // Drain one in-flight swap.
                8 => {
                    if let Some(req) = pending.pop() {
                        m.commit_swap(&req, now);
                    }
                }
                // Pure translation probe.
                _ => {
                    let row = rng.range_u32(0, rows);
                    let t = m.translate(bank, row);
                    let (phys, fast) = m.peek(bank, row);
                    assert_eq!((t.phys_row, t.in_fast), (phys, fast));
                }
            }
            ops += 1;
        }
        // The placement contract, checked after every batch.
        assert_eq!(
            m.check_invariants(),
            Ok(()),
            "invariants broke after batch {batch} ({ops} ops)"
        );
        // Physical rows serving the logical rows of each bank stay
        // distinct.
        if batch % 8 == 7 {
            for &bank in banks.iter().take(4) {
                let mut seen = std::collections::HashSet::new();
                for row in 0..rows {
                    assert!(
                        seen.insert(m.peek(bank, row).0),
                        "batch {batch}: bank {bank:?} row {row} lost its unique location"
                    );
                }
            }
        }
    }
    assert_eq!(ops, 10_000);
    assert!(m.stats().promotions > 0, "drive must exercise promotions");
    // Finish by draining whatever is still in flight and re-checking.
    for req in pending.drain(..) {
        m.commit_swap(&req, ops);
    }
    assert_eq!(m.check_invariants(), Ok(()));
}
