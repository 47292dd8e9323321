//! # das-coherence
//!
//! MESI / Dragon snooping-bus coherent multi-core front end for the
//! DAS-DRAM simulator.
//!
//! The crate is deliberately std-only and self-contained: it models N
//! per-core private L1 caches ([`CoherentCluster`]) kept coherent by a
//! protocol ([`ProtocolKind`]: MESI or Dragon) over
//! a single snooping bus with FCFS arbitration ([`SnoopBus`]). The
//! simulator (`das-sim`) mounts a cluster in front of its shared
//! LLC → memory-controller → DRAM path; requests that no private cache can
//! satisfy fall through with `fetch_below` set.
//!
//! Design notes live in `DESIGN.md` ("Coherent front end"); the protocol
//! transition tables are tested exhaustively below — every
//! (state, processor-op, bus-event) cell, including the illegal cells
//! that must panic.

pub mod bus;
pub mod cluster;
pub mod protocol;

pub use bus::{SnoopBus, C2C_TRANSFER_CYCLES, SIGNAL_CYCLES, UPD_WORD_CYCLES};
pub use cluster::{AccessOutcome, ClusterConfig, CoherenceStats, CoherentCluster};
pub use protocol::{BusTx, CohState, MissOutcome, ProcOutcome, ProtocolKind, SnoopOutcome};

#[cfg(test)]
mod transition_tests {
    //! Exhaustive table-driven coverage of both protocol transition
    //! tables: every (state, processor-op, bus-event) cell is pinned to
    //! either an expected outcome or an expected panic.

    use super::protocol::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use BusTx::*;
    use CohState::*;

    fn proc(next: CohState, bus: Option<BusTx>) -> ProcOutcome {
        ProcOutcome { next, bus }
    }

    fn snoop(next: CohState, supply: bool, writeback: bool) -> SnoopOutcome {
        SnoopOutcome {
            next,
            supply,
            writeback,
        }
    }

    /// Run `f` expecting a panic, without the default hook spamming the
    /// test log for cells that are *supposed* to blow up. The hook is
    /// process-global, so swaps are serialised across test threads.
    fn panics<T>(f: impl FnOnce() -> T) -> bool {
        static HOOK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let guard = HOOK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = catch_unwind(AssertUnwindSafe(f)).is_err();
        std::panic::set_hook(prev);
        drop(guard);
        r
    }

    // ---- MESI -----------------------------------------------------------

    #[test]
    fn mesi_miss_table_is_exhaustive() {
        let p = ProtocolKind::Mesi;
        let cases = [
            // (is_write, others) -> (next, tx)
            (false, false, E, BusRd),
            (false, true, S, BusRd),
            (true, false, M, BusRdX),
            (true, true, M, BusRdX),
        ];
        for (w, o, next, tx) in cases {
            let got = p.on_miss(w, o);
            assert_eq!(
                got,
                MissOutcome {
                    next,
                    tx,
                    extra_tx: None
                },
                "on_miss(write={w}, others={o})"
            );
        }
    }

    #[test]
    fn mesi_hit_table_is_exhaustive() {
        let p = ProtocolKind::Mesi;
        // Every legal (state, is_write) cell; `others` is irrelevant to
        // MESI hits, so both values must agree.
        let cases = [
            (M, false, proc(M, None)),
            (M, true, proc(M, None)),
            (E, false, proc(E, None)),
            (E, true, proc(M, None)), // silent upgrade
            (S, false, proc(S, None)),
            (S, true, proc(M, Some(BusUpgr))),
        ];
        for (state, w, want) in cases {
            for others in [false, true] {
                assert_eq!(
                    p.on_hit(state, w, others),
                    want,
                    "on_hit({state:?}, write={w})"
                );
            }
        }
        // Illegal: hits on Invalid or on Dragon-only states.
        for (state, w) in [(I, false), (I, true), (Sc, false), (Sm, true)] {
            assert!(
                panics(|| p.on_hit(state, w, false)),
                "on_hit({state:?}, write={w}) must panic"
            );
        }
    }

    #[test]
    fn mesi_snoop_table_is_exhaustive() {
        let p = ProtocolKind::Mesi;
        let legal = [
            (M, BusRd, snoop(S, true, true)),
            (M, BusRdX, snoop(I, true, true)),
            (E, BusRd, snoop(S, true, false)),
            (E, BusRdX, snoop(I, true, false)),
            (S, BusRd, snoop(S, true, false)),
            (S, BusRdX, snoop(I, true, false)),
            (S, BusUpgr, snoop(I, false, false)),
        ];
        for (state, tx, want) in legal {
            assert_eq!(p.on_snoop(state, tx), want, "on_snoop({state:?}, {tx:?})");
        }
        // Everything else in the MESI (state × tx) grid is illegal.
        let legal_keys: Vec<(CohState, BusTx)> = legal.iter().map(|&(s, t, _)| (s, t)).collect();
        for state in [M, E, S, I, Sc, Sm] {
            for tx in [BusRd, BusRdX, BusUpgr, BusUpd] {
                if legal_keys.contains(&(state, tx)) {
                    continue;
                }
                assert!(
                    panics(|| p.on_snoop(state, tx)),
                    "on_snoop({state:?}, {tx:?}) must panic"
                );
            }
        }
    }

    // ---- Dragon ---------------------------------------------------------

    #[test]
    fn dragon_miss_table_is_exhaustive() {
        let p = ProtocolKind::Dragon;
        let cases = [
            // (is_write, others) -> (next, tx, extra)
            (false, false, E, BusRd, None),
            (false, true, Sc, BusRd, None),
            (true, false, M, BusRd, Some(BusUpd)),
            (true, true, Sm, BusRd, Some(BusUpd)),
        ];
        for (w, o, next, tx, extra_tx) in cases {
            assert_eq!(
                p.on_miss(w, o),
                MissOutcome { next, tx, extra_tx },
                "on_miss(write={w}, others={o})"
            );
        }
    }

    #[test]
    fn dragon_hit_table_is_exhaustive() {
        let p = ProtocolKind::Dragon;
        // (state, is_write, others) — `others` only matters for shared
        // writes, where it decides Sm vs M.
        let cases = [
            (E, false, false, proc(E, None)),
            (E, false, true, proc(E, None)),
            (E, true, false, proc(M, None)),
            (E, true, true, proc(M, None)),
            (M, false, false, proc(M, None)),
            (M, false, true, proc(M, None)),
            (M, true, false, proc(M, None)),
            (M, true, true, proc(M, None)),
            (Sc, false, false, proc(Sc, None)),
            (Sc, false, true, proc(Sc, None)),
            (Sc, true, false, proc(M, Some(BusUpd))), // sharers all evicted
            (Sc, true, true, proc(Sm, Some(BusUpd))),
            (Sm, false, false, proc(Sm, None)),
            (Sm, false, true, proc(Sm, None)),
            (Sm, true, false, proc(M, Some(BusUpd))),
            (Sm, true, true, proc(Sm, Some(BusUpd))),
        ];
        for (state, w, o, want) in cases {
            assert_eq!(
                p.on_hit(state, w, o),
                want,
                "on_hit({state:?}, write={w}, others={o})"
            );
        }
        // MESI-only states are illegal in a Dragon cache.
        for state in [I, S] {
            for w in [false, true] {
                assert!(
                    panics(|| p.on_hit(state, w, false)),
                    "on_hit({state:?}, write={w}) must panic"
                );
            }
        }
    }

    #[test]
    fn dragon_snoop_table_is_exhaustive() {
        let p = ProtocolKind::Dragon;
        let legal = [
            (E, BusRd, snoop(Sc, true, false)),
            (Sc, BusRd, snoop(Sc, true, false)),
            (Sm, BusRd, snoop(Sm, true, false)), // owner keeps ownership
            (M, BusRd, snoop(Sm, true, false)),
            (Sc, BusUpd, snoop(Sc, false, false)),
            (Sm, BusUpd, snoop(Sc, false, false)), // writer takes ownership
        ];
        for (state, tx, want) in legal {
            assert_eq!(p.on_snoop(state, tx), want, "on_snoop({state:?}, {tx:?})");
        }
        let legal_keys: Vec<(CohState, BusTx)> = legal.iter().map(|&(s, t, _)| (s, t)).collect();
        for state in [M, E, S, I, Sc, Sm] {
            for tx in [BusRd, BusRdX, BusUpgr, BusUpd] {
                if legal_keys.contains(&(state, tx)) {
                    continue;
                }
                assert!(
                    panics(|| p.on_snoop(state, tx)),
                    "on_snoop({state:?}, {tx:?}) must panic"
                );
            }
        }
    }

    // ---- shared plumbing ------------------------------------------------

    #[test]
    fn protocol_kinds_round_trip_through_keys() {
        for kind in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::parse(kind.key()), Some(kind));
        }
        assert_eq!(ProtocolKind::parse("moesi"), None);
    }

    #[test]
    fn dirty_states_are_exactly_m_and_sm() {
        for state in [M, E, S, I, Sc, Sm] {
            assert_eq!(state.is_dirty(), matches!(state, M | Sm), "{state:?}");
        }
    }
}
