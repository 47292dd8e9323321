//! Snooping-bus cache-coherence protocol state machines.
//!
//! Two protocols, the two variants of [`ProtocolKind`]: 4-state
//! invalidation-based **MESI** and update-based **Dragon**. Each protocol
//! is a pure transition table — the [`crate::cluster::CoherentCluster`]
//! owns the caches and the bus and asks the protocol three questions:
//!
//! * [`ProtocolKind::on_miss`] — a processor access missed its private
//!   L1: which state does the filled line enter, and which bus transaction
//!   announces the fill?
//! * [`ProtocolKind::on_hit`] — a processor access hit: does the state
//!   change, and does a bus transaction have to be broadcast first?
//! * [`ProtocolKind::on_snoop`] — another core's transaction appeared
//!   on the bus while this core holds the line: what is the next state, and
//!   must this core supply the data or flush it to the level below?
//!
//! Any (state, event) cell that a correct protocol can never reach panics:
//! silently "handling" an impossible transition would hide cluster bugs.

/// Coherence state of a line in a private L1.
///
/// `M`/`E`/`S`/`I` are the MESI states; `Sc`/`Sm` are Dragon's shared-clean
/// and shared-modified states (Dragon reuses `E` and `M` and has no `I` —
/// absence from the cache plays that role).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CohState {
    /// Modified: sole copy, dirty.
    M,
    /// Exclusive: sole copy, clean.
    E,
    /// Shared (MESI): one of several copies, clean.
    S,
    /// Invalid (MESI): present in the tag array but unusable.
    I,
    /// Shared-clean (Dragon): one of several copies; memory may be stale but
    /// some *other* cache (the `Sm` owner) is responsible for it.
    Sc,
    /// Shared-modified (Dragon): one of several copies, and this cache owns
    /// the dirty data (supplies on reads, writes back on eviction).
    Sm,
}

impl CohState {
    /// States whose data must be written back when the line is evicted.
    pub fn is_dirty(self) -> bool {
        matches!(self, CohState::M | CohState::Sm)
    }
}

/// Transactions that can be broadcast on the snooping bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusTx {
    /// Read request (miss): any holder must supply; `M`/`E` holders demote.
    BusRd,
    /// Read-for-ownership (write miss, MESI): holders supply then invalidate.
    BusRdX,
    /// Upgrade (write hit on `S`, MESI): holders invalidate, no data moves.
    BusUpgr,
    /// Word update (write on shared line, Dragon): holders absorb the word.
    BusUpd,
}

impl BusTx {
    pub fn label(self) -> &'static str {
        match self {
            BusTx::BusRd => "bus_rd",
            BusTx::BusRdX => "bus_rdx",
            BusTx::BusUpgr => "bus_upgr",
            BusTx::BusUpd => "bus_upd",
        }
    }
}

/// Result of a processor-side miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissOutcome {
    /// State the freshly filled line enters.
    pub next: CohState,
    /// Transaction that fetches the line.
    pub tx: BusTx,
    /// Second transaction issued after the fill (Dragon write miss:
    /// `BusRd` fetches, then `BusUpd` publishes the written word).
    pub extra_tx: Option<BusTx>,
}

/// Result of a processor-side hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcOutcome {
    pub next: CohState,
    /// Transaction that must win bus arbitration before the access retires
    /// (`BusUpgr` for MESI S-writes, `BusUpd` for Dragon shared writes).
    pub bus: Option<BusTx>,
}

/// Result of snooping another core's transaction while holding the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnoopOutcome {
    pub next: CohState,
    /// This core puts the line on the bus (cache-to-cache transfer).
    pub supply: bool,
    /// This core must also flush its dirty copy to the level below,
    /// because no cache will own the dirty data afterwards.
    pub writeback: bool,
}

/// Which protocol a cluster runs. Parsed from experiment manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    Mesi,
    Dragon,
}

impl ProtocolKind {
    pub const ALL: [ProtocolKind; 2] = [ProtocolKind::Mesi, ProtocolKind::Dragon];

    /// Stable manifest key.
    pub fn key(self) -> &'static str {
        match self {
            ProtocolKind::Mesi => "mesi",
            ProtocolKind::Dragon => "dragon",
        }
    }

    /// Human-facing label.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::Mesi => "MESI",
            ProtocolKind::Dragon => "Dragon",
        }
    }

    pub fn parse(s: &str) -> Option<ProtocolKind> {
        ProtocolKind::ALL.into_iter().find(|k| k.key() == s)
    }

    /// A processor access missed its private L1. `others` reports whether
    /// any *other* private cache holds a valid copy of the line at the
    /// moment of the access (Dragon's shared wire; MESI uses it to pick `E`
    /// vs `S` on read misses).
    pub fn on_miss(self, is_write: bool, others: bool) -> MissOutcome {
        match self {
            ProtocolKind::Mesi => mesi::on_miss(is_write, others),
            ProtocolKind::Dragon => dragon::on_miss(is_write, others),
        }
    }

    /// A processor access hit a line in `state` (`others` as for
    /// [`ProtocolKind::on_miss`]).
    pub fn on_hit(self, state: CohState, is_write: bool, others: bool) -> ProcOutcome {
        match self {
            ProtocolKind::Mesi => mesi::on_hit(state, is_write),
            ProtocolKind::Dragon => dragon::on_hit(state, is_write, others),
        }
    }

    /// Another core's `tx` appeared on the bus while this core holds the
    /// line in `state`.
    pub fn on_snoop(self, state: CohState, tx: BusTx) -> SnoopOutcome {
        match self {
            ProtocolKind::Mesi => mesi::on_snoop(state, tx),
            ProtocolKind::Dragon => dragon::on_snoop(state, tx),
        }
    }
}

/// 4-state invalidation-based MESI.
mod mesi {
    use super::*;

    pub(super) fn on_miss(is_write: bool, others: bool) -> MissOutcome {
        if is_write {
            // Read-for-ownership: everyone else invalidates.
            MissOutcome {
                next: CohState::M,
                tx: BusTx::BusRdX,
                extra_tx: None,
            }
        } else {
            MissOutcome {
                next: if others { CohState::S } else { CohState::E },
                tx: BusTx::BusRd,
                extra_tx: None,
            }
        }
    }

    pub(super) fn on_hit(state: CohState, is_write: bool) -> ProcOutcome {
        match (state, is_write) {
            (CohState::M, _) => ProcOutcome {
                next: CohState::M,
                bus: None,
            },
            (CohState::E, false) => ProcOutcome {
                next: CohState::E,
                bus: None,
            },
            // Silent E→M upgrade: the line is exclusive, no broadcast needed.
            (CohState::E, true) => ProcOutcome {
                next: CohState::M,
                bus: None,
            },
            (CohState::S, false) => ProcOutcome {
                next: CohState::S,
                bus: None,
            },
            (CohState::S, true) => ProcOutcome {
                next: CohState::M,
                bus: Some(BusTx::BusUpgr),
            },
            (CohState::I, _) => panic!("MESI: processor hit on an Invalid line"),
            (s @ (CohState::Sc | CohState::Sm), _) => {
                panic!("MESI: Dragon state {s:?} in a MESI cache")
            }
        }
    }

    pub(super) fn on_snoop(state: CohState, tx: BusTx) -> SnoopOutcome {
        match (state, tx) {
            // Dirty holder answers a read: supply, demote to S, and flush —
            // with no Owned state, memory must pick the dirty data up.
            (CohState::M, BusTx::BusRd) => SnoopOutcome {
                next: CohState::S,
                supply: true,
                writeback: true,
            },
            (CohState::M, BusTx::BusRdX) => SnoopOutcome {
                next: CohState::I,
                supply: true,
                writeback: true,
            },
            (CohState::E, BusTx::BusRd) => SnoopOutcome {
                next: CohState::S,
                supply: true,
                writeback: false,
            },
            (CohState::E, BusTx::BusRdX) => SnoopOutcome {
                next: CohState::I,
                supply: true,
                writeback: false,
            },
            (CohState::S, BusTx::BusRd) => SnoopOutcome {
                next: CohState::S,
                supply: true,
                writeback: false,
            },
            (CohState::S, BusTx::BusRdX) => SnoopOutcome {
                next: CohState::I,
                supply: true,
                writeback: false,
            },
            // Upgrade: the requester already has the data, nobody supplies.
            (CohState::S, BusTx::BusUpgr) => SnoopOutcome {
                next: CohState::I,
                supply: false,
                writeback: false,
            },
            // M/E seeing BusUpgr means two caches believed they were the
            // sole/shared owner simultaneously — a cluster bug.
            (s @ (CohState::M | CohState::E), BusTx::BusUpgr) => {
                panic!("MESI: {s:?} holder snooped BusUpgr (exclusivity violated)")
            }
            (s, BusTx::BusUpd) => panic!("MESI: snooped Dragon BusUpd in state {s:?}"),
            (CohState::I, tx) => panic!("MESI: Invalid line snooped {tx:?} (stale tag)"),
            (s @ (CohState::Sc | CohState::Sm), _) => {
                panic!("MESI: Dragon state {s:?} in a MESI cache")
            }
        }
    }
}

/// Update-based Dragon (E, Sc, Sm, M; no Invalid state — absence is
/// invalidity, and writes broadcast the written word instead of
/// invalidating sharers).
mod dragon {
    use super::*;

    pub(super) fn on_miss(is_write: bool, others: bool) -> MissOutcome {
        match (is_write, others) {
            (false, false) => MissOutcome {
                next: CohState::E,
                tx: BusTx::BusRd,
                extra_tx: None,
            },
            (false, true) => MissOutcome {
                next: CohState::Sc,
                tx: BusTx::BusRd,
                extra_tx: None,
            },
            // Write miss: fetch the line, then publish the written word.
            // With no other holders the update dies on the bus and the line
            // is dirty-exclusive; with holders this cache becomes the owner.
            (true, false) => MissOutcome {
                next: CohState::M,
                tx: BusTx::BusRd,
                extra_tx: Some(BusTx::BusUpd),
            },
            (true, true) => MissOutcome {
                next: CohState::Sm,
                tx: BusTx::BusRd,
                extra_tx: Some(BusTx::BusUpd),
            },
        }
    }

    pub(super) fn on_hit(state: CohState, is_write: bool, others: bool) -> ProcOutcome {
        match (state, is_write) {
            (CohState::E, false)
            | (CohState::M, false)
            | (CohState::Sc, false)
            | (CohState::Sm, false) => ProcOutcome {
                next: state,
                bus: None,
            },
            (CohState::E, true) => ProcOutcome {
                next: CohState::M,
                bus: None,
            },
            (CohState::M, true) => ProcOutcome {
                next: CohState::M,
                bus: None,
            },
            // Shared write: broadcast the word. If every other copy has
            // since been evicted the update finds no listeners and the line
            // becomes dirty-exclusive.
            (CohState::Sc | CohState::Sm, true) => ProcOutcome {
                next: if others { CohState::Sm } else { CohState::M },
                bus: Some(BusTx::BusUpd),
            },
            (CohState::I, _) => panic!("Dragon: MESI state I in a Dragon cache"),
            (CohState::S, _) => panic!("Dragon: MESI state S in a Dragon cache"),
        }
    }

    pub(super) fn on_snoop(state: CohState, tx: BusTx) -> SnoopOutcome {
        match (state, tx) {
            (CohState::E, BusTx::BusRd) => SnoopOutcome {
                next: CohState::Sc,
                supply: true,
                writeback: false,
            },
            (CohState::Sc, BusTx::BusRd) => SnoopOutcome {
                next: CohState::Sc,
                supply: true,
                writeback: false,
            },
            // The owner supplies but keeps ownership: no writeback, memory
            // stays stale until the Sm line is evicted.
            (CohState::Sm, BusTx::BusRd) => SnoopOutcome {
                next: CohState::Sm,
                supply: true,
                writeback: false,
            },
            (CohState::M, BusTx::BusRd) => SnoopOutcome {
                next: CohState::Sm,
                supply: true,
                writeback: false,
            },
            // Absorb an update: the writer becomes/remains the owner, so a
            // previous Sm owner demotes to shared-clean.
            (CohState::Sc, BusTx::BusUpd) => SnoopOutcome {
                next: CohState::Sc,
                supply: false,
                writeback: false,
            },
            (CohState::Sm, BusTx::BusUpd) => SnoopOutcome {
                next: CohState::Sc,
                supply: false,
                writeback: false,
            },
            // E/M snooping BusUpd would mean another cache wrote a line this
            // cache believes it holds exclusively.
            (s @ (CohState::E | CohState::M), BusTx::BusUpd) => {
                panic!("Dragon: {s:?} holder snooped BusUpd (exclusivity violated)")
            }
            (s, tx @ (BusTx::BusRdX | BusTx::BusUpgr)) => {
                panic!("Dragon: snooped MESI transaction {tx:?} in state {s:?}")
            }
            (s @ (CohState::I | CohState::S), _) => {
                panic!("Dragon: MESI state {s:?} in a Dragon cache")
            }
        }
    }
}
