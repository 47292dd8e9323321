//! DRAM command vocabulary.
//!
//! The controller drives the device with the classic ACT / RD / WR / PRE
//! commands (§2.3), plus the paper's additions: `RowSwap` (the 4-step
//! migration-row exchange of Fig. 6) and per-rank `Refresh`.

use core::fmt;

use crate::geometry::BankCoord;

/// The flavour of an in-array row migration (selects its duration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MigrationKind {
    /// Exclusive-cache promotion: full two-row exchange through the
    /// migration rows (Fig. 6) — 3 tRC.
    #[default]
    Swap,
    /// Inclusive-cache fill over a clean victim: one row copy through the
    /// migration row (Fig. 3d) — 1.5 tRC.
    Copy,
    /// Inclusive-cache fill over a dirty victim: write the victim back to
    /// its home row, then copy the promotee in — two serial migrations,
    /// 3 tRC.
    CopyWithWriteback,
}

/// A command issued by the memory controller to one channel.
///
/// Rows in commands are **physical** rows — translation from logical rows
/// happens in the management layer before scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramCommand {
    /// Open `phys_row` in `bank` (charge sharing + sensing).
    Activate {
        /// Target bank.
        bank: BankCoord,
        /// Physical row to open.
        phys_row: u32,
    },
    /// Read one burst from column `col` of the open row `phys_row`.
    Read {
        /// Target bank.
        bank: BankCoord,
        /// Physical row the access targets (identifies the subarray whose
        /// local row buffer serves it under SALP).
        phys_row: u32,
        /// Column (cache line) index.
        col: u32,
    },
    /// Write one burst to column `col` of the open row `phys_row`.
    Write {
        /// Target bank.
        bank: BankCoord,
        /// Physical row the access targets.
        phys_row: u32,
        /// Column (cache line) index.
        col: u32,
    },
    /// Close the row buffer serving `phys_row`'s subarray (the bank's only
    /// buffer in conventional mode) and precharge its bitlines.
    Precharge {
        /// Target bank.
        bank: BankCoord,
        /// A row identifying the subarray to precharge.
        phys_row: u32,
    },
    /// Move row contents through the migration cells (Fig. 3d / Fig. 6).
    /// Requires the bank to be precharged; occupies the bank for the
    /// migration latency but never touches the data bus.
    RowSwap {
        /// Target bank.
        bank: BankCoord,
        /// One row of the pair (conventionally the promotee's current row).
        phys_a: u32,
        /// The other row (conventionally the victim's current row).
        phys_b: u32,
        /// Exchange or one-way copy (selects the duration).
        kind: MigrationKind,
    },
    /// Refresh one rank. All banks of the rank must be precharged.
    Refresh {
        /// Channel-local rank index.
        rank: u8,
    },
}

impl DramCommand {
    /// The bank a bank-scoped command addresses, `None` for rank-scoped
    /// commands (refresh).
    pub fn bank(&self) -> Option<BankCoord> {
        match *self {
            DramCommand::Activate { bank, .. }
            | DramCommand::Read { bank, .. }
            | DramCommand::Write { bank, .. }
            | DramCommand::Precharge { bank, .. }
            | DramCommand::RowSwap { bank, .. } => Some(bank),
            DramCommand::Refresh { .. } => None,
        }
    }

    /// Whether this command transfers data on the channel bus.
    pub fn uses_data_bus(&self) -> bool {
        matches!(self, DramCommand::Read { .. } | DramCommand::Write { .. })
    }
}

impl fmt::Display for DramCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DramCommand::Activate { bank, phys_row } => write!(f, "ACT {bank} row{phys_row}"),
            DramCommand::Read {
                bank,
                phys_row,
                col,
            } => {
                write!(f, "RD {bank} row{phys_row} col{col}")
            }
            DramCommand::Write {
                bank,
                phys_row,
                col,
            } => {
                write!(f, "WR {bank} row{phys_row} col{col}")
            }
            DramCommand::Precharge { bank, phys_row } => write!(f, "PRE {bank} row{phys_row}"),
            DramCommand::RowSwap {
                bank,
                phys_a,
                phys_b,
                kind,
            } => match kind {
                MigrationKind::Swap => write!(f, "SWAP {bank} row{phys_a}<->row{phys_b}"),
                MigrationKind::Copy => write!(f, "COPY {bank} row{phys_a}->row{phys_b}"),
                MigrationKind::CopyWithWriteback => {
                    write!(f, "COPY+WB {bank} row{phys_a}->row{phys_b}")
                }
            },
            DramCommand::Refresh { rank } => write!(f, "REF rank{rank}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> BankCoord {
        BankCoord::new(0, 1, 3)
    }

    #[test]
    fn bank_extraction() {
        assert_eq!(
            DramCommand::Activate {
                bank: bank(),
                phys_row: 7
            }
            .bank(),
            Some(bank())
        );
        assert_eq!(DramCommand::Refresh { rank: 0 }.bank(), None);
        assert_eq!(
            DramCommand::RowSwap {
                bank: bank(),
                phys_a: 1,
                phys_b: 2,
                kind: MigrationKind::Swap
            }
            .bank(),
            Some(bank())
        );
    }

    #[test]
    fn data_bus_usage() {
        assert!(DramCommand::Read {
            bank: bank(),
            phys_row: 0,
            col: 0
        }
        .uses_data_bus());
        assert!(DramCommand::Write {
            bank: bank(),
            phys_row: 0,
            col: 0
        }
        .uses_data_bus());
        assert!(!DramCommand::Activate {
            bank: bank(),
            phys_row: 0
        }
        .uses_data_bus());
        assert!(!DramCommand::RowSwap {
            bank: bank(),
            phys_a: 0,
            phys_b: 1,
            kind: MigrationKind::Swap
        }
        .uses_data_bus());
        assert!(!DramCommand::Precharge {
            bank: bank(),
            phys_row: 0
        }
        .uses_data_bus());
    }

    #[test]
    fn display_is_informative() {
        let s = format!(
            "{}",
            DramCommand::RowSwap {
                bank: bank(),
                phys_a: 5,
                phys_b: 9,
                kind: MigrationKind::Copy
            }
        );
        assert!(s.contains("COPY") && s.contains("row5") && s.contains("row9"));
    }
}
