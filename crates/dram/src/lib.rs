//! # das-dram — cycle-level DRAM device model
//!
//! The DRAM substrate for the DAS-DRAM reproduction (Lu, Lin & Yang,
//! *Improving DRAM Latency with Dynamic Asymmetric Subarray*, MICRO 2015).
//!
//! This crate models a DDR3-class DRAM device at command granularity:
//!
//! * [`tick`] — the simulation time base (1/24 ns ticks, making every Table 1
//!   parameter exact);
//! * [`geometry`] — channels/ranks/banks/subarrays, fast/slow bank layouts
//!   (Fig. 5 arrangements) and the address mapping;
//! * [`timing`] — DDR3-1600 and short-bitline timing parameter sets;
//! * [`command`] — ACT/RD/WR/PRE plus the paper's `RowSwap` and `Refresh`;
//! * [`bank`], [`rank`], [`channel`] — the state machines enforcing every
//!   inter-command constraint (tRCD, tRAS, tRP, tCCD, tRTP, tWTR, tWR, tRRD,
//!   tFAW, bus occupancy, turnarounds, refresh).
//!
//! The device is *passive*: a memory controller (see `das-memctrl`) queries
//! [`channel::ChannelDevice::earliest_issue`] and commits commands with
//! [`channel::ChannelDevice::issue`].
//!
//! # Examples
//!
//! ```
//! use das_dram::channel::ChannelDevice;
//! use das_dram::command::DramCommand;
//! use das_dram::geometry::{Arrangement, BankCoord, BankLayout, FastRatio};
//! use das_dram::tick::Tick;
//! use das_dram::timing::TimingSet;
//!
//! let layout = BankLayout::build(4096, FastRatio::PAPER_DEFAULT,
//!     Arrangement::ReducedInterleaving, 128, 512);
//! let mut ch = ChannelDevice::new(0, 2, 8, layout, TimingSet::asymmetric(), false);
//! let bank = BankCoord::new(0, 0, 0);
//! let row = ch.layout().fast_to_phys(0);
//! let act = DramCommand::Activate { bank, phys_row: row };
//! let t = ch.earliest_issue(&act, Tick::ZERO).expect("ACT legal on idle bank");
//! ch.issue(&act, t);
//! let rd = DramCommand::Read { bank, phys_row: row, col: 0 };
//! let t = ch.earliest_issue(&rd, t).expect("row open");
//! let data_done = ch.issue(&rd, t).data_end.expect("reads return data");
//! assert_eq!(data_done.as_ns(), 8.75 + 13.75 + 5.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod area;
pub mod bank;
pub mod channel;
pub mod command;
pub mod geometry;
pub mod rank;
pub mod tick;
pub mod timing;

pub use bank::{Bank, BankStats, RowBufferState};
pub use channel::{ChannelDevice, IssueOutcome};
pub use command::{DramCommand, MigrationKind};
pub use geometry::{
    Arrangement, BankCoord, BankLayout, DramGeometry, FastRatio, GlobalRowId, MemCoord, Subarray,
    SubarrayKind,
};
pub use tick::{Tick, TICKS_PER_CPU_CYCLE, TICKS_PER_NS};
pub use timing::{TimingParams, TimingSet};
