//! # das-cpu — trace-driven out-of-order core model
//!
//! CPU substrate for the DAS-DRAM reproduction. Substitutes for the paper's
//! Marss86 full-system cores with a reorder-window occupancy model (see
//! `DESIGN.md`): 3 GHz, 4-wide, 192-entry ROB, full memory-level parallelism
//! across the window, in-order retirement blocked by incomplete loads, and
//! explicit serialisation for dependent (pointer-chasing) references.
//!
//! # Examples
//!
//! ```
//! use das_cpu::{Core, CoreConfig, TraceItem};
//!
//! let mut core = Core::new(CoreConfig::paper_default(), 1000);
//! let mut requests = Vec::new();
//! let mut trace = vec![TraceItem::load(99, 0x1000)].into_iter();
//! core.dispatch_from(&mut trace, &mut requests);
//! let req = requests.pop().expect("load issued");
//! core.complete(req.id, req.issue_at + 800, &mut requests);
//! assert!(core.is_finished());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod core;
pub mod trace;

pub use crate::core::{Core, CoreConfig, CoreStats, MemRequest};
pub use trace::{TraceItem, TraceSource};
