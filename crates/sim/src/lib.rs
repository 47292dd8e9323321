//! # das-sim — full-system simulator and experiment runners
//!
//! Ties every substrate of the DAS-DRAM reproduction together: trace-driven
//! out-of-order cores (`das-cpu`), the Table 1 cache hierarchy
//! (`das-cache`), the §5 management mechanism (`das-core`), per-channel
//! FR-FCFS memory controllers (`das-memctrl`) and the command-level DRAM
//! device (`das-dram`), driven by a global event queue.
//!
//! * [`config`] — [`config::SystemConfig`] (Table 1) and the design
//!   table ([`config::Design`]);
//! * [`system`] — the event-driven [`system::System`];
//! * [`experiments`] — profiling pre-pass, run entry points and the
//!   improvement metric;
//! * [`stats`] — everything the paper's figures report;
//! * [`report`] — machine-readable JSON run reports (metrics + telemetry).
//!
//! Telemetry (latency histograms, the epoch time-series and the Chrome
//! trace export) lives in `das-telemetry`; enable it per run with
//! [`config::SystemConfig::with_telemetry`]; [`system::System::run`] and
//! [`experiments::run_one_instrumented`] return it next to the metrics.
//!
//! # Examples
//!
//! ```no_run
//! use das_sim::config::{Design, SystemConfig};
//! use das_sim::experiments::{improvement, run_one};
//! use das_workloads::spec;
//!
//! let cfg = SystemConfig::test_small();
//! let wl = vec![spec::by_name("mcf")];
//! let base = run_one(&cfg, Design::Standard, &wl).expect("baseline run");
//! let das = run_one(&cfg, Design::DasDram, &wl).expect("DAS run");
//! println!("DAS-DRAM improvement: {:+.2}%", improvement(&das, &base) * 100.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
mod dense;
mod events;
pub mod experiments;
pub mod report;
pub mod stats;
pub mod system;

pub use config::{Design, SystemConfig};
pub use experiments::{
    improvement, profile_row_counts, run_one, run_one_instrumented, run_recorded, RowProfile,
};
pub use report::{metrics_to_value, run_report, run_report_json};
pub use stats::{AccessMix, CoreMetrics, EnergyBreakdown, EnergyModel, RunMetrics};
pub use system::{AddressMap, SimError, System, TraceSource};
