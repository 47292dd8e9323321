//! # das-harness — parallel, resumable experiment orchestration
//!
//! Every figure, table and ablation of the paper is described by a
//! declarative [`manifest::Manifest`] — design, workload, seed,
//! instruction budget and parameter overrides per run — built by the
//! [`catalog`] and executed by the deterministic ordered worker [`pool`]:
//! results are consumed in job order, so an N-thread run is bit-identical
//! to a serial one. Completed runs land in an fsync'd JSON-lines
//! [`journal`] that a rerun resumes (a crash loses at most the run in
//! flight), the SAS/CHARM profiling pre-pass is memoized across jobs
//! ([`profile`]), and the text outputs are re-[`render`]ed from
//! journalled reports alone — live, resumed and reloaded runs print the
//! same bytes.
//!
//! Entry point: [`cli::harness_main`], the `harness` experiment CLI
//! (`harness --exp <id>` reproduces one figure, table or ablation).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod cli;
pub mod journal;
pub mod manifest;
pub mod pool;
pub mod profile;
pub mod render;
pub mod report;
pub mod runner;
