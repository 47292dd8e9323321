//! # das-trace — content-addressed binary trace store with streaming replay
//!
//! The paper's evaluation is trace-driven; at harness scale (hundreds of
//! jobs per grid) every run re-synthesizing its instruction trace
//! in-process is the dataloader problem of a training stack. This crate
//! provides the storage layer:
//!
//! * [`format`](mod@format) — the compact `.dtr` binary trace format: magic +
//!   versioned header, varint/delta-encoded [`das_cpu::TraceItem`]
//!   records, per-block CRC32, and a counted footer, with streaming
//!   [`TraceWriter`]/[`TraceReader`];
//! * [`prefetch`] — a double-buffered [`PrefetchReader`] that decodes the
//!   next block on a background thread while the simulator consumes the
//!   current one;
//! * [`store`] — a content-addressed on-disk [`TraceStore`] keyed by a
//!   stable [`Fingerprint`] of the trace's inputs, materializing each
//!   distinct trace once and publishing atomically (tmp + rename) so
//!   concurrent workers never observe torn files;
//! * [`fingerprint`] — the 128-bit FNV-1a fingerprint builder.
//!
//! Determinism is load-bearing: a trace read back from the store is
//! item-for-item identical to the generator stream that produced it, so
//! store-served simulations are bit-identical to generator-backed ones
//! (locked by round-trip and `RunMetrics` equality tests downstream).
//!
//! # Examples
//!
//! ```
//! use das_cpu::TraceItem;
//! use das_trace::{read_all, TraceReader, TraceWriter};
//!
//! let items = vec![TraceItem::load(3, 0x1000), TraceItem::store(0, 0x1040)];
//! let mut w = TraceWriter::new(Vec::new()).unwrap();
//! for &i in &items {
//!     w.push(i).unwrap();
//! }
//! let (bytes, count) = w.finish().unwrap();
//! assert_eq!(count, 2);
//! assert_eq!(read_all(bytes.as_slice()).unwrap(), items);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod crc;
pub mod fingerprint;
pub mod format;
pub mod prefetch;
pub mod store;

pub use fingerprint::Fingerprint;
pub use format::{
    read_all, TraceFormatError, TraceReader, TraceWriter, DEFAULT_BLOCK_RECORDS, FORMAT_VERSION,
};
pub use prefetch::{PrefetchReader, StreamStatus};
pub use store::{StoreStats, TraceStore};
