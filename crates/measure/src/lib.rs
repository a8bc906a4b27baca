//! Measurement records, stores, sketches and statistics for the MopEye
//! reproduction.
//!
//! Everything the crowdsourcing analysis in §4.2 of the paper does reduces to
//! operations over a large collection of RTT measurements: filter by network
//! type, ISP, app or domain; compute medians and CDFs; bucket contribution
//! counts. This crate provides those pieces in two flavours — a batch store
//! that retains every record, and a streaming aggregate that folds records
//! into constant-memory sketches as they arrive:
//!
//! * [`record`] — [`record::RttRecord`], one measurement with its full
//!   context (device, app, domain, ISP, network type, country),
//! * [`store`] — [`store::MeasurementStore`], an in-memory collection with
//!   filtering, grouping and JSON export (memory grows with samples),
//! * [`sketch`] — [`sketch::RttSketch`], a deterministic mergeable
//!   log-bucket quantile sketch (constant memory, ≤ 1 % quantile error,
//!   bit-identical under any merge order),
//! * [`aggregate`] — [`aggregate::AggregateStore`], sketches keyed by
//!   (app, measurement kind, network, ISP) plus a per-device plane — the
//!   shard-sink aggregation the fleet pipeline reports from,
//! * [`window`] — [`window::WindowedAggregateStore`], ring-buffered
//!   per-epoch aggregate windows with a merged tail — the time axis for
//!   longitudinal runs (bounded memory, merge-order invariant),
//! * [`stats`] — medians, percentiles, CDFs and histogram buckets.
//!
//! # Examples
//!
//! The streaming path: fold records into aggregates at two independent
//! sinks, merge, and read a per-ISP median without ever holding the sample
//! vectors:
//!
//! ```
//! use mop_measure::{AggregateStore, NetKind, RttRecord};
//!
//! let (mut sink_a, mut sink_b) = (AggregateStore::new(), AggregateStore::new());
//! for i in 0..500u32 {
//!     let record = RttRecord::tcp(180.0 + f64::from(i % 60), i % 7, "com.whatsapp", NetKind::Lte)
//!         .with_isp(if i % 2 == 0 { "Jio 4G" } else { "Verizon" });
//!     if i % 2 == 0 { sink_a.observe(&record) } else { sink_b.observe(&record) }
//! }
//! sink_a.merge_from(&sink_b);
//! let jio = sink_a.median_where(|key| key.isp == "Jio 4G").unwrap();
//! assert!(jio > 150.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregate;
pub mod record;
pub mod sketch;
pub mod stats;
pub mod store;
pub mod window;

#[cfg(test)]
mod codec_model;
#[cfg(test)]
mod sketch_model;

pub use aggregate::{AggregateKey, AggregateStore, DeviceActivity};
pub use record::{MeasurementKind, NetKind, RttRecord};
pub use sketch::RttSketch;
pub use stats::{percentile, Cdf, Histogram, Summary};
pub use store::MeasurementStore;
pub use window::{EpochSummary, WindowedAggregateStore};
