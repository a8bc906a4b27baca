//! The MopEye engine: opportunistic per-app RTT measurement via user-space
//! packet relaying.
//!
//! This crate is the paper's primary contribution. It glues the substrates
//! together the way the MopEye Android app does (Figure 4 of the paper):
//!
//! * a **TunReader** retrieves raw IP packets from the TUN device using a
//!   configurable read strategy (§3.1),
//! * a **MainWorker** parses each packet, drives the per-connection
//!   user-space TCP state machine, and relays data over regular sockets
//!   (§2.3, §3.2); where the app's MainWorker blocks on a selector, the
//!   engine's timing wheel delivers each socket event at its virtual time,
//! * temporary **socket-connect threads** run each external `connect()` in
//!   blocking mode so that the SYN ↔ SYN/ACK time — the app's network RTT —
//!   is measured accurately, and perform the lazy packet-to-app mapping off
//!   the critical path (§2.4, §3.3),
//! * a **TunWriter** writes packets back to the tunnel through a queue with
//!   the `newPut` enqueue algorithm (§3.5.1),
//! * DNS queries are relayed and measured in temporary blocking-mode threads
//!   (§2.4).
//!
//! The engine runs against the virtual-time substrates in `mop-simnet`,
//! `mop-tun` and `mop-procnet`; every design decision the paper evaluates is
//! a knob on [`config::MopEyeConfig`], which is how the experiments reproduce the
//! paper's tables and its ablations. How per-flow state is keyed is not one
//! of them: the engine takes it from the network it runs over.
//!
//! One [`MopEyeEngine`] is one event loop — one core. The [`shard`] module
//! scales the relay out: [`FleetEngine`] hashes every connection four-tuple
//! to one of N shard engines (each with its own event loop, buffer pool,
//! TCP machines and network view); each worker shard with flows takes one
//! job per run from the dispatcher and returns one report, over one-slot
//! SPSC queues.
//! Every shard runs over a flow-keyed network, so the merged result is
//! bit-identical at any shard count.
//!
//! # Examples
//!
//! A two-shard fleet over a small scenario-style flow set:
//!
//! ```
//! use mopeye_core::{FleetConfig, FleetEngine};
//! use mop_packet::Endpoint;
//! use mop_simnet::{SimNetwork, SimTime};
//! use mop_tun::{FlowKind, FlowSpec};
//!
//! let flows: Vec<FlowSpec> = (0..40)
//!     .map(|i| FlowSpec {
//!         at: SimTime::from_millis(10 + i),
//!         uid: 10_100,
//!         package: "com.android.chrome".into(),
//!         // Fleet flows pre-assign their source: the four-tuple is the shard key.
//!         src: Some(Endpoint::v4(10, 1, 0, i as u8, 40_000)),
//!         dst: Endpoint::v4(216, 58, 221, 132, 443),
//!         domain: Some("www.google.com".into()),
//!         request_bytes: 200,
//!         close_after: 1024,
//!         kind: FlowKind::Tcp,
//!         network: None,
//!         isp: None,
//!     })
//!     .collect();
//! let builder = SimNetwork::builder().seed(7).with_table2_destinations();
//! let fleet = FleetEngine::new(FleetConfig::new(2), builder);
//! let report = fleet.run(flows);
//! assert_eq!(report.merged.relay.connects_ok, 40);
//! assert_eq!(report.per_shard.len(), 2);
//! ```

#![forbid(unsafe_code)]

mod arena;
pub mod checkpoint;
mod clock;
pub mod config;
pub mod conn;
pub mod engine;
pub mod report;
pub mod shard;
pub mod stages;
pub mod stats;
pub mod tun_writer;

pub use checkpoint::{
    epoch_boundary, split_at, CheckpointHeader, CheckpointRef, FleetCheckpoint,
    CHECKPOINT_FORMAT_VERSION,
};
pub use config::{EnqueueScheme, MopEyeConfig, ProtectMode, TimestampMode, WriteScheme};
pub use engine::MopEyeEngine;
pub use mop_tcpstack::CongestionAlgo;
pub use report::{Counter, Counters, RunReport};
pub use shard::{FleetConfig, FleetEngine, FleetReport, OutcomeFold, ResidentFleet, ShardOutcome};
pub use stats::{FlowOutcome, RelayStats, RttSample, SampleKind};
pub use tun_writer::{SubmitOutcome, TunWriter, WriteDelayStats, WriterLane};
