//! MopEye reproduction — opportunistic monitoring of per-app mobile network
//! performance, re-implemented as a Rust workspace.
//!
//! This facade crate re-exports the workspace crates under one namespace so
//! examples, integration tests and downstream users can depend on a single
//! package:
//!
//! * [`packet`] — IP/TCP/UDP/DNS wire formats,
//! * [`simnet`] — the virtual-time simulated network substrate,
//! * [`tun`] — the simulated TUN device, read strategies and app workloads,
//! * [`procnet`] — `/proc/net` tables and packet-to-app mapping,
//! * [`tcpstack`] — the user-space TCP state machine and client registry,
//! * [`engine`] — the MopEye relay engine and the sharded `FleetEngine`,
//! * [`measure`] — measurement records and statistics,
//! * [`dataset`] — the synthetic crowdsourcing dataset generator and the
//!   fleet scenario matrix (workload mixes × network profiles),
//! * [`baselines`] — tcpdump/MobiPerf/Haystack/Speedtest baselines,
//! * [`analytics`] — reproduction of every table and figure in the paper.
//!
//! # Examples
//!
//! ```
//! use mopeye::engine::{MopEyeConfig, MopEyeEngine};
//! use mopeye::simnet::SimNetwork;
//! use mopeye::tun::{Workload, WorkloadKind};
//! use mopeye::packet::Endpoint;
//! use mopeye::simnet::SimDuration;
//!
//! let net = SimNetwork::builder().seed(1).with_table2_destinations().build();
//! let mut engine = MopEyeEngine::new(MopEyeConfig::mopeye(), net);
//! let workload = Workload::new(
//!     WorkloadKind::Messaging,
//!     10_100,
//!     "com.whatsapp",
//!     vec![(Endpoint::v4(31, 13, 79, 251, 443), "graph.facebook.com".into())],
//!     SimDuration::from_secs(10),
//!     5,
//! );
//! let report = engine.run(&[workload]);
//! assert_eq!(report.relay.connects_ok as usize, report.tcp_samples().len());
//! ```

#![forbid(unsafe_code)]

pub use mop_analytics as analytics;
pub use mop_baselines as baselines;
pub use mop_dataset as dataset;
pub use mop_measure as measure;
pub use mop_packet as packet;
pub use mop_procnet as procnet;
pub use mop_server as server;
pub use mop_simnet as simnet;
pub use mop_tcpstack as tcpstack;
pub use mop_tun as tun;
pub use mopeye_core as engine;

/// The version of the reproduction workspace.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_exposed() {
        assert!(!super::VERSION.is_empty());
    }
}
