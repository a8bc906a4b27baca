//! Discrete-event simulated network substrate for the MopEye reproduction.
//!
//! The original MopEye runs on Android phones and measures real Internet
//! paths. This crate replaces that environment with a deterministic,
//! virtual-time model so that every experiment in the paper can be
//! regenerated on a laptop:
//!
//! * [`time`] — nanosecond-resolution virtual time (each engine keeps its
//!   own `now`; nothing shares a clock across threads),
//! * [`queue`] — a stable-ordered binary-heap event queue (the reference
//!   scheduler implementation),
//! * [`wheel`] — a hierarchical timing wheel with O(1) schedule/cancel and
//!   the same deterministic FIFO tie-order as the heap,
//! * [`scheduler`] — [`scheduler::TimerScheduler`], the wheel and the heap
//!   behind one API: the reference pair the equivalence suite pins against
//!   each other (the engine drives the [`wheel::TimingWheel`] directly),
//! * [`latency`] — latency models (constant, uniform, normal, log-normal)
//!   used for path RTTs, first-hop delays and system-call costs,
//! * [`profile`] — access-network profiles (WiFi, LTE, lossy 3G) with
//!   calibrated RTT/DNS distributions,
//! * [`server`] — remote application servers with per-destination path
//!   latency and simple service behaviours,
//! * [`dnssrv`] — a resolver with configurable records and latency,
//! * [`fault`] — per-segment drop / reorder / duplicate decisions for the
//!   relayed data path, drawn from flow-keyed fault streams,
//! * [`network`] — [`network::SimNetwork`], the path-level model used by the
//!   relay engine and the baselines,
//! * [`tap`] — a wire tap that plays the role tcpdump plays in the paper
//!   (ground-truth reference timestamps),
//! * [`socket`] — a `java.nio`-like socket layer with blocking and
//!   non-blocking modes plus `protect()` cost modelling; the engine's timing
//!   wheel, not a selector, delivers socket readiness,
//! * [`pool`] — a free-list buffer pool so the tunnel-packet datapath
//!   recycles buffers instead of allocating per packet,
//! * [`spsc`] — bounded single-producer/single-consumer queues that carry
//!   the sharded fleet engine's one job per worker shard per run, and the
//!   report back — the crate's only `unsafe` code,
//! * [`cost`] — calibrated cost models for the system calls and scheduler
//!   effects the paper's optimisations target.
//!
//! # Examples
//!
//! Deterministic sampling against a simulated path:
//!
//! ```
//! use mop_simnet::{SimNetwork, SimTime};
//! use mop_packet::{Endpoint, FourTuple};
//!
//! let mut net = SimNetwork::builder().seed(7).with_table2_destinations().build();
//! let flow = FourTuple::new(Endpoint::v4(10, 0, 0, 2, 40_000), Endpoint::v4(216, 58, 221, 132, 443));
//! let outcome = net.connect(flow, SimTime::from_millis(10));
//! assert!(outcome.success);
//! // The wire tap saw the same handshake tcpdump would have seen.
//! assert_eq!(net.tap().handshake_rtt(flow).unwrap(), outcome.completed_at - outcome.syn_sent);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cost;
pub mod dnssrv;
pub mod fault;
pub mod latency;
pub mod network;
pub mod pool;
pub mod profile;
pub mod queue;
pub mod rng;
pub mod scheduler;
pub mod server;
pub mod socket;
#[allow(unsafe_code)]
pub mod spsc;
pub mod tap;
pub mod time;
pub mod wheel;

pub use cost::{Component, CostModel, CpuLedger, MemoryComponent};
pub use dnssrv::DnsServerConfig;
pub use fault::{FaultDecision, FaultPlan};
pub use latency::LatencyModel;
pub use network::{
    ConnectOutcome, DnsOutcome, NetKeying, SimNetwork, SimNetworkBuilder,
};
pub use pool::{BufferPool, PoolStats};
pub use profile::{AccessProfile, NetworkType};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use scheduler::{SchedulerKind, TimerScheduler};
pub use server::{ServerConfig, Service};
pub use socket::{SocketId, SocketMode, SocketSet, SocketState};
pub use spsc::{spsc_channel, SpscReceiver, SpscSendError, SpscSender};
pub use tap::{TapDirection, WireTap};
pub use time::{SimDuration, SimTime};
pub use wheel::{TimerHandle, TimingWheel};
