//! The user-space TCP/IP stack MopEye terminates app connections against.
//!
//! Because MopEye relays traffic through regular sockets (no root, no raw
//! sockets), it cannot see the kernel's Transmission Control Block for the
//! external connections, so it maintains its own TCP state machine for the
//! *internal* connections — the ones between the apps and the TUN interface
//! (§2.3 of the paper). This crate implements that state machine and the
//! plumbing around it:
//!
//! * [`state`] — the connection states and transition rules,
//! * [`machine`] — [`machine::TcpStateMachine`], which consumes tunnel
//!   segments from the app and socket-side events from the relay, and emits
//!   response packets plus relay actions into caller-owned buffers; server
//!   data travels as byte counts (a TCP payload is its length, see
//!   [`mop_packet::tcp`]), so relaying it copies nothing,
//! * [`recovery`] — [`recovery::RecoveryState`], the sender-side loss
//!   recovery (RFC 6298 RTT estimation and retransmission timing, SACK
//!   scoreboard, fast retransmit) plus the pluggable congestion controllers
//!   ([`recovery::Reno`], [`recovery::Cubic`]) used when the simulated
//!   network injects data-path faults,
//! * [`timer`] — [`timer::ConnTimers`], the cancellable per-connection
//!   timer tokens the engine's scheduler arms and disarms,
//! * [`udp`] — [`udp::dns_query`], the DNS-query classification the relay's
//!   UDP path runs. UDP has no state machine here: a DNS measurement's only
//!   state is the pending query in the engine's per-connection record
//!   (`mopeye_core::conn::Conn::dns_pending`).
//!
//! The paper's *TCP client object* — the splice of a state machine with its
//! external socket and connect timestamps (§2.3, "two-way referencing") — is
//! not a type of this crate: the engine's per-connection record
//! (`mopeye_core::conn::Conn`) holds the machine, timers and recovery state
//! next to the socket, so each fact about a connection has one home.

#![forbid(unsafe_code)]

pub mod machine;
pub mod recovery;
pub mod state;
pub mod timer;
pub mod udp;

pub use machine::{RelayAction, SegmentRef, SegmentVerdict, TcpStateMachine};
pub use recovery::{
    AckReaction, CongestionAlgo, CongestionControl, Cubic, RecoveryState, Reno, Retransmit,
    RttEstimator,
};
pub use state::TcpState;
pub use timer::{ConnTimers, TimerToken};
pub use udp::dns_query;
