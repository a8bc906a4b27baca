//! Baseline measurement tools the paper compares MopEye against. The
//! ground-truth reference, the role root-privileged tcpdump plays in
//! §4.1.1, needs no tool of its own: Table 2 reads each handshake's RTT off
//! the simulator's wire tap (`mop_simnet::WireTap::handshake_rtt`).
//!
//! * [`mobiperf`] — an active HTTP-ping measurement in the style of MobiPerf
//!   v3.4.0 / Mobilyzer, with the three inaccuracy sources the paper
//!   identifies (coarse timestamps, event-loop timing, timing placed away
//!   from the socket call),
//! * [`speedtest`] — an Ookla-style bulk throughput measurement used as the
//!   reference tool for Table 3,
//! * [`haystack`] — helpers for running the relay engine with Haystack's
//!   design choices (adaptive-sleep reads, cache mapping, per-socket
//!   protect, content inspection) for Tables 3 and 4.

#![forbid(unsafe_code)]

pub mod haystack;
pub mod mobiperf;
pub mod speedtest;

pub use haystack::haystack_engine;
pub use mobiperf::{MobiPerf, PingRun};
pub use speedtest::{SpeedTest, ThroughputReport};
