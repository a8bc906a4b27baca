//! Baseline measurement tools the paper compares MopEye against.
//!
//! * [`tcpdump`] — the ground-truth reference: RTTs read directly off the
//!   wire tap, the role root-privileged tcpdump plays in §4.1.1,
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
pub mod tcpdump;

pub use haystack::haystack_engine;
pub use mobiperf::{MobiPerf, PingRun};
pub use speedtest::{SpeedTest, ThroughputReport};
pub use tcpdump::TcpdumpReference;
