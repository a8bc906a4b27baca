//! The simulated TUN virtual network interface, the packet-retrieval
//! strategies built on top of it, and the app workload generators that feed
//! it.
//!
//! On Android, `VpnService.Builder.establish()` hands the app a file
//! descriptor for a TUN device; every IP packet any app sends is delivered to
//! that descriptor, and packets written to it are delivered back to the apps
//! (§2.2 of the paper). How quickly a VPN app retrieves packets from that
//! descriptor — and how much CPU it burns doing so — is the subject of §3.1:
//! ToyVpn sleeps 100 ms between reads, PrivacyGuard 20 ms, Haystack sleeps
//! adaptively, and MopEye puts the descriptor into blocking mode and
//! dedicates a thread to it.
//!
//! * [`device`] — the TUN device with its two packet queues,
//! * [`reader`] — the four read strategies and their delay/CPU behaviour,
//! * [`apps`] — client-side TCP/DNS endpoints that behave like real apps
//!   (handshake, request, ACK, FIN) so the relay can be exercised end to end,
//! * [`workload`] — workload generators (web browsing, messaging, video
//!   streaming, bulk transfer, DNS bursts) that produce flow schedules.

#![forbid(unsafe_code)]

pub mod apps;
pub mod device;
pub mod reader;
pub mod workload;

pub use apps::{AppEndpoint, AppState, DnsClient};
pub use device::{TunDevice, TunStats};
pub use reader::{ReadStrategy, ReaderSim, RetrievalOutcome};
pub use workload::{FlowKind, FlowSpec, Workload, WorkloadKind};
