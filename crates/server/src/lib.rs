//! `mop_server` — the long-lived crowd control plane.
//!
//! The batch layers of this workspace answer "run this scenario, print the
//! report". The paper's deployment, though, is a *service*: a fleet of
//! crowd devices measuring continuously while operators inject load, watch
//! per-epoch deltas, query diagnoses and snapshot state — without ever
//! stopping the world. This crate is that service, built from the same
//! deterministic engine:
//!
//! * [`plane::ControlPlane`] steps a [`mopeye_core::FleetEngine`] through
//!   virtual time, one fresh fleet per scenario per step, exploiting the
//!   flow-keyed partition invariance so the cumulative digest stays
//!   bit-identical to an uninterrupted batch run,
//! * [`proto`] defines the line-delimited JSON frames (requests,
//!   responses, stream events) on first-party [`mop_json`],
//! * [`server::Server`] dispatches frames to the plane,
//! * [`transport`] runs the line loop over stdio or a Unix socket,
//! * [`client::Client`] is the matching harness for tests and the
//!   `mop-serve --connect` mode.
//!
//! The protocol reference with an annotated transcript lives in
//! `docs/SERVER.md`; `tests/server_protocol.rs` pins recorded sessions
//! byte for byte and `tests/server_oracle.rs` checks random
//! inject/retire/step/checkpoint interleavings against batch oracles.

#![forbid(unsafe_code)]

pub mod client;
pub mod plane;
pub mod proto;
pub mod server;
pub mod transport;

pub use client::{Client, Reply};
pub use plane::{
    ControlPlane, PlaneConfig, StepOutcome, MAX_CURSOR_EPOCH, MAX_INJECT_USERS,
    SERVER_CHECKPOINT_VERSION,
};
pub use proto::{
    digest_str, error_frame, event_frame, parse_request, result_frame, ErrorCode, Request,
    PROTOCOL_VERSION,
};
pub use server::{Detail, Server, Turn};
pub use transport::{serve, serve_stdio, MAX_FRAME_BYTES};

#[cfg(unix)]
pub use client::connect_unix;
#[cfg(unix)]
pub use transport::serve_unix;
