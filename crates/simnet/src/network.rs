//! The path-level network model.
//!
//! [`SimNetwork`] answers the questions the relay and the baselines ask of
//! the outside world: *if a SYN leaves the handset now, when does the SYN/ACK
//! come back? when is a request acknowledged? how do response bytes arrive
//! given the access link's bandwidth? when does the DNS resolver answer?*
//! Every answer is also recorded on the [`WireTap`] so that ground-truth
//! (tcpdump-equivalent) RTTs are available to the accuracy experiments.

use std::collections::VecDeque;
use std::net::{IpAddr, Ipv4Addr};

use mop_packet::{Endpoint, FastMap, FourTuple};

use crate::dnssrv::{DnsAnswer, DnsServerConfig};
use crate::fault::{FaultDecision, FaultPlan};
use crate::latency::LatencyModel;
use crate::profile::AccessProfile;
use crate::rng::SimRng;
use crate::server::{ServerConfig, Service};
use crate::tap::{TapDirection, TapKind, WireTap};
use crate::time::{SimDuration, SimTime};

/// Maximum segment size used when chunking response bodies.
const SEGMENT_BYTES: usize = 1460;
/// Connect timeout used for blackholed destinations.
const CONNECT_TIMEOUT: SimDuration = SimDuration::from_secs(30);
/// Salt mixed into per-flow RNG seeds so the network's streams do not collide
/// with other flow-keyed components using the same seed and hash.
const NET_KEY_SALT: u64 = 0x6e65_745f_6b65_7973; // "net_keys"
/// Salt for the per-flow fault streams, so segment-fate draws never perturb
/// the flow's latency/bandwidth stream (whose draw count must stay fixed).
const FAULT_KEY_SALT: u64 = 0x666c_745f_6b65_7973; // "flt_keys"
/// Salt for the SYN-retransmission streams: the backoff chain draws a
/// variable number of loss decisions, so it gets a throwaway stream keyed
/// like the others instead of advancing the flow's main stream.
const SYN_RETRY_SALT: u64 = 0x7379_6e5f_7274_7279; // "syn_rtry"

/// How the network draws randomness and reserves the access link.
///
/// [`NetKeying::Shared`] models one handset: a single RNG stream and one
/// shared uplink/downlink whose serialisation delays couple concurrent flows
/// (the Table 3 bandwidth-contention behaviour). [`NetKeying::FlowKeyed`]
/// models a *fleet* of handsets: every four-tuple gets its own RNG stream
/// (seeded from `seed ^ flow.stable_hash()`) and its own link reservation, so
/// a flow's timeline depends only on the flow itself — which is what lets a
/// sharded engine produce identical results regardless of how flows are
/// partitioned across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetKeying {
    /// One device, one RNG stream, one contended access link.
    #[default]
    Shared,
    /// Per-flow RNG streams and per-flow link reservations (fleet mode).
    FlowKeyed,
}

/// The mutable state one exchange samples against: an RNG stream plus the
/// link-reservation cursors. Checked out of the network (either the shared
/// copy or the flow's own) for the duration of one call.
#[derive(Debug)]
struct FlowNetCtx {
    rng: SimRng,
    uplink_busy: SimTime,
    downlink_busy: SimTime,
}

/// Result of a TCP connection attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectOutcome {
    /// When the SYN crossed the interface.
    pub syn_sent: SimTime,
    /// When the SYN/ACK (or RST, or timeout) was observed at the handset.
    pub completed_at: SimTime,
    /// True if the handshake succeeded.
    pub success: bool,
    /// True if the failure was an active refusal (RST) rather than a timeout.
    pub refused: bool,
    /// The ground-truth path RTT sampled for this exchange.
    pub true_rtt: SimDuration,
}

/// Result of a DNS resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsOutcome {
    /// When the query crossed the interface.
    pub query_sent: SimTime,
    /// When the response arrived, if it did.
    pub response_at: Option<SimTime>,
    /// Addresses in the answer (empty for NXDOMAIN or timeout).
    pub addrs: Vec<Ipv4Addr>,
    /// True if the resolver answered NXDOMAIN.
    pub nxdomain: bool,
}

impl DnsOutcome {
    /// The measured DNS RTT, if the exchange completed.
    #[cfg(test)]
    pub(crate) fn rtt(&self) -> Option<SimDuration> {
        self.response_at.map(|t| t - self.query_sent)
    }
}

/// Builder for [`SimNetwork`].
#[derive(Debug, Clone)]
pub struct SimNetworkBuilder {
    seed: u64,
    access: AccessProfile,
    servers: Vec<ServerConfig>,
    keying: NetKeying,
    handover: Option<(SimTime, AccessProfile)>,
}

impl Default for SimNetworkBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SimNetworkBuilder {
    /// Starts a builder with a WiFi access network and no servers.
    pub(crate) fn new() -> Self {
        Self {
            seed: DEFAULT_SEED,
            access: AccessProfile::wifi(),
            servers: Vec::new(),
            keying: NetKeying::Shared,
            handover: None,
        }
    }

    /// Switches the network to per-flow keyed randomness and link
    /// reservations (see [`NetKeying::FlowKeyed`]).
    pub fn flow_keyed(mut self) -> Self {
        self.keying = NetKeying::FlowKeyed;
        self
    }

    /// Schedules a mid-session handover: from virtual time `at` onwards,
    /// every new exchange uses `to` as the access profile (latency,
    /// bandwidth and loss) instead of the one configured at build time.
    pub fn handover_at(mut self, at: SimTime, to: AccessProfile) -> Self {
        self.handover = Some((at, to));
        self
    }

    /// Sets the deterministic seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the access-network profile.
    pub fn access(mut self, access: AccessProfile) -> Self {
        self.access = access;
        self
    }

    /// Adds a remote server.
    pub fn server(mut self, server: ServerConfig) -> Self {
        self.servers.push(server);
        self
    }

    /// Adds the paper's Table 2 destinations (Google, Facebook, Dropbox).
    pub fn with_table2_destinations(mut self) -> Self {
        self.servers.extend(ServerConfig::table2_destinations());
        self
    }

    /// Builds the network.
    pub fn build(self) -> SimNetwork {
        let mut dns = DnsServerConfig::new(self.access.dns_rtt.clone());
        for server in &self.servers {
            dns.add_server(server);
        }
        SimNetwork {
            access: self.access,
            servers: self.servers,
            dns,
            rng: SimRng::seed_from_u64(self.seed),
            seed: self.seed,
            tap: WireTap::new(),
            default_path: LatencyModel::lognormal_with(45.0, 0.5, 5.0),
            downlink_busy_until: SimTime::ZERO,
            uplink_busy_until: SimTime::ZERO,
            keying: self.keying,
            handover: self.handover,
            flow_ctx: FastMap::default(),
            fault_rng: FastMap::default(),
        }
    }
}

/// The default seed ("MopEye" in ASCII) so that an unseeded builder is still
/// deterministic.
const DEFAULT_SEED: u64 = 0x4d6f_7045_7965;

/// The simulated path-level network.
#[derive(Debug)]
pub struct SimNetwork {
    access: AccessProfile,
    servers: Vec<ServerConfig>,
    dns: DnsServerConfig,
    rng: SimRng,
    seed: u64,
    tap: WireTap,
    default_path: LatencyModel,
    downlink_busy_until: SimTime,
    uplink_busy_until: SimTime,
    keying: NetKeying,
    handover: Option<(SimTime, AccessProfile)>,
    flow_ctx: FastMap<FourTuple, FlowNetCtx>,
    fault_rng: FastMap<FourTuple, SimRng>,
}

impl SimNetwork {
    /// Starts a builder.
    pub fn builder() -> SimNetworkBuilder {
        SimNetworkBuilder::new()
    }

    /// The configured DNS resolver.
    pub fn dns_config(&self) -> &DnsServerConfig {
        &self.dns
    }

    /// The wire tap (ground-truth capture).
    pub fn tap(&self) -> &WireTap {
        &self.tap
    }

    /// The keying discipline in use. A relay engine running over this
    /// network keys its own per-flow state the same way.
    pub fn keying(&self) -> NetKeying {
        self.keying
    }

    /// The access profile governing an exchange that starts at `at`,
    /// accounting for a scheduled handover.
    pub fn access_at(&self, at: SimTime) -> &AccessProfile {
        match &self.handover {
            Some((when, to)) if at >= *when => to,
            _ => &self.access,
        }
    }

    /// Checks out the sampling context for one exchange on `flow`: the
    /// shared state under [`NetKeying::Shared`], the flow's own stream and
    /// link cursors under [`NetKeying::FlowKeyed`]. Must be paired with
    /// [`SimNetwork::checkin`].
    fn checkout(&mut self, flow: FourTuple) -> FlowNetCtx {
        match self.keying {
            NetKeying::Shared => FlowNetCtx {
                rng: std::mem::replace(&mut self.rng, SimRng::seed_from_u64(0)),
                uplink_busy: self.uplink_busy_until,
                downlink_busy: self.downlink_busy_until,
            },
            NetKeying::FlowKeyed => {
                self.flow_ctx.remove(&flow).unwrap_or_else(|| FlowNetCtx {
                    rng: SimRng::seed_from_u64(
                        self.seed ^ flow.stable_hash() ^ NET_KEY_SALT,
                    ),
                    uplink_busy: SimTime::ZERO,
                    downlink_busy: SimTime::ZERO,
                })
            }
        }
    }

    /// Drops the per-flow sampling context of a finished flow (a no-op
    /// under [`NetKeying::Shared`]). The engine calls this on teardown so a
    /// long fleet run's memory is bounded by concurrent flows; if a late
    /// exchange recreates the context, it restarts from the flow's seed —
    /// still a pure function of `(seed, four-tuple)`.
    pub fn release_flow(&mut self, flow: FourTuple) {
        self.flow_ctx.remove(&flow);
        self.fault_rng.remove(&flow);
    }

    /// Drops everything the network keeps about `flow`: its sampling
    /// context and fault streams, as [`SimNetwork::release_flow`] does (the
    /// fault stream of the segments delivered towards its app too, which is
    /// keyed server side first), and its wire-tap exchanges. The engine
    /// calls this once nothing can reach the flow again, so a long run's
    /// network state follows the flows open at once.
    pub fn forget_flow(&mut self, flow: FourTuple) {
        self.release_flow(flow);
        self.fault_rng.remove(&flow.reversed());
        self.tap.forget(flow);
    }

    /// True if any access profile this network can be on — the initial one
    /// or a scheduled handover target — has nonzero data-path fault knobs.
    ///
    /// Engines check this once and skip the whole recovery apparatus
    /// (in-flight tracking, RTT estimation, RTO timers) when no fault can
    /// ever fire, so clean runs stay bit-identical to pre-fault builds.
    pub fn faults_possible(&self) -> bool {
        self.access.has_data_faults()
            || self.handover.as_ref().is_some_and(|(_, to)| to.has_data_faults())
    }

    /// Decides the fate of one relayed data segment on `flow` delivered
    /// around time `at`: drop it, duplicate it, delay it past its
    /// successors, or deliver it untouched.
    ///
    /// Draws come from the flow's dedicated fault stream (seeded
    /// `seed ^ flow.stable_hash() ^ FAULT_KEY_SALT`), created lazily and
    /// dropped by [`SimNetwork::release_flow`]. On a profile without data
    /// faults this returns [`FaultDecision::Deliver`] without creating any
    /// state or drawing any randomness.
    pub fn data_fault(&mut self, flow: FourTuple, at: SimTime) -> FaultDecision {
        let (plan, base_delay_ms) = {
            let access = self.access_at(at);
            if !access.has_data_faults() {
                return FaultDecision::Deliver;
            }
            (FaultPlan::from_profile(access), access.access_rtt.nominal_ms())
        };
        let rng = self.fault_rng.entry(flow).or_insert_with(|| {
            SimRng::seed_from_u64(self.seed ^ flow.stable_hash() ^ FAULT_KEY_SALT)
        });
        plan.decide(rng, base_delay_ms)
    }

    /// Returns a context checked out with [`SimNetwork::checkout`].
    fn checkin(&mut self, flow: FourTuple, ctx: FlowNetCtx) {
        match self.keying {
            NetKeying::Shared => {
                self.rng = ctx.rng;
                self.uplink_busy_until = ctx.uplink_busy;
                self.downlink_busy_until = ctx.downlink_busy;
            }
            NetKeying::FlowKeyed => {
                self.flow_ctx.insert(flow, ctx);
            }
        }
    }

    /// Registers an additional server after construction.
    pub fn add_server(&mut self, server: ServerConfig) {
        self.dns.add_server(&server);
        self.servers.push(server);
    }

    /// Looks up the server that answers on `addr`.
    pub fn server_for(&self, addr: IpAddr) -> Option<&ServerConfig> {
        self.servers.iter().find(|s| s.has_addr(addr))
    }

    fn path_model_for(&self, addr: IpAddr) -> LatencyModel {
        self.server_for(addr).map(|s| s.path_rtt.clone()).unwrap_or_else(|| self.default_path.clone())
    }

    /// Samples the full handset-to-server RTT for `dst` at time `at` with a
    /// caller-provided RNG stream: access network + Internet path.
    fn path_rtt_sample(&self, rng: &mut SimRng, dst: IpAddr, at: SimTime) -> SimDuration {
        let path = self.path_model_for(dst);
        let access = self.access_at(at).access_rtt.sample_ms(rng);
        SimDuration::from_millis_f64(access + path.sample_ms(rng))
    }

    /// Attempts a TCP handshake from `flow.src` to `flow.dst`, with the SYN
    /// leaving the handset at `at`.
    pub fn connect(&mut self, flow: FourTuple, at: SimTime) -> ConnectOutcome {
        let mut ctx = self.checkout(flow);
        let rtt = self.path_rtt_sample(&mut ctx.rng, flow.dst.addr, at);
        let access = self.access_at(at);
        let syn_sent = at + SimDuration::from_millis_f64(access.uplink_tx_delay_ms(60));
        let loss = access.loss;
        self.tap.record(syn_sent, TapDirection::Outbound, TapKind::Syn, flow);
        let service_accepts = self
            .server_for(flow.dst.addr)
            .map(|s| s.service.clone())
            .unwrap_or(Service::Echo);
        let outcome = match service_accepts {
            Service::Refuse => {
                let completed_at = syn_sent + rtt;
                self.tap.record(completed_at, TapDirection::Inbound, TapKind::Rst, flow);
                ConnectOutcome { syn_sent, completed_at, success: false, refused: true, true_rtt: rtt }
            }
            Service::Blackhole => {
                let completed_at = syn_sent + CONNECT_TIMEOUT;
                ConnectOutcome { syn_sent, completed_at, success: false, refused: false, true_rtt: rtt }
            }
            _ => {
                // Model SYN loss with the RFC 6298 retransmission schedule:
                // retries after 1 s, then 2 s, 4 s, … until the cumulative
                // wait reaches the connect timeout. The first attempt's loss
                // draw rides the flow's main stream (so the common no-loss
                // case is bit-identical to the single-retry model this
                // replaces); the variable-length retry chain draws from a
                // dedicated salted stream.
                let lost = ctx.rng.chance(loss);
                let mut answered_at = if lost { None } else { Some(syn_sent + rtt) };
                if lost {
                    let mut retry_rng = SimRng::seed_from_u64(
                        self.seed ^ flow.stable_hash() ^ SYN_RETRY_SALT,
                    );
                    let mut wait_s: u64 = 1;
                    let mut elapsed_s: u64 = 1;
                    while SimDuration::from_secs(elapsed_s) < CONNECT_TIMEOUT {
                        let resent = syn_sent + SimDuration::from_secs(elapsed_s);
                        self.tap.record(resent, TapDirection::Outbound, TapKind::Syn, flow);
                        if !retry_rng.chance(loss) {
                            answered_at = Some(resent + rtt);
                            break;
                        }
                        wait_s *= 2;
                        elapsed_s += wait_s;
                    }
                }
                match answered_at {
                    Some(completed_at) => {
                        self.tap.record(completed_at, TapDirection::Inbound, TapKind::SynAck, flow);
                        ConnectOutcome { syn_sent, completed_at, success: true, refused: false, true_rtt: rtt }
                    }
                    // Every retransmission was lost too: the connect times
                    // out exactly like a blackholed destination.
                    None => ConnectOutcome {
                        syn_sent,
                        completed_at: syn_sent + CONNECT_TIMEOUT,
                        success: false,
                        refused: false,
                        true_rtt: rtt,
                    },
                }
            }
        };
        self.checkin(flow, ctx);
        outcome
    }

    /// Sends `request_bytes` on an established connection at `at` and
    /// appends the response's arrival schedule at the handset — one
    /// `(time, bytes)` chunk each, in order, according to the destination's
    /// service behaviour — to `arrivals` (a socket's pending-read ring). The
    /// whole schedule is drawn here, at request time.
    pub(crate) fn request_response(
        &mut self,
        flow: FourTuple,
        request_bytes: usize,
        at: SimTime,
        arrivals: &mut VecDeque<(SimTime, usize)>,
    ) {
        let mut ctx = self.checkout(flow);
        let rtt = self.path_rtt_sample(&mut ctx.rng, flow.dst.addr, at);
        let half_rtt = SimDuration::from_millis_f64(rtt.as_millis_f64() / 2.0);
        let tx_up =
            SimDuration::from_millis_f64(self.access_at(at).uplink_tx_delay_ms(request_bytes));
        let depart = reserve(&mut ctx.uplink_busy, at, tx_up);
        self.tap.record(depart, TapDirection::Outbound, TapKind::Data(request_bytes), flow);
        let arrives_at_server = depart + half_rtt;
        let service = self
            .server_for(flow.dst.addr)
            .map(|s| s.service.clone())
            .unwrap_or(Service::Echo);
        let (response_total, processing_ms) = match &service {
            Service::Silent | Service::Refuse | Service::Blackhole => (0usize, 0.0),
            Service::Echo => (request_bytes, 0.1),
            Service::Request { response_bytes, processing } => {
                (*response_bytes, processing.sample_ms(&mut ctx.rng))
            }
            Service::Bulk => (256 * 1024, 0.5),
        };
        if response_total > 0 {
            let first_byte_leaves = arrives_at_server + SimDuration::from_millis_f64(processing_ms);
            let mut remaining = response_total;
            let mut cursor = first_byte_leaves + half_rtt;
            while remaining > 0 {
                let chunk = remaining.min(SEGMENT_BYTES);
                // A handover mid-download changes the serialisation rate of
                // the chunks that follow it.
                let tx = SimDuration::from_millis_f64(
                    self.access_at(cursor).downlink_tx_delay_ms(chunk),
                );
                cursor = reserve(&mut ctx.downlink_busy, cursor, tx);
                self.tap.record(cursor, TapDirection::Inbound, TapKind::Data(chunk), flow);
                arrivals.push_back((cursor, chunk));
                remaining -= chunk;
            }
        }
        self.checkin(flow, ctx);
    }

    /// Streams `bytes` from the destination to the handset starting at `at`
    /// (a bulk download, bounded by the downlink capacity). Returns the chunk
    /// arrival schedule.
    pub fn bulk_download(&mut self, flow: FourTuple, bytes: usize, at: SimTime) -> Vec<(SimTime, usize)> {
        let mut ctx = self.checkout(flow);
        let rtt = self.path_rtt_sample(&mut ctx.rng, flow.dst.addr, at);
        let mut cursor = at + rtt; // Request propagation + first byte.
        let mut remaining = bytes;
        let mut chunks = Vec::with_capacity(bytes / SEGMENT_BYTES + 1);
        while remaining > 0 {
            let chunk = remaining.min(SEGMENT_BYTES);
            let tx =
                SimDuration::from_millis_f64(self.access_at(cursor).downlink_tx_delay_ms(chunk));
            cursor = reserve(&mut ctx.downlink_busy, cursor, tx);
            chunks.push((cursor, chunk));
            remaining -= chunk;
        }
        self.checkin(flow, ctx);
        chunks
    }

    /// Streams `bytes` from the handset to the destination starting at `at`
    /// (a bulk upload, bounded by the uplink capacity). Returns the chunk
    /// departure schedule; each entry is when the chunk finished serialising
    /// onto the access link.
    pub fn bulk_upload(&mut self, flow: FourTuple, bytes: usize, at: SimTime) -> Vec<(SimTime, usize)> {
        let mut ctx = self.checkout(flow);
        let mut cursor = at;
        let mut remaining = bytes;
        let mut chunks = Vec::with_capacity(bytes / SEGMENT_BYTES + 1);
        while remaining > 0 {
            let chunk = remaining.min(SEGMENT_BYTES);
            let tx =
                SimDuration::from_millis_f64(self.access_at(cursor).uplink_tx_delay_ms(chunk));
            cursor = reserve(&mut ctx.uplink_busy, cursor, tx);
            chunks.push((cursor, chunk));
            remaining -= chunk;
        }
        self.checkin(flow, ctx);
        chunks
    }

    /// Resolves `name` through the ISP resolver, with the query leaving the
    /// handset at `at`.
    pub fn dns_lookup(&mut self, src: Endpoint, name: &str, at: SimTime) -> DnsOutcome {
        let flow = FourTuple::new(src, Endpoint::new(self.dns.addr, 53));
        let mut ctx = self.checkout(flow);
        let query_sent =
            at + SimDuration::from_millis_f64(self.access_at(at).uplink_tx_delay_ms(64));
        self.tap.record(query_sent, TapDirection::Outbound, TapKind::DnsQuery, flow);
        let answer = self.dns.resolve(name, &mut ctx.rng);
        let rtt = SimDuration::from_millis_f64(self.dns.sample_rtt_ms(&mut ctx.rng));
        self.checkin(flow, ctx);
        match answer {
            DnsAnswer::Timeout => {
                DnsOutcome { query_sent, response_at: None, addrs: Vec::new(), nxdomain: false }
            }
            DnsAnswer::NxDomain => {
                let response_at = query_sent + rtt;
                self.tap.record(response_at, TapDirection::Inbound, TapKind::DnsResponse, flow);
                DnsOutcome { query_sent, response_at: Some(response_at), addrs: Vec::new(), nxdomain: true }
            }
            DnsAnswer::Addresses(addrs) => {
                let response_at = query_sent + rtt;
                self.tap.record(response_at, TapDirection::Inbound, TapKind::DnsResponse, flow);
                DnsOutcome { query_sent, response_at: Some(response_at), addrs, nxdomain: false }
            }
        }
    }
}

/// Reserves `tx` of serialisation time on a link whose cursor is `busy`,
/// starting no earlier than `earliest`. Returns when the transmission
/// finishes and advances the cursor there.
fn reserve(busy: &mut SimTime, earliest: SimTime, tx: SimDuration) -> SimTime {
    let start = earliest.max(*busy);
    let done = start + tx;
    *busy = done;
    done
}

#[cfg(test)]
mod tests {
    use super::*;

    fn google_flow(port: u16) -> FourTuple {
        FourTuple::new(Endpoint::v4(10, 0, 0, 2, port), Endpoint::v4(216, 58, 221, 132, 443))
    }

    fn network() -> SimNetwork {
        SimNetwork::builder().seed(7).with_table2_destinations().build()
    }

    #[test]
    fn connect_rtt_matches_tap_ground_truth() {
        let mut net = network();
        let flow = google_flow(40000);
        let outcome = net.connect(flow, SimTime::from_millis(10));
        assert!(outcome.success);
        let tap_rtt = net.tap().handshake_rtt(flow).unwrap();
        assert_eq!(outcome.completed_at - outcome.syn_sent, tap_rtt);
        // Google path is a handful of milliseconds plus the WiFi access hop.
        assert!(tap_rtt.as_millis_f64() < 60.0, "rtt {}", tap_rtt);
    }

    #[test]
    fn dropbox_is_much_slower_than_google() {
        let mut net = network();
        let google = net.connect(google_flow(40000), SimTime::ZERO).true_rtt;
        let dropbox_flow =
            FourTuple::new(Endpoint::v4(10, 0, 0, 2, 40001), Endpoint::v4(108, 160, 166, 126, 443));
        let dropbox = net.connect(dropbox_flow, SimTime::ZERO).true_rtt;
        assert!(dropbox.as_millis_f64() > google.as_millis_f64() * 5.0);
    }

    #[test]
    fn refused_and_blackholed_destinations() {
        let mut net = SimNetwork::builder()
            .seed(1)
            .server(ServerConfig::new(
                "closed",
                "10.9.9.9".parse().unwrap(),
                LatencyModel::Constant { ms: 20.0 },
                Service::Refuse,
            ))
            .server(ServerConfig::new(
                "hole",
                "10.9.9.10".parse().unwrap(),
                LatencyModel::Constant { ms: 20.0 },
                Service::Blackhole,
            ))
            .build();
        let refused = net.connect(
            FourTuple::new(Endpoint::v4(10, 0, 0, 2, 1), Endpoint::v4(10, 9, 9, 9, 80)),
            SimTime::ZERO,
        );
        assert!(!refused.success && refused.refused);
        let hole = net.connect(
            FourTuple::new(Endpoint::v4(10, 0, 0, 2, 2), Endpoint::v4(10, 9, 9, 10, 80)),
            SimTime::ZERO,
        );
        assert!(!hole.success && !hole.refused);
        assert!(hole.completed_at - hole.syn_sent >= CONNECT_TIMEOUT);
    }

    #[test]
    fn request_response_schedules_full_body() {
        let mut net = network();
        let flow = google_flow(40002);
        // The schedule is appended behind what the ring already holds.
        let earlier = (SimTime::from_millis(1), 7);
        let mut arrivals = VecDeque::from([earlier]);
        let at = SimTime::from_millis(100);
        net.request_response(flow, 500, at, &mut arrivals);
        assert_eq!(arrivals.pop_front(), Some(earlier));
        let received: usize = arrivals.iter().map(|(_, b)| *b).sum();
        assert_eq!(received, 32 * 1024, "the whole response body");
        // The first chunk arrives a round trip after the request left, at
        // the earliest: well over a millisecond on the Google path.
        assert!(arrivals.front().unwrap().0 > at + SimDuration::from_millis(1));
        // Chunk times are non-decreasing.
        let times: Vec<_> = arrivals.iter().map(|(t, _)| *t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn bulk_download_is_bandwidth_limited() {
        let mut net = network();
        let flow = google_flow(40003);
        let bytes = 3 * 1024 * 1024; // 3 MiB.
        let start = SimTime::ZERO;
        let chunks = net.bulk_download(flow, bytes, start);
        let done = chunks.last().unwrap().0;
        let seconds = (done - start).as_millis_f64() / 1000.0;
        let mbps = bytes as f64 * 8.0 / 1_000_000.0 / seconds;
        // The WiFi profile is 25 Mbps; allow RTT amortisation slack.
        assert!(mbps < 25.5, "throughput {mbps}");
        assert!(mbps > 15.0, "throughput {mbps}");
    }

    #[test]
    fn bulk_upload_is_uplink_limited() {
        let mut net = network();
        let flow = google_flow(40004);
        let bytes = 2 * 1024 * 1024;
        let chunks = net.bulk_upload(flow, bytes, SimTime::ZERO);
        let done = chunks.last().unwrap().0;
        let mbps = bytes as f64 * 8.0 / 1_000_000.0 / (done.as_nanos() as f64 / 1e9);
        assert!(mbps < 26.5, "upload throughput {mbps}");
        assert!(mbps > 18.0, "upload throughput {mbps}");
    }

    #[test]
    fn dns_lookup_resolves_registered_domains() {
        let mut net = network();
        let src = Endpoint::v4(10, 0, 0, 2, 41000);
        let outcome = net.dns_lookup(src, "www.google.com", SimTime::from_millis(5));
        assert!(!outcome.nxdomain);
        assert_eq!(outcome.addrs, vec![Ipv4Addr::new(216, 58, 221, 132)]);
        assert!(outcome.rtt().unwrap() > SimDuration::ZERO);
        let missing = net.dns_lookup(src, "unknown.example", SimTime::from_millis(6));
        assert!(missing.nxdomain);
        assert!(missing.addrs.is_empty());
    }

    #[test]
    fn syn_backoff_walks_the_rfc_6298_schedule() {
        // Certain loss: every attempt is lost, the chain exhausts at the
        // connect timeout and the handshake fails like a blackhole.
        let mut always = SimNetwork::builder()
            .seed(21)
            .access(AccessProfile { loss: 1.0, ..AccessProfile::wifi() })
            .build();
        let flow = google_flow(40100);
        let outcome = always.connect(flow, SimTime::ZERO);
        assert!(!outcome.success && !outcome.refused);
        assert_eq!(outcome.completed_at - outcome.syn_sent, CONNECT_TIMEOUT);
        // The tap recorded the retransmissions at 1, 3, 7, 15 s after the
        // first SYN (cumulative 1+2+4+8 backoff, capped by the timeout).
        let syns: Vec<_> = always
            .tap()
            .capture
            .iter()
            .filter(|&&(_, _, kind, f)| kind == TapKind::Syn && f == flow)
            .map(|&(at, ..)| (at - outcome.syn_sent).as_secs_f64().round() as u64)
            .collect();
        assert_eq!(syns, vec![0, 1, 3, 7, 15]);
    }

    #[test]
    fn syn_retry_success_matches_the_old_single_retry_timing() {
        // Find a seed whose first attempt is lost but whose first retry gets
        // through: the handshake then completes at syn_sent + 1 s + rtt,
        // exactly what the single-retry model produced.
        for seed in 0..2000 {
            let mut net = SimNetwork::builder()
                .seed(seed)
                .access(AccessProfile { loss: 0.4, ..AccessProfile::wifi() })
                .build();
            let flow = google_flow(40101);
            let outcome = net.connect(flow, SimTime::ZERO);
            if !outcome.success {
                continue;
            }
            let over_rtt = outcome.completed_at - outcome.syn_sent - outcome.true_rtt;
            if over_rtt > SimDuration::ZERO {
                assert_eq!(over_rtt, SimDuration::from_secs(1));
                return;
            }
        }
        panic!("no seed produced a lost-then-recovered handshake");
    }

    #[test]
    fn data_faults_are_flow_keyed_and_released() {
        let mut net = SimNetwork::builder()
            .seed(5)
            .access(AccessProfile::lossy_3g())
            .build();
        assert!(net.faults_possible());
        let flow = google_flow(40200);
        let schedule: Vec<_> =
            (0..200).map(|_| net.data_fault(flow, SimTime::ZERO)).collect();
        assert!(schedule.iter().any(|&d| d != FaultDecision::Deliver), "lossy 3G fired no faults");
        // Releasing the flow rewinds its fault stream to the seed.
        net.release_flow(flow);
        let replay: Vec<_> =
            (0..200).map(|_| net.data_fault(flow, SimTime::ZERO)).collect();
        assert_eq!(schedule, replay);
        // Another flow sees an independent schedule.
        net.release_flow(flow);
        let other: Vec<_> =
            (0..200).map(|_| net.data_fault(google_flow(40201), SimTime::ZERO)).collect();
        assert_ne!(schedule, other);
    }

    #[test]
    fn clean_profiles_never_fault_and_keep_no_state() {
        let mut net = SimNetwork::builder().seed(6).build();
        assert!(!net.faults_possible());
        let flow = google_flow(40202);
        for _ in 0..50 {
            assert_eq!(net.data_fault(flow, SimTime::ZERO), FaultDecision::Deliver);
        }
        assert!(net.fault_rng.is_empty(), "clean profile allocated fault state");
        // A handover onto a faulty profile flips faults_possible and makes
        // post-handover segments eligible.
        let mut mixed = SimNetwork::builder()
            .seed(6)
            .handover_at(SimTime::from_millis(1000), AccessProfile::lossy_3g())
            .build();
        assert!(mixed.faults_possible());
        assert_eq!(mixed.data_fault(flow, SimTime::ZERO), FaultDecision::Deliver);
        assert!(mixed.fault_rng.is_empty());
        let late: Vec<_> =
            (0..300).map(|_| mixed.data_fault(flow, SimTime::from_millis(1500))).collect();
        assert!(late.iter().any(|&d| d != FaultDecision::Deliver));
    }

    #[test]
    fn unknown_destination_uses_default_path() {
        let mut net = SimNetwork::builder().seed(9).build();
        let flow = FourTuple::new(Endpoint::v4(10, 0, 0, 2, 1), Endpoint::v4(203, 0, 113, 7, 443));
        let outcome = net.connect(flow, SimTime::ZERO);
        assert!(outcome.success);
        assert!(outcome.true_rtt.as_millis_f64() > 5.0);
    }
}
