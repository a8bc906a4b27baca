//! Declarative fleet-scale traffic scenarios.
//!
//! The paper's evaluation drives the relay with one workload at a time on
//! one handset. The fleet engine needs the opposite: *mixes* of app
//! behaviours (web browsing, video streaming, bulk download, DNS-heavy,
//! idle-chatty background apps) crossed with *network profiles* (Wi-Fi, LTE,
//! lossy 3G, mid-session handover), at 100k+ concurrent connections, and all
//! of it reproducible from one seed — the WLCG workload-study lesson that
//! realistic mixed workloads, not single microbenchmarks, expose scaling
//! limits.
//!
//! A [`Scenario`] is pure data: it expands to a network description
//! (a flow-keyed [`SimNetworkBuilder`]) and a flow schedule
//! (`Vec<FlowSpec>`, every flow with a pre-assigned unique source endpoint,
//! so its four-tuple — and therefore its shard, its RNG streams and its
//! whole timeline — is a pure function of the spec). Feed both to a
//! `FleetEngine` and the run is deterministic at any shard count.

use std::net::Ipv4Addr;

use mop_measure::NetKind;
use mop_packet::Endpoint;
use mop_simnet::{AccessProfile, SimDuration, SimNetwork, SimNetworkBuilder, SimRng, SimTime};
use mop_tun::{FlowSpec, Workload, WorkloadKind};

/// Salt for the per-user RNG streams (`seed ^ user * GOLDEN ^ SALT`).
const USER_KEY_SALT: u64 = 0x7573_6572_5f6b_6579; // "user_key"
/// Weyl increment decorrelating consecutive user indices.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
/// First port of each user's per-flow source-port range.
const USER_PORT_BASE: u16 = 30_000;

/// One class of app behaviour in a workload mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrafficMix {
    /// Page bursts: a DNS query plus 6–14 short connections per page.
    WebBrowsing,
    /// A manifest fetch plus periodic chunk requests to one host.
    VideoStreaming,
    /// Back-to-back large transfers, speed-test style.
    BulkDownload,
    /// Bursts of DNS queries with no follow-up connections.
    DnsHeavy,
    /// Sparse small exchanges: chat apps and sync agents idling along.
    BackgroundChatter,
}

impl TrafficMix {
    /// Every mix, in presentation order.
    pub const ALL: [TrafficMix; 5] = [
        TrafficMix::WebBrowsing,
        TrafficMix::VideoStreaming,
        TrafficMix::BulkDownload,
        TrafficMix::DnsHeavy,
        TrafficMix::BackgroundChatter,
    ];

    /// A stable kebab-case label (scenario names, benchmark ids).
    pub fn label(self) -> &'static str {
        match self {
            TrafficMix::WebBrowsing => "web-browsing",
            TrafficMix::VideoStreaming => "video-streaming",
            TrafficMix::BulkDownload => "bulk-download",
            TrafficMix::DnsHeavy => "dns-heavy",
            TrafficMix::BackgroundChatter => "background-chatter",
        }
    }

    /// The `mop_tun` workload shape this mix expands to.
    pub fn workload_kind(self) -> WorkloadKind {
        match self {
            TrafficMix::WebBrowsing => WorkloadKind::WebBrowsing,
            TrafficMix::VideoStreaming => WorkloadKind::VideoStreaming,
            TrafficMix::BulkDownload => WorkloadKind::BulkTransfer,
            TrafficMix::DnsHeavy => WorkloadKind::DnsBurst,
            TrafficMix::BackgroundChatter => WorkloadKind::Messaging,
        }
    }

    /// The app generating this traffic: (package, Android-style shared UID).
    pub fn app(self) -> (&'static str, u32) {
        match self {
            TrafficMix::WebBrowsing => ("com.android.chrome", 10_100),
            TrafficMix::VideoStreaming => ("com.google.android.youtube", 10_200),
            TrafficMix::BulkDownload => ("org.zwanoo.android.speedtest", 10_300),
            TrafficMix::DnsHeavy => ("com.whatsapp", 10_400),
            TrafficMix::BackgroundChatter => ("com.google.android.gm", 10_500),
        }
    }

    /// Per-user intensity (pages / transfers / queries / messages), drawn
    /// from the user's stream.
    fn intensity(self, rng: &mut SimRng) -> u32 {
        match self {
            TrafficMix::WebBrowsing => rng.int_inclusive(1, 2) as u32,
            TrafficMix::VideoStreaming => 1,
            TrafficMix::BulkDownload => 1,
            TrafficMix::DnsHeavy => rng.int_inclusive(4, 10) as u32,
            TrafficMix::BackgroundChatter => rng.int_inclusive(2, 6) as u32,
        }
    }
}

/// The access network a scenario's users sit on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NetProfile {
    /// Home/office Wi-Fi (25 Mbps, low loss).
    Wifi,
    /// 4G LTE.
    Lte,
    /// Cell-edge 3G: long tail, 3 % loss, sub-megabit uplink.
    Lossy3g,
    /// Starts on Wi-Fi, hands over to LTE halfway through the scenario.
    WifiLteHandover,
    /// Starts on cell-edge 3G (with its data-path faults), hands over to
    /// clean LTE halfway through — the commuter leaving a dead zone. The
    /// profile that exercises loss recovery *and* its mid-session shutdown.
    DegradedCommute,
}

impl NetProfile {
    /// Every profile, in presentation order.
    pub const ALL: [NetProfile; 5] = [
        NetProfile::Wifi,
        NetProfile::Lte,
        NetProfile::Lossy3g,
        NetProfile::WifiLteHandover,
        NetProfile::DegradedCommute,
    ];

    /// A stable kebab-case label.
    pub fn label(self) -> &'static str {
        match self {
            NetProfile::Wifi => "wifi",
            NetProfile::Lte => "lte",
            NetProfile::Lossy3g => "lossy-3g",
            NetProfile::WifiLteHandover => "wifi-lte-handover",
            NetProfile::DegradedCommute => "degraded-commute",
        }
    }

    /// Applies the profile (and its impairments) to a network builder.
    /// `handover_at` is when the mid-session handover fires, for the profile
    /// that has one.
    pub fn apply(self, builder: SimNetworkBuilder, handover_at: SimTime) -> SimNetworkBuilder {
        match self {
            NetProfile::Wifi => builder.access(AccessProfile::wifi()),
            NetProfile::Lte => builder.access(AccessProfile::lte()),
            NetProfile::Lossy3g => builder.access(AccessProfile::lossy_3g()),
            NetProfile::WifiLteHandover => builder
                .access(AccessProfile::wifi())
                .handover_at(handover_at, AccessProfile::lte()),
            NetProfile::DegradedCommute => builder
                .access(AccessProfile::lossy_3g())
                .handover_at(handover_at, AccessProfile::lte()),
        }
    }

    /// The measurement-schema network kind a flow starting at `at` is
    /// labelled with (`handover_at` is when the profile's handover fires, if
    /// it has one). This is the label the shard sinks aggregate under.
    pub fn net_kind_at(self, at: SimTime, handover_at: SimTime) -> NetKind {
        match self {
            NetProfile::Wifi => NetKind::Wifi,
            NetProfile::Lte => NetKind::Lte,
            NetProfile::Lossy3g => NetKind::Umts3g,
            NetProfile::WifiLteHandover => {
                if at >= handover_at {
                    NetKind::Lte
                } else {
                    NetKind::Wifi
                }
            }
            NetProfile::DegradedCommute => {
                if at >= handover_at {
                    NetKind::Lte
                } else {
                    NetKind::Umts3g
                }
            }
        }
    }

    /// The operator / Wi-Fi network name flows on this profile are labelled
    /// with — the key the per-ISP analyses group by.
    pub fn isp_label_at(self, at: SimTime, handover_at: SimTime) -> &'static str {
        match self {
            NetProfile::Wifi => "HomeWiFi",
            NetProfile::Lte => "SimTel LTE",
            NetProfile::Lossy3g => "SimTel 3G",
            NetProfile::WifiLteHandover => {
                if at >= handover_at {
                    "SimTel LTE"
                } else {
                    "HomeWiFi"
                }
            }
            NetProfile::DegradedCommute => {
                if at >= handover_at {
                    "SimTel LTE"
                } else {
                    "SimTel 3G"
                }
            }
        }
    }
}

/// The declarative description of one fleet scenario.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name (report and benchmark ids).
    pub name: String,
    /// The seed everything derives from.
    pub seed: u64,
    /// Number of simulated users (each with their own handset and source
    /// address).
    pub users: usize,
    /// The window over which each user's flows are scheduled.
    pub duration: SimDuration,
    /// Workload mixes and their relative weights.
    pub mix: Vec<(TrafficMix, f64)>,
    /// The access network everyone is on.
    pub profile: NetProfile,
}

/// A scenario: expands a [`ScenarioSpec`] into a network and a flow
/// schedule. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Scenario {
    spec: ScenarioSpec,
}

impl Scenario {
    /// Wraps a spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no users or an empty mix.
    pub fn new(spec: ScenarioSpec) -> Self {
        assert!(spec.users > 0, "a scenario needs at least one user");
        assert!(!spec.mix.is_empty(), "a scenario needs at least one traffic mix");
        Self { spec }
    }

    /// The spec.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// One single-mix scenario: `mix` on `profile` with `users` users.
    pub fn single(
        mix: TrafficMix,
        profile: NetProfile,
        users: usize,
        duration: SimDuration,
        seed: u64,
    ) -> Self {
        Self::new(ScenarioSpec {
            name: format!("{}@{}", mix.label(), profile.label()),
            seed,
            users,
            duration,
            mix: vec![(mix, 1.0)],
            profile,
        })
    }

    /// The full scenario matrix: every workload mix crossed with every
    /// network profile (20 scenarios), `users` users each.
    pub fn matrix(users: usize, duration: SimDuration, seed: u64) -> Vec<Scenario> {
        let mut out = Vec::new();
        for mix in TrafficMix::ALL {
            for profile in NetProfile::ALL {
                out.push(Self::single(mix, profile, users, duration, seed));
            }
        }
        out
    }

    /// The fleet benchmark scenario: a realistic evening mix (mostly
    /// browsing and background chatter, some video, a few bulk downloads and
    /// DNS storms) compressed into a short arrival window, so thousands of
    /// connections overlap — the population-bound workload the fleet's
    /// shard-count invariance and host-cost guards are pinned on.
    pub fn rush_hour(users: usize, seed: u64) -> Self {
        Self::new(ScenarioSpec {
            name: "rush-hour".into(),
            seed,
            users,
            duration: SimDuration::from_secs(2),
            mix: vec![
                (TrafficMix::WebBrowsing, 0.30),
                (TrafficMix::BackgroundChatter, 0.40),
                (TrafficMix::VideoStreaming, 0.10),
                (TrafficMix::BulkDownload, 0.05),
                (TrafficMix::DnsHeavy, 0.15),
            ],
            profile: NetProfile::Wifi,
        })
    }

    /// The scheduler-churn scenario: an entire stadium's worth of handsets
    /// opening short-lived connections inside a half-second window — a goal
    /// was scored, everyone's feed refreshes at once. Flows are dominated by
    /// page bursts and DNS storms that open, transfer a little and tear down
    /// immediately, so an engine running per-connection timers arms and
    /// cancels them en masse: the workload that stresses O(1)
    /// schedule/cancel on the timing wheel (`mop_simnet::wheel`) far harder
    /// than rush hour's longer-lived mix.
    pub fn flash_crowd(users: usize, seed: u64) -> Self {
        Self::new(ScenarioSpec {
            name: "flash-crowd".into(),
            seed,
            users,
            duration: SimDuration::from_millis(500),
            mix: vec![
                (TrafficMix::WebBrowsing, 0.55),
                (TrafficMix::DnsHeavy, 0.30),
                (TrafficMix::BackgroundChatter, 0.15),
            ],
            profile: NetProfile::Lte,
        })
    }

    /// The loss-recovery scenario: a commuter's mix of streaming, browsing
    /// and chatter riding cell-edge 3G — 3 % data loss, reordering and the
    /// occasional duplicate — until the handset hands over to clean LTE
    /// halfway through the window. The first half exercises fast retransmit,
    /// SACK recovery and RTO backoff; the second half proves the recovery
    /// machinery goes quiet the moment the network does.
    pub fn degraded_commute(users: usize, seed: u64) -> Self {
        Self::new(ScenarioSpec {
            name: "degraded-commute".into(),
            seed,
            users,
            duration: SimDuration::from_secs(4),
            mix: vec![
                (TrafficMix::VideoStreaming, 0.35),
                (TrafficMix::WebBrowsing, 0.30),
                (TrafficMix::BulkDownload, 0.15),
                (TrafficMix::BackgroundChatter, 0.20),
            ],
            profile: NetProfile::DegradedCommute,
        })
    }

    /// The longitudinal scenario: one simulated day of fleet traffic. See
    /// [`DiurnalScenario`].
    pub fn diurnal(users: usize, seed: u64) -> DiurnalScenario {
        DiurnalScenario::new(users, seed)
    }

    /// The network this scenario runs on: seeded from the spec, flow-keyed,
    /// with the paper's Table 2 destinations and the profile's impairments
    /// (a handover, if the profile has one, fires halfway through the
    /// window).
    pub fn network(&self) -> SimNetworkBuilder {
        let handover_at =
            SimTime::ZERO + SimDuration::from_nanos(self.spec.duration.as_nanos() / 2);
        self.spec
            .profile
            .apply(
                SimNetwork::builder()
                    .seed(self.spec.seed)
                    .flow_keyed()
                    .with_table2_destinations(),
                handover_at,
            )
    }

    /// The destinations scenario workloads spread their connections over
    /// (the Table 2 hosts the scenario network serves).
    pub fn destinations() -> Vec<(Endpoint, String)> {
        vec![
            (Endpoint::v4(216, 58, 221, 132, 443), "www.google.com".to_string()),
            (Endpoint::v4(31, 13, 79, 251, 443), "graph.facebook.com".to_string()),
            (Endpoint::v4(108, 160, 166, 126, 443), "www.dropbox.com".to_string()),
        ]
    }

    /// The source address of one simulated user's handset (unique per user).
    pub fn user_addr(user: usize) -> Ipv4Addr {
        // Skip the low host numbers so no user collides with the engine's
        // single-device default of 10.0.0.2.
        let host = user as u32 + 0x100;
        Ipv4Addr::new(10, (host >> 16) as u8, (host >> 8) as u8, host as u8)
    }

    /// Expands the scenario into its flow schedule, sorted by start time.
    ///
    /// Deterministic: every user draws from a stream derived from
    /// `(seed, user index)`, and every flow gets a unique pre-assigned
    /// source endpoint (`user_addr(user)` plus a per-flow port), so the
    /// result — and everything a flow-keyed engine does with it — depends
    /// only on the spec.
    ///
    /// Every flow also carries the network/ISP labels of the profile at its
    /// start time ([`NetProfile::net_kind_at`] / [`NetProfile::isp_label_at`]),
    /// which is what the shard sinks aggregate the crowd report under.
    pub fn generate(&self) -> Vec<FlowSpec> {
        let weights: Vec<f64> = self.spec.mix.iter().map(|(_, w)| *w).collect();
        let destinations = Self::destinations();
        let handover_at =
            SimTime::ZERO + SimDuration::from_nanos(self.spec.duration.as_nanos() / 2);
        let mut flows = Vec::new();
        for user in 0..self.spec.users {
            let mut rng = SimRng::seed_from_u64(
                self.spec.seed ^ (user as u64).wrapping_mul(GOLDEN) ^ USER_KEY_SALT,
            );
            let mix_index = rng.weighted_index(&weights).expect("mix weights are positive");
            let mix = self.spec.mix[mix_index].0;
            let (package, uid) = mix.app();
            let workload = Workload::new(
                mix.workload_kind(),
                uid,
                package,
                destinations.clone(),
                self.spec.duration,
                mix.intensity(&mut rng),
            );
            let addr = Self::user_addr(user);
            let mut user_flows = workload.generate(&mut rng);
            for (i, flow) in user_flows.iter_mut().enumerate() {
                flow.src = Some(Endpoint::new(addr, USER_PORT_BASE + i as u16));
                flow.network = Some(self.spec.profile.net_kind_at(flow.at, handover_at));
                flow.isp =
                    Some(self.spec.profile.isp_label_at(flow.at, handover_at).to_string());
            }
            flows.extend(user_flows);
        }
        flows.sort_by_key(|f| (f.at, f.src));
        flows
    }
}

/// One phase of the simulated day: who is online, what they do, and what
/// network they report being on.
#[derive(Debug, Clone)]
pub struct DiurnalPhase {
    /// Phase name ("morning-rush", …).
    pub name: &'static str,
    /// When the phase starts, as an offset into the day.
    pub offset: SimDuration,
    /// How long the phase's arrival window lasts.
    pub duration: SimDuration,
    /// The phase's workload mix.
    pub mix: Vec<(TrafficMix, f64)>,
    /// The access-network kind the phase's flows are labelled with.
    pub network: NetKind,
    /// The operator / Wi-Fi name the phase's flows are labelled with.
    pub isp: &'static str,
    /// The fraction of the fleet active in this phase.
    pub share: f64,
}

/// A simulated day of fleet traffic — the longitudinal scenario behind the
/// windowed epoch sketches and the checkpoint/restore harness.
///
/// The day is compressed to one virtual second per hour (24 virtual seconds
/// end to end) and split into four phases:
///
/// | phase              | hours  | who's on             | dominated by        |
/// |--------------------|--------|----------------------|---------------------|
/// | `morning-rush`     | 0–6    | commuters on LTE     | browsing + DNS      |
/// | `office-wifi`      | 6–12   | desks on office Wi-Fi| chatter + browsing  |
/// | `evening-video`    | 12–18  | homes on Wi-Fi       | video streaming     |
/// | `overnight-chatter`| 18–24  | idle handsets        | background sync     |
///
/// Each phase activates its own slice of the fleet (distinct user indices,
/// so every flow keeps a unique source endpoint) and stamps its flows with
/// the phase's network/ISP labels — which is what the per-epoch sketches
/// and the diagnosis time series group by. The *physical* path is a uniform
/// LTE profile: the simulator supports one mid-run handover, not four, so
/// the day's network character travels on the per-flow labels instead (the
/// dimension the analytics aggregate under), keeping every epoch boundary a
/// legal checkpoint cut.
///
/// Everything derives from `(users, seed)` exactly like [`Scenario`]: per-user
/// RNG streams keyed by the global user index, pre-assigned unique source
/// endpoints, flows sorted by start time. At `users` ≈ 250,000 the schedule
/// crosses a million device-flows; the tests and benchmarks run scaled-down
/// fleets with the identical shape.
#[derive(Debug, Clone)]
pub struct DiurnalScenario {
    seed: u64,
    users: usize,
    phases: Vec<DiurnalPhase>,
}

impl DiurnalScenario {
    /// A simulated day over a fleet of `users` handsets.
    ///
    /// # Panics
    ///
    /// Panics if `users` is zero.
    pub fn new(users: usize, seed: u64) -> Self {
        assert!(users > 0, "a diurnal scenario needs at least one user");
        let hour = Self::virtual_hour();
        let quarter = SimDuration::from_nanos(hour.as_nanos() * 6);
        let phases = vec![
            DiurnalPhase {
                name: "morning-rush",
                offset: SimDuration::from_nanos(0),
                duration: quarter,
                mix: vec![
                    (TrafficMix::WebBrowsing, 0.40),
                    (TrafficMix::BackgroundChatter, 0.25),
                    (TrafficMix::DnsHeavy, 0.25),
                    (TrafficMix::VideoStreaming, 0.10),
                ],
                network: NetKind::Lte,
                isp: "SimTel LTE",
                share: 0.30,
            },
            DiurnalPhase {
                name: "office-wifi",
                offset: quarter,
                duration: quarter,
                mix: vec![
                    (TrafficMix::BackgroundChatter, 0.45),
                    (TrafficMix::WebBrowsing, 0.35),
                    (TrafficMix::BulkDownload, 0.10),
                    (TrafficMix::DnsHeavy, 0.10),
                ],
                network: NetKind::Wifi,
                isp: "OfficeWiFi",
                share: 0.25,
            },
            DiurnalPhase {
                name: "evening-video",
                offset: SimDuration::from_nanos(quarter.as_nanos() * 2),
                duration: quarter,
                mix: vec![
                    (TrafficMix::VideoStreaming, 0.50),
                    (TrafficMix::WebBrowsing, 0.25),
                    (TrafficMix::BackgroundChatter, 0.15),
                    (TrafficMix::BulkDownload, 0.10),
                ],
                network: NetKind::Wifi,
                isp: "HomeWiFi",
                share: 0.35,
            },
            DiurnalPhase {
                name: "overnight-chatter",
                offset: SimDuration::from_nanos(quarter.as_nanos() * 3),
                duration: quarter,
                mix: vec![
                    (TrafficMix::BackgroundChatter, 0.80),
                    (TrafficMix::DnsHeavy, 0.20),
                ],
                network: NetKind::Wifi,
                isp: "HomeWiFi",
                share: 0.10,
            },
        ];
        Self { seed, users, phases }
    }

    /// The scenario name (report and benchmark ids).
    pub fn name(&self) -> &'static str {
        "diurnal"
    }

    /// The seed everything derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fleet size the day is scaled to.
    pub fn users(&self) -> usize {
        self.users
    }

    /// One virtual hour: the natural epoch width for this scenario (24
    /// epochs cover the day, and every hour boundary is a checkpoint cut).
    pub fn virtual_hour() -> SimDuration {
        SimDuration::from_secs(1)
    }

    /// The whole virtual day (24 virtual hours).
    pub fn day() -> SimDuration {
        SimDuration::from_nanos(Self::virtual_hour().as_nanos() * 24)
    }

    /// The day's phases, in order.
    pub fn phases(&self) -> &[DiurnalPhase] {
        &self.phases
    }

    /// The network the day runs on: seeded, flow-keyed, Table 2
    /// destinations, uniform LTE path (see the type docs for why the
    /// per-phase network character is label-carried instead).
    pub fn network(&self) -> SimNetworkBuilder {
        SimNetwork::builder()
            .seed(self.seed)
            .flow_keyed()
            .with_table2_destinations()
            .access(AccessProfile::lte())
    }

    /// How many of the fleet's users are active in phase `index`.
    fn phase_users(&self, index: usize) -> usize {
        let share = self.phases[index].share;
        ((self.users as f64 * share).round() as usize).max(1)
    }

    /// Expands the day into its flow schedule, sorted by start time.
    ///
    /// Phase `p`'s users occupy a distinct global-index range (offset by the
    /// preceding phases' populations), so every flow keeps a unique source
    /// address; each user's stream is keyed by `(seed, global index)` exactly
    /// like [`Scenario::generate`], and the phase offset shifts the whole
    /// arrival window into its hours of the day.
    pub fn generate(&self) -> Vec<FlowSpec> {
        let destinations = Scenario::destinations();
        let mut flows = Vec::new();
        let mut user_base = 0usize;
        for (index, phase) in self.phases.iter().enumerate() {
            let weights: Vec<f64> = phase.mix.iter().map(|(_, w)| *w).collect();
            let phase_users = self.phase_users(index);
            for user in 0..phase_users {
                let global_user = user_base + user;
                let mut rng = SimRng::seed_from_u64(
                    self.seed ^ (global_user as u64).wrapping_mul(GOLDEN) ^ USER_KEY_SALT,
                );
                let mix_index = rng.weighted_index(&weights).expect("mix weights are positive");
                let mix = phase.mix[mix_index].0;
                let (package, uid) = mix.app();
                let workload = Workload::new(
                    mix.workload_kind(),
                    uid,
                    package,
                    destinations.clone(),
                    phase.duration,
                    mix.intensity(&mut rng),
                );
                let addr = Scenario::user_addr(global_user);
                let mut user_flows = workload.generate(&mut rng);
                for (i, flow) in user_flows.iter_mut().enumerate() {
                    flow.at += phase.offset;
                    flow.src = Some(Endpoint::new(addr, USER_PORT_BASE + i as u16));
                    flow.network = Some(phase.network);
                    flow.isp = Some(phase.isp.to_string());
                }
                flows.extend(user_flows);
            }
            user_base += phase_users;
        }
        flows.sort_by_key(|f| (f.at, f.src));
        flows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn generation_is_deterministic_and_sources_are_unique() {
        let scenario = Scenario::rush_hour(400, 7);
        let a = scenario.generate();
        let b = scenario.generate();
        assert_eq!(a, b, "same spec, same schedule");
        let sources: HashSet<_> = a.iter().map(|f| f.src.expect("pre-assigned src")).collect();
        assert_eq!(sources.len(), a.len(), "every flow has a unique source endpoint");
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "sorted by start time");
        assert!(a.len() >= 400, "at least one flow per user, got {}", a.len());
    }

    #[test]
    fn flash_crowd_is_a_compressed_churny_burst() {
        let scenario = Scenario::flash_crowd(300, 5);
        let flows = scenario.generate();
        assert_eq!(flows, Scenario::flash_crowd(300, 5).generate(), "deterministic");
        assert!(flows.len() >= 300, "at least one flow per user, got {}", flows.len());
        // Arrivals are compressed: the page bursts trail a little past the
        // half-second window, but everything lands within ~1.5 s.
        let horizon = SimTime::ZERO + SimDuration::from_millis(1_500);
        assert!(flows.iter().all(|f| f.at <= horizon));
        let sources: HashSet<_> = flows.iter().map(|f| f.src.expect("pre-assigned src")).collect();
        assert_eq!(sources.len(), flows.len(), "unique source endpoints");
        // The mix is dominated by the short-lived browsing + DNS churn.
        let churny = flows
            .iter()
            .filter(|f| {
                f.package == "com.android.chrome" || f.package == "com.whatsapp"
            })
            .count();
        assert!(churny * 2 > flows.len(), "churny flows {} of {}", churny, flows.len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = Scenario::rush_hour(50, 1).generate();
        let b = Scenario::rush_hour(50, 2).generate();
        assert_ne!(a, b);
    }

    #[test]
    fn matrix_crosses_every_mix_with_every_profile() {
        let matrix = Scenario::matrix(10, SimDuration::from_secs(5), 3);
        assert_eq!(matrix.len(), TrafficMix::ALL.len() * NetProfile::ALL.len());
        let names: HashSet<_> = matrix.iter().map(|s| s.spec().name.clone()).collect();
        assert_eq!(names.len(), matrix.len(), "scenario names are unique");
        assert!(names.contains("bulk-download@lossy-3g"));
        assert!(names.contains("web-browsing@wifi-lte-handover"));
        for scenario in &matrix {
            assert!(!scenario.generate().is_empty());
        }
    }

    #[test]
    fn mix_weights_shape_the_population() {
        let flows = Scenario::rush_hour(2000, 11).generate();
        let chatter = flows.iter().filter(|f| f.package == "com.google.android.gm").count();
        let bulk =
            flows.iter().filter(|f| f.package == "org.zwanoo.android.speedtest").count();
        assert!(chatter > bulk, "chatter (40%) should outnumber bulk (5%)");
    }

    #[test]
    fn handover_profile_builds_a_network_with_midpoint_switch() {
        let scenario = Scenario::single(
            TrafficMix::WebBrowsing,
            NetProfile::WifiLteHandover,
            5,
            SimDuration::from_secs(10),
            1,
        );
        let net = scenario.network().build();
        use mop_simnet::NetworkType;
        assert_eq!(net.access_at(SimTime::from_secs(1)).network_type, NetworkType::Wifi);
        assert_eq!(net.access_at(SimTime::from_secs(6)).network_type, NetworkType::Lte);
    }

    #[test]
    fn degraded_commute_starts_faulty_and_hands_over_clean() {
        let scenario = Scenario::degraded_commute(20, 9);
        let flows = scenario.generate();
        assert_eq!(flows, Scenario::degraded_commute(20, 9).generate(), "deterministic");
        let net = scenario.network().build();
        // Faults are live on the 3G half and gone after the LTE handover.
        assert!(net.access_at(SimTime::from_secs(1)).has_data_faults());
        assert!(!net.access_at(SimTime::from_secs(3)).has_data_faults());
        // Flow labels follow the handover.
        let handover = SimTime::ZERO + SimDuration::from_secs(2);
        for flow in &flows {
            let expect = if flow.at >= handover { "SimTel LTE" } else { "SimTel 3G" };
            assert_eq!(flow.isp.as_deref(), Some(expect));
        }
    }

    #[test]
    fn diurnal_day_is_deterministic_with_unique_sources() {
        let day = Scenario::diurnal(200, 13);
        let a = day.generate();
        let b = Scenario::diurnal(200, 13).generate();
        assert_eq!(a, b, "same (users, seed), same day");
        assert_ne!(a, Scenario::diurnal(200, 14).generate(), "seeds differ");
        let sources: HashSet<_> = a.iter().map(|f| f.src.expect("pre-assigned src")).collect();
        assert_eq!(sources.len(), a.len(), "unique source endpoints across phases");
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "sorted by start time");
        // The fleet produces several flows per active user — the ratio that
        // makes the full-scale day (users ≈ 250k) cross a million flows.
        assert!(a.len() >= 200 * 2, "flows per fleet too low: {}", a.len());
    }

    #[test]
    fn diurnal_phases_cover_the_day_and_label_their_flows() {
        let day = Scenario::diurnal(400, 21);
        let hour = DiurnalScenario::virtual_hour();
        assert_eq!(DiurnalScenario::day().as_nanos(), hour.as_nanos() * 24);
        let phases = day.phases();
        assert_eq!(phases.len(), 4);
        assert!((phases.iter().map(|p| p.share).sum::<f64>() - 1.0).abs() < 1e-9);

        let flows = day.generate();
        for phase in phases {
            let start = SimTime::ZERO + phase.offset;
            let in_phase: Vec<_> =
                flows.iter().filter(|f| f.isp.as_deref() == Some(phase.isp)).collect();
            // The evening and overnight phases share the HomeWiFi label, so
            // per-phase attribution by ISP is existence, not exclusivity.
            assert!(
                in_phase.iter().any(|f| f.at >= start),
                "phase {} contributed no flows in its own hours",
                phase.name
            );
        }
        // Morning flows are LTE-labelled; evening is video-heavy Wi-Fi.
        let morning = flows.iter().filter(|f| f.network == Some(NetKind::Lte)).count();
        assert!(morning > 0, "morning LTE flows missing");
        let video = flows
            .iter()
            .filter(|f| f.package == "com.google.android.youtube")
            .filter(|f| f.at >= SimTime::ZERO + SimDuration::from_nanos(hour.as_nanos() * 12))
            .count();
        assert!(video > 0, "evening video peak missing");
    }

    #[test]
    fn user_addresses_avoid_the_single_device_ip() {
        for user in 0..1000 {
            assert_ne!(Scenario::user_addr(user), Ipv4Addr::new(10, 0, 0, 2));
        }
        assert_ne!(Scenario::user_addr(0), Scenario::user_addr(65_536));
    }
}
