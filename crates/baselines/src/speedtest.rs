//! An Ookla-style throughput measurement and the relay pipeline model used
//! for Table 3.
//!
//! The speed test transfers a large body over the 25 Mbps dedicated WiFi
//! network of §4.1.2, with and without a VPN relay in the path. The relay's
//! impact on throughput comes from its per-packet service time: retrieving
//! the packet from the TUN device, processing it, optionally inspecting its
//! content (Haystack), and writing it onwards. When that service time exceeds
//! the link's per-packet serialisation time, the relay becomes the
//! bottleneck — which is exactly what happens to Haystack's upload path.

use mop_packet::{Endpoint, FourTuple};
use mop_simnet::{CostModel, FlowNetState, SimNetwork, SimRng, SimTime};
use mop_tun::ReadStrategy;
use mopeye_core::MopEyeConfig;

/// Segment size used by the transfer.
const SEGMENT: usize = 1460;

/// Download and upload throughput of one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputReport {
    /// Download throughput in Mbit/s.
    pub download_mbps: f64,
    /// Upload throughput in Mbit/s.
    pub upload_mbps: f64,
}

impl ThroughputReport {
    /// The throughput loss relative to a baseline (the ∆ columns of Table 3).
    pub fn delta_from(&self, baseline: &ThroughputReport) -> (f64, f64) {
        (baseline.download_mbps - self.download_mbps, baseline.upload_mbps - self.upload_mbps)
    }
}

/// Per-packet relay service times derived from an engine configuration.
#[derive(Debug, Clone, Copy)]
struct RelayServiceModel {
    /// Mean per-packet service time on the download path, in ms.
    down_ms: f64,
    /// Mean per-packet service time on the upload path, in ms.
    up_ms: f64,
}

impl RelayServiceModel {
    fn from_config(config: &MopEyeConfig, cost: &CostModel) -> Self {
        // Packet retrieval: a blocking read costs one read() call; polling
        // strategies add (on average) a fraction of their sleep period while
        // a burst is in flight.
        let read_ms = match config.read_strategy {
            ReadStrategy::Blocking => cost.tun_read.nominal_ms(),
            ReadStrategy::AdaptiveSleep { min, .. } => {
                cost.tun_read.nominal_ms() + min.as_millis_f64() * 0.25
            }
            ReadStrategy::FixedSleep { period } => {
                cost.tun_read.nominal_ms() + period.as_millis_f64() * 0.05
            }
        };
        let process_ms = 0.03;
        let write_ms = match config.write_scheme {
            mopeye_core::WriteScheme::Queue => cost.tun_write_base.nominal_ms(),
            // Direct writes share the tunnel with other writers and pay the
            // occasional contended write.
            mopeye_core::WriteScheme::Direct => {
                cost.tun_write_base.nominal_ms()
                    + cost.tun_write_contended_extra.nominal_ms() * 0.05
            }
        };
        let inspect_ms = if config.content_inspection {
            cost.content_inspection_per_kb.nominal_ms() * (SEGMENT as f64 / 1024.0)
        } else {
            0.0
        };
        Self {
            // Haystack inspects outbound (privacy-sensitive) traffic in full;
            // the inbound path only pays a light classification cost.
            down_ms: read_ms + process_ms + write_ms + inspect_ms * 0.05,
            up_ms: read_ms + process_ms + write_ms + inspect_ms,
        }
    }
}

/// The speed-test harness.
#[derive(Debug)]
pub struct SpeedTest {
    seed: u64,
    transfer_bytes: usize,
}

impl Default for SpeedTest {
    fn default() -> Self {
        Self::new(11, 24 * 1024 * 1024)
    }
}

impl SpeedTest {
    /// Creates a harness with an explicit seed and transfer size.
    pub fn new(seed: u64, transfer_bytes: usize) -> Self {
        Self { seed, transfer_bytes }
    }

    fn network(&self) -> SimNetwork {
        SimNetwork::builder().seed(self.seed).with_table2_destinations().build()
    }

    fn flow(port: u16) -> FourTuple {
        FourTuple::new(Endpoint::v4(10, 0, 0, 2, port), Endpoint::v4(216, 58, 221, 132, 443))
    }

    /// Throughput without any relay in the path.
    pub fn baseline(&self) -> ThroughputReport {
        self.run(None)
    }

    /// Throughput with a relay configured as `config` in the path.
    pub fn with_relay(&self, config: &MopEyeConfig) -> ThroughputReport {
        let cost = CostModel::android_phone();
        self.run(Some(RelayServiceModel::from_config(config, &cost)))
    }

    fn run(&self, relay: Option<RelayServiceModel>) -> ThroughputReport {
        let mut net = self.network();
        let mut rng = SimRng::seed_from_u64(self.seed ^ 0x5eed);
        let start = SimTime::from_millis(10);

        // Download: chunks arrive on the access link; the relay (if any)
        // forwards each after its service time, one at a time.
        let download = &mut FlowNetState::default();
        let chunks = net.bulk_download(download, Self::flow(50_000), self.transfer_bytes, start);
        let download_done = match relay {
            None => chunks.last().map(|(t, _)| *t).unwrap_or(start),
            Some(model) => {
                let mut ready = start;
                for (arrival, _) in &chunks {
                    let service = sample_service(model.down_ms, &mut rng);
                    ready = (*arrival).max(ready) + service;
                }
                ready
            }
        };
        let download_secs = (download_done - start).as_secs_f64();
        let download_mbps =
            self.transfer_bytes as f64 * 8.0 / 1_000_000.0 / download_secs.max(1e-9);

        // Upload: the app can produce packets as fast as it likes; each must
        // pass through the relay (service time) and then serialise onto the
        // uplink, whichever is slower.
        let packets = self.transfer_bytes / SEGMENT;
        let mut relay_free = start;
        let mut departures = Vec::with_capacity(packets);
        for i in 0..packets {
            let produced = start;
            let _ = i;
            let forwarded = match relay {
                None => produced,
                Some(model) => {
                    let service = sample_service(model.up_ms, &mut rng);
                    relay_free = relay_free.max(produced) + service;
                    relay_free
                }
            };
            departures.push(forwarded);
        }
        // Serialise onto the uplink in forwarding order.
        let mut upload_done = start;
        {
            let mut link = net;
            // One upload connection: its segments share its network state.
            let upload = &mut FlowNetState::default();
            let mut cursor = start;
            for forwarded in departures {
                let at = forwarded.max(cursor);
                let sched = link.bulk_upload(upload, Self::flow(50_001), SEGMENT, at);
                cursor = sched.last().map(|(t, _)| *t).unwrap_or(cursor);
                upload_done = cursor;
            }
        }
        let upload_secs = (upload_done - start).as_secs_f64();
        let upload_mbps = self.transfer_bytes as f64 * 8.0 / 1_000_000.0 / upload_secs.max(1e-9);
        ThroughputReport { download_mbps, upload_mbps }
    }
}

fn sample_service(mean_ms: f64, rng: &mut SimRng) -> mop_simnet::SimDuration {
    mop_simnet::SimDuration::from_millis_f64(rng.uniform(mean_ms * 0.7, mean_ms * 1.3))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harness() -> SpeedTest {
        // A smaller transfer keeps the unit test fast; the bench uses more.
        SpeedTest::new(3, 6 * 1024 * 1024)
    }

    #[test]
    fn baseline_saturates_the_25mbps_link() {
        let report = harness().baseline();
        assert!(report.download_mbps > 20.0, "download {}", report.download_mbps);
        assert!(report.download_mbps < 26.0, "download {}", report.download_mbps);
        assert!(report.upload_mbps > 21.0, "upload {}", report.upload_mbps);
        assert!(report.upload_mbps < 27.0, "upload {}", report.upload_mbps);
    }

    #[test]
    fn mopeye_relay_costs_less_than_one_mbps() {
        let harness = harness();
        let baseline = harness.baseline();
        let mopeye = harness.with_relay(&MopEyeConfig::mopeye());
        let (d_down, d_up) = mopeye.delta_from(&baseline);
        assert!(d_down < 1.5, "download delta {d_down}");
        assert!(d_up < 1.5, "upload delta {d_up}");
        assert!(d_down > -0.5 && d_up > -0.5, "relay cannot speed the link up");
    }

    #[test]
    fn haystack_relay_hurts_upload_far_more_than_mopeye() {
        let harness = harness();
        let baseline = harness.baseline();
        let mopeye = harness.with_relay(&MopEyeConfig::mopeye());
        let haystack = harness.with_relay(&MopEyeConfig::haystack_like());
        let (hay_down, hay_up) = haystack.delta_from(&baseline);
        let (mop_down, mop_up) = mopeye.delta_from(&baseline);
        // Download: a visible but moderate hit (paper: ~4.3 Mbps vs 0.46).
        assert!(hay_down > 2.0, "haystack download delta {hay_down}");
        assert!(hay_down > mop_down * 3.0);
        // Upload: collapses (paper: 6.79 Mbps remaining of 25.97).
        assert!(haystack.upload_mbps < 12.0, "haystack upload {}", haystack.upload_mbps);
        assert!(hay_up > 10.0, "haystack upload delta {hay_up}");
        assert!(hay_up > mop_up * 5.0);
    }
}
