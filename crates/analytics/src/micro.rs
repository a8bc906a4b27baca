//! Micro-benchmark experiments: Figure 5 and Tables 1–4.

use mop_baselines::{MobiPerf, SpeedTest, ThroughputReport};
use mop_measure::{Cdf, Histogram};
use mop_packet::{Endpoint, FourTuple};
use mop_procnet::{ConnectionTable, EagerMapper, LazyMapper, SocketStateCode};
use mop_simnet::{CostModel, CpuLedger, SimDuration, SimNetwork, SimRng, SimTime};
use mop_tun::{FlowKind, FlowSpec, Workload, WorkloadKind};
use mopeye_core::{
    EnqueueScheme, MopEyeConfig, MopEyeEngine, TunWriter, WriteDelayStats, WriteScheme,
};

/// Figure 5: CDFs of the per-SYN packet-to-app mapping overhead before and
/// after the lazy mapping mechanism.
#[derive(Debug, Clone)]
pub struct Fig5Mapping {
    /// Per-SYN mapping CPU overhead with eager parsing (Figure 5a), in ms.
    pub before_ms: Vec<f64>,
    /// Per-SYN mapping CPU overhead with lazy mapping (Figure 5b), in ms.
    pub after_ms: Vec<f64>,
    /// Fraction of lazy requests that avoided a parse (67.8 % in the paper).
    pub mitigation_rate: f64,
    /// Number of connect threads that actually parsed under lazy mapping.
    pub lazy_parses: u64,
    /// Total connect threads in the scenario (481 in the paper).
    pub total_requests: u64,
}

impl Fig5Mapping {
    /// Runs the web-browsing mapping scenario of §3.3.
    pub fn run(seed: u64) -> Self {
        let cost = CostModel::android_phone();
        let mut rng = SimRng::seed_from_u64(seed);
        let mut table = ConnectionTable::new();
        let mut eager = EagerMapper::new();
        let mut lazy = LazyMapper::new();
        // A browsing session: bursts of connections opened nearly together,
        // each burst roughly one page load (≈480 connections overall).
        let mut port = 40_000u16;
        let bursts = 40u64;
        for burst in 0..bursts {
            let burst_start = SimTime::from_millis(900 * burst);
            for c in 0..12u64 {
                let flow = FourTuple::new(
                    Endpoint::v4(10, 0, 0, 2, port),
                    Endpoint::v4(31, 13, 70 + (burst % 20) as u8, 36, 443),
                );
                port += 1;
                table.register(flow, true, 10_100 + (burst % 4) as u32, SocketStateCode::SynSent);
                // The connect completes after a Facebook-scale RTT.
                let registered = burst_start + SimDuration::from_millis(c * 4);
                let established = registered + SimDuration::from_millis(35 + c);
                eager.map(&table, &cost, &mut rng, flow);
                lazy.map(&table, &cost, &mut rng, flow, registered, established);
            }
        }
        let before_ms = eager.stats().cpu_cost_ms.clone();
        let after_ms = lazy.stats().cpu_cost_ms.clone();
        Self {
            mitigation_rate: lazy.stats().mitigation_rate(),
            lazy_parses: lazy.stats().parses,
            total_requests: lazy.stats().requests,
            before_ms,
            after_ms,
        }
    }

    /// CDF of the "before" overheads.
    pub fn before_cdf(&self) -> Cdf {
        Cdf::from_values(&self.before_ms)
    }

    /// CDF of the "after" overheads.
    pub fn after_cdf(&self) -> Cdf {
        Cdf::from_values(&self.after_ms)
    }
}

/// Table 1: delay of writing packets to the VPN tunnel under four schemes.
#[derive(Debug, Clone)]
pub struct Table1TunnelWrite {
    /// Histogram of producer-visible delays with directWrite.
    pub direct: Histogram,
    /// Histogram of tunnel-write delays with queueWrite.
    pub queue: Histogram,
    /// Histogram of enqueue delays with the traditional put.
    pub old_put: Histogram,
    /// Histogram of enqueue delays with the sleep-counter put.
    pub new_put: Histogram,
}

impl Table1TunnelWrite {
    /// Runs the four writing schemes over the same bursty packet schedule.
    pub fn run(seed: u64, packets: usize) -> Self {
        let cost = CostModel::android_phone();
        // The packet gaps mix sub-millisecond trains (data bursts) with idle
        // gaps, like the mixed relay workload of §3.5.1.
        let gaps_us: Vec<u64> = {
            let mut rng = SimRng::seed_from_u64(seed ^ 0xfeed);
            (0..packets)
                .map(|_| {
                    if rng.chance(0.7) {
                        rng.int_inclusive(50, 900)
                    } else {
                        rng.int_inclusive(3_000, 40_000)
                    }
                })
                .collect()
        };
        let run =
            |scheme: WriteScheme, enqueue: EnqueueScheme, contention: f64| -> WriteDelayStats {
                let mut rng = SimRng::seed_from_u64(seed);
                let mut ledger = CpuLedger::new();
                let mut writer = TunWriter::new(scheme, enqueue);
                let mut now = SimTime::from_millis(1);
                for gap in &gaps_us {
                    // With directWrite, a socket-connect thread occasionally wants
                    // the tunnel at the same time as MainWorker.
                    let writers = if rng.chance(contention) { 2 } else { 1 };
                    writer.submit(now, writers, &cost, &mut rng, &mut ledger);
                    now += SimDuration::from_micros(*gap);
                }
                writer.stats().clone()
            };
        // queueWrite: only the dedicated TunWriter writes.
        let queued = run(WriteScheme::Queue, EnqueueScheme::NewPut, 0.0);
        Self {
            // directWrite: MainWorker and connect threads share the tunnel.
            direct: run(WriteScheme::Direct, EnqueueScheme::OldPut, 0.035).write,
            queue: queued.write,
            old_put: run(WriteScheme::Queue, EnqueueScheme::OldPut, 0.0).enqueue,
            new_put: queued.enqueue,
        }
    }

    /// The fraction of samples above 1 ms for each column
    /// (direct, queue, oldPut, newPut).
    pub fn large_fractions(&self) -> [f64; 4] {
        [
            self.direct.fraction_at_or_above(1.0),
            self.queue.fraction_at_or_above(1.0),
            self.old_put.fraction_at_or_above(1.0),
            self.new_put.fraction_at_or_above(1.0),
        ]
    }
}

/// One destination row of Table 2.
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// Destination name ("Google", "Facebook", "Dropbox").
    pub name: String,
    /// Destination address.
    pub dst: Endpoint,
    /// tcpdump reference mean during the MopEye run, in ms.
    pub tcpdump_for_mopeye_ms: f64,
    /// MopEye's mean measured RTT, in ms.
    pub mopeye_ms: f64,
    /// MopEye's deviation from tcpdump.
    pub mopeye_delta_ms: f64,
    /// tcpdump reference mean during the MobiPerf run, in ms.
    pub tcpdump_for_mobiperf_ms: f64,
    /// MobiPerf's mean measured RTT, in ms.
    pub mobiperf_ms: f64,
    /// MobiPerf's deviation from tcpdump.
    pub mobiperf_delta_ms: f64,
}

/// Table 2: RTT measurement accuracy of MopEye and MobiPerf against tcpdump.
#[derive(Debug, Clone)]
pub struct Table2Accuracy {
    /// One row per destination.
    pub rows: Vec<AccuracyRow>,
}

impl Table2Accuracy {
    /// Runs the accuracy experiment: `connects` connections per destination
    /// through the MopEye relay, and the same number of MobiPerf pings.
    pub fn run(seed: u64, connects: usize) -> Self {
        let destinations = [
            ("Google", Endpoint::v4(216, 58, 221, 132, 443)),
            ("Facebook", Endpoint::v4(31, 13, 79, 251, 443)),
            ("Dropbox", Endpoint::v4(108, 160, 166, 126, 443)),
        ];
        let mut rows = Vec::new();
        for (name, dst) in destinations {
            // MopEye run: the app opens `connects` connections to the target.
            let net = SimNetwork::builder().seed(seed).with_table2_destinations().build();
            let mut engine = MopEyeEngine::new(MopEyeConfig::mopeye().with_seed(seed), net);
            let flows: Vec<FlowSpec> = (0..connects)
                .map(|i| FlowSpec {
                    at: SimTime::from_millis(500 * i as u64 + 20),
                    uid: 10_100,
                    package: "com.measurement.app".into(),
                    src: None,
                    dst,
                    domain: None,
                    request_bytes: 200,
                    close_after: 1024,
                    kind: FlowKind::Tcp,
                    network: None,
                    isp: None,
                })
                .collect();
            let report = engine.run_flows(flows);
            let mopeye_rtts: Vec<f64> =
                report.tcp_samples().iter().map(|s| s.measured_ms).collect();
            let tcpdump_rtts: Vec<f64> =
                report.tcp_samples().iter().filter_map(|s| s.tcpdump_ms).collect();
            let mopeye_ms = mean(&mopeye_rtts);
            let tcpdump_for_mopeye_ms = mean(&tcpdump_rtts);
            // MobiPerf run: fresh network, same destination.
            let mut mobi_net =
                SimNetwork::builder().seed(seed ^ 1).with_table2_destinations().build();
            let mut mobiperf = MobiPerf::new(seed ^ 2);
            let ping = mobiperf.ping(&mut mobi_net, dst, connects);
            rows.push(AccuracyRow {
                name: name.to_string(),
                dst,
                tcpdump_for_mopeye_ms,
                mopeye_ms,
                mopeye_delta_ms: (mopeye_ms - tcpdump_for_mopeye_ms).abs(),
                tcpdump_for_mobiperf_ms: ping.mean_tcpdump(),
                mobiperf_ms: ping.mean_measured(),
                mobiperf_delta_ms: ping.delta_ms(),
            });
        }
        Self { rows }
    }

    /// The worst MopEye deviation across destinations.
    pub fn worst_mopeye_delta(&self) -> f64 {
        self.rows.iter().map(|r| r.mopeye_delta_ms).fold(0.0, f64::max)
    }

    /// The best (smallest) MobiPerf deviation across destinations.
    pub fn best_mobiperf_delta(&self) -> f64 {
        self.rows.iter().map(|r| r.mobiperf_delta_ms).fold(f64::INFINITY, f64::min)
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Table 3: download and upload throughput overhead of MopEye and Haystack.
#[derive(Debug, Clone)]
pub struct Table3Throughput {
    /// Throughput with no relay (the Speedtest baseline).
    pub baseline: ThroughputReport,
    /// Throughput through the MopEye relay.
    pub mopeye: ThroughputReport,
    /// Throughput through the Haystack-like relay.
    pub haystack: ThroughputReport,
}

impl Table3Throughput {
    /// Runs the throughput experiment on the dedicated 25 Mbps WiFi network.
    pub fn run(seed: u64, transfer_bytes: usize) -> Self {
        let harness = SpeedTest::new(seed, transfer_bytes);
        Self {
            baseline: harness.baseline(),
            mopeye: harness.with_relay(&MopEyeConfig::mopeye()),
            haystack: harness.with_relay(&MopEyeConfig::haystack_like()),
        }
    }
}

/// Table 4: resource overhead while streaming a 58-minute HD video.
#[derive(Debug, Clone)]
pub struct Table4Resources {
    /// MopEye's CPU utilisation (per cent), battery drain (percentage points)
    /// and peak memory (MiB).
    pub mopeye: ResourceRow,
    /// The same for the Haystack-like configuration.
    pub haystack: ResourceRow,
}

/// One row of Table 4.
#[derive(Debug, Clone, Copy)]
pub struct ResourceRow {
    /// CPU utilisation over the experiment, in per cent.
    pub cpu_percent: f64,
    /// Battery consumed, in percentage points.
    pub battery_percent: f64,
    /// Peak resident buffer memory, in MiB.
    pub memory_mib: f64,
}

impl Table4Resources {
    /// Streams `minutes` of video through each configuration.
    pub fn run(seed: u64, minutes: u64) -> Self {
        let run_one = |config: MopEyeConfig| -> ResourceRow {
            let mut net = SimNetwork::builder().seed(seed).with_table2_destinations().build();
            // A video CDN edge that actually serves 500 KiB segments, so the
            // streaming workload moves HD-scale volumes through the relay.
            net.add_server(
                mop_simnet::ServerConfig::new(
                    "video-cdn",
                    "203.0.113.50".parse().unwrap(),
                    mop_simnet::LatencyModel::lognormal_with(18.0, 0.3, 4.0),
                    mop_simnet::Service::Request {
                        response_bytes: 500 * 1024,
                        processing: mop_simnet::LatencyModel::uniform(2.0, 10.0),
                    },
                )
                .with_domain("youtubei.googleapis.com"),
            );
            let mut engine = MopEyeEngine::new(config, net);
            let workload = Workload::new(
                WorkloadKind::VideoStreaming,
                10_300,
                "com.google.android.youtube",
                vec![(Endpoint::v4(203, 0, 113, 50, 443), "youtubei.googleapis.com".into())],
                SimDuration::from_secs(minutes * 60),
                1,
            );
            let report = engine.run(&[workload]);
            let wall = SimDuration::from_secs(minutes * 60).max(report.finished_at - SimTime::ZERO);
            let bytes = (report.relay.bytes_in + report.relay.bytes_out) as usize;
            ResourceRow {
                cpu_percent: report.ledger.cpu_percent(wall),
                battery_percent: report.ledger.battery_percent(wall, bytes),
                memory_mib: report.ledger.memory_peak_bytes() as f64 / (1024.0 * 1024.0),
            }
        };
        Self {
            mopeye: run_one(MopEyeConfig::mopeye().with_seed(seed)),
            haystack: run_one(MopEyeConfig::haystack_like().with_seed(seed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_lazy_mapping_mitigates_most_parses() {
        let fig5 = Fig5Mapping::run(1);
        assert_eq!(fig5.total_requests, 480);
        assert_eq!(fig5.before_ms.len(), 480);
        assert_eq!(fig5.after_ms.len(), 480);
        // Figure 5(a): the bulk of eager parses cost more than 5 ms.
        let before = fig5.before_cdf();
        assert!(before.fraction_at_or_below(5.0) < 0.4, "eager parses should be slow");
        // Figure 5(b): most lazy requests cost (almost) nothing; the paper
        // reports a 67.8 % mitigation rate.
        let after = fig5.after_cdf();
        assert!(after.fraction_at_or_below(1.0) > 0.5);
        assert!(fig5.mitigation_rate > 0.55, "mitigation {}", fig5.mitigation_rate);
        assert!(fig5.mitigation_rate < 0.95);
        assert!(fig5.lazy_parses < fig5.total_requests / 2);
    }

    #[test]
    fn table1_ordering_matches_the_paper() {
        let t1 = Table1TunnelWrite::run(3, 2_000);
        let [direct, queue, old_put, new_put] = t1.large_fractions();
        // directWrite suffers the most large overheads; queueWrite's writes
        // are mostly sub-millisecond; oldPut pays wait/notify; newPut almost
        // never does (paper: 3.4 %, 0.65 %, 5.8 %, 0.075 %).
        assert!(direct > queue, "direct {direct} vs queue {queue}");
        assert!(old_put > new_put * 5.0, "oldPut {old_put} vs newPut {new_put}");
        assert!(new_put < 0.02, "newPut {new_put}");
        assert!(old_put > 0.01, "oldPut {old_put}");
        assert_eq!(t1.direct.total(), 2_000);
        assert_eq!(t1.new_put.total(), 2_000);
    }

    #[test]
    fn table1_bin_counts_are_pinned_at_the_repro_seed() {
        // The counts `repro` writes to `table1.json`: whatever the writer
        // keeps, it must bin exactly these delays.
        let t1 = Table1TunnelWrite::run(20_170_712, 5_000);
        assert_eq!(t1.direct.counts, [4807, 58, 95, 33, 7]);
        assert_eq!(t1.queue.counts, [4984, 5, 7, 4, 0]);
        assert_eq!(t1.old_put.counts, [4542, 222, 221, 15, 0]);
        assert_eq!(t1.new_put.counts, [5000, 0, 0, 0, 0]);
    }

    #[test]
    fn table2_mopeye_beats_mobiperf_by_an_order_of_magnitude() {
        let t2 = Table2Accuracy::run(5, 6);
        assert_eq!(t2.rows.len(), 3);
        assert!(t2.worst_mopeye_delta() < 1.0, "worst MopEye δ {}", t2.worst_mopeye_delta());
        assert!(t2.best_mobiperf_delta() > 4.0, "best MobiPerf δ {}", t2.best_mobiperf_delta());
        // RTT scales: Google < Facebook < Dropbox.
        assert!(t2.rows[0].tcpdump_for_mopeye_ms < t2.rows[1].tcpdump_for_mopeye_ms);
        assert!(t2.rows[1].tcpdump_for_mopeye_ms < t2.rows[2].tcpdump_for_mopeye_ms);
        assert!(t2.rows[2].tcpdump_for_mopeye_ms > 150.0);
    }

    #[test]
    fn table3_shape_matches_the_paper() {
        let t3 = Table3Throughput::run(7, 6 * 1024 * 1024);
        let (mop_down, mop_up) = t3.mopeye.delta_from(&t3.baseline);
        let (hay_down, hay_up) = t3.haystack.delta_from(&t3.baseline);
        assert!(mop_down < 1.5 && mop_up < 1.5, "MopEye deltas {mop_down}/{mop_up}");
        assert!(hay_down > mop_down, "Haystack download should be worse");
        assert!(hay_up > 10.0, "Haystack upload delta {hay_up}");
    }

    #[test]
    fn table4_haystack_uses_more_of_everything() {
        // Three virtual minutes keep the test quick; the repro binary uses 58.
        let t4 = Table4Resources::run(11, 3);
        assert!(
            t4.mopeye.cpu_percent < t4.haystack.cpu_percent,
            "cpu {} vs {}",
            t4.mopeye.cpu_percent,
            t4.haystack.cpu_percent
        );
        assert!(t4.mopeye.memory_mib < t4.haystack.memory_mib / 5.0);
        assert!(t4.mopeye.battery_percent <= t4.haystack.battery_percent);
        assert!(t4.mopeye.cpu_percent > 0.0);
        assert!(t4.mopeye.memory_mib > 1.0);
    }
}
