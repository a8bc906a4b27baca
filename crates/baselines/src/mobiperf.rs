//! A MobiPerf-style active HTTP ping.
//!
//! MobiPerf's HTTP ping also derives RTT from the SYN ↔ SYN/ACK exchange, but
//! §4.1.1 identifies three reasons its numbers deviate from tcpdump by
//! 12–79 ms: it times a higher-level call rather than the socket call itself
//! (so queueing and task dispatch are included), it reads a coarse
//! millisecond clock, and the timing functions are not placed immediately
//! around the socket operation. This module reproduces that measurement
//! procedure over the simulated network.

use mop_packet::{Endpoint, FourTuple};
use mop_simnet::{CostModel, FlowNetState, SimDuration, SimNetwork, SimRng, SimTime};

/// The result of one ping run against a destination.
#[derive(Debug, Clone, PartialEq)]
pub struct PingRun {
    /// The destination measured.
    pub dst: Endpoint,
    /// The RTTs MobiPerf reports, in milliseconds (one per connect).
    pub measured_ms: Vec<f64>,
    /// The tcpdump-reference RTTs for the same connects.
    pub tcpdump_ms: Vec<f64>,
}

impl PingRun {
    /// The mean measured RTT.
    pub fn mean_measured(&self) -> f64 {
        mean(&self.measured_ms)
    }

    /// The mean reference RTT.
    pub fn mean_tcpdump(&self) -> f64 {
        mean(&self.tcpdump_ms)
    }

    /// The deviation of the tool from the reference (the δ column of Table 2).
    pub fn delta_ms(&self) -> f64 {
        (self.mean_measured() - self.mean_tcpdump()).abs()
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The MobiPerf-style measurement tool.
#[derive(Debug)]
pub struct MobiPerf {
    cost: CostModel,
    rng: SimRng,
    next_port: u16,
}

impl MobiPerf {
    /// Creates the tool with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Self {
            cost: CostModel::android_phone(),
            rng: SimRng::seed_from_u64(seed),
            next_port: 52_000,
        }
    }

    /// Runs `count` HTTP pings against `dst` (given as a raw IP endpoint, as
    /// the paper does to keep DNS out of the comparison).
    pub fn ping(&mut self, net: &mut SimNetwork, dst: Endpoint, count: usize) -> PingRun {
        let mut measured_ms = Vec::with_capacity(count);
        let mut tcpdump_ms = Vec::with_capacity(count);
        let mut at = SimTime::from_millis(50);
        for _ in 0..count {
            let src = Endpoint::v4(10, 0, 0, 2, self.next_port);
            self.next_port += 1;
            let flow = FourTuple::new(src, dst);
            // MobiPerf's measurement task is dispatched through the Mobilyzer
            // task queue before the socket call happens; the pre-timestamp is
            // taken before that dispatch.
            let pre = self.coarse(at);
            let dispatch_before = self.cost.sample_dispatch_delay(&mut self.rng)
                + SimDuration::from_millis_f64(self.rng.uniform(1.0, 6.0));
            // Every ping is a fresh connection, with fresh network state.
            let state = &mut FlowNetState::default();
            let outcome = net.connect(state, flow, at + dispatch_before);
            // The post-timestamp is taken after the completion callback has
            // worked its way back through the event loop.
            let dispatch_after = self.cost.sample_dispatch_delay(&mut self.rng)
                + SimDuration::from_millis_f64(self.rng.uniform(1.0, 6.0));
            let post = self.coarse(outcome.completed_at + dispatch_after);
            measured_ms.push((post - pre).as_millis_f64());
            if let Some(rtt) = net.tap().handshake_rtt(flow) {
                tcpdump_ms.push(rtt.as_millis_f64());
            }
            at = outcome.completed_at + SimDuration::from_millis(500);
        }
        PingRun { dst, measured_ms, tcpdump_ms }
    }

    fn coarse(&self, t: SimTime) -> SimTime {
        self.cost.coarse_timestamp(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn network() -> SimNetwork {
        SimNetwork::builder().seed(5).with_table2_destinations().build()
    }

    #[test]
    fn mobiperf_overestimates_rtt_by_milliseconds() {
        let mut net = network();
        let mut tool = MobiPerf::new(9);
        let run = tool.ping(&mut net, Endpoint::v4(216, 58, 221, 132, 443), 10);
        assert_eq!(run.measured_ms.len(), 10);
        assert_eq!(run.tcpdump_ms.len(), 10);
        // The paper observes 12–24 ms deviation for Google-scale RTTs; allow a
        // generous band around it, but it must be clearly worse than 1 ms.
        let delta = run.delta_ms();
        assert!(delta > 4.0, "delta {delta}");
        assert!(delta < 60.0, "delta {delta}");
        assert!(run.mean_measured() > run.mean_tcpdump());
    }

    #[test]
    fn deviation_is_absolute_not_relative() {
        let mut net = network();
        let mut tool = MobiPerf::new(9);
        let google = tool.ping(&mut net, Endpoint::v4(216, 58, 221, 132, 443), 8);
        let dropbox = tool.ping(&mut net, Endpoint::v4(108, 160, 166, 126, 443), 8);
        // Dropbox RTTs are two orders of magnitude larger, but the added error
        // stays in the same tens-of-milliseconds band.
        assert!(dropbox.mean_tcpdump() > google.mean_tcpdump() * 5.0);
        assert!(dropbox.delta_ms() < 80.0, "dropbox delta {}", dropbox.delta_ms());
        assert!(dropbox.delta_ms() > 4.0);
    }

    #[test]
    fn empty_run_handles_gracefully() {
        let run =
            PingRun { dst: Endpoint::v4(1, 1, 1, 1, 80), measured_ms: vec![], tcpdump_ms: vec![] };
        assert_eq!(run.mean_measured(), 0.0);
        assert_eq!(run.delta_ms(), 0.0);
    }
}
