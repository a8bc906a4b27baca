//! Packet-retrieval strategies for the VPN tunnel (§3.1).
//!
//! The Android VPN programming paradigm reads the TUN descriptor in a loop
//! with a sleep between reads, trading CPU for retrieval delay. The paper
//! compares four approaches:
//!
//! * **ToyVpn** — a fixed 100 ms sleep before each read,
//! * **PrivacyGuard** — a fixed 20 ms sleep,
//! * **Haystack** — an "intelligent" adaptive sleep that shrinks while
//!   packets keep arriving and grows when the tunnel is idle,
//! * **MopEye** — the descriptor is switched to blocking mode and read from a
//!   dedicated thread, so a packet is retrieved the moment it arrives and no
//!   CPU is spent polling an idle tunnel.
//!
//! [`ReaderSim`] reproduces the retrieval delay and polling CPU cost of each
//! strategy on a per-packet basis.

use mop_simnet::{CostModel, SimDuration, SimRng, SimTime};

/// How the TunReader retrieves packets from the tunnel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReadStrategy {
    /// Sleep a fixed period between reads (ToyVpn uses 100 ms, PrivacyGuard
    /// 20 ms).
    FixedSleep {
        /// The sleep period.
        period: SimDuration,
    },
    /// Adaptive sleep: start at `min` after activity, double towards `max`
    /// while idle (the Haystack approach).
    AdaptiveSleep {
        /// Sleep used right after packet activity.
        min: SimDuration,
        /// Maximum sleep reached when the tunnel stays idle.
        max: SimDuration,
    },
    /// Blocking read in a dedicated thread (MopEye, §3.1).
    Blocking,
}

impl ReadStrategy {
    /// The ToyVpn configuration from the Android SDK sample (100 ms sleep).
    pub fn toyvpn() -> Self {
        ReadStrategy::FixedSleep { period: SimDuration::from_millis(100) }
    }

    /// The PrivacyGuard configuration (20 ms sleep).
    #[cfg(test)]
    pub(crate) fn privacyguard() -> Self {
        ReadStrategy::FixedSleep { period: SimDuration::from_millis(20) }
    }

    /// The Haystack-style adaptive configuration (1–100 ms).
    pub fn haystack() -> Self {
        ReadStrategy::AdaptiveSleep {
            min: SimDuration::from_millis(1),
            max: SimDuration::from_millis(100),
        }
    }

    /// MopEye's blocking read.
    pub fn mopeye() -> Self {
        ReadStrategy::Blocking
    }
}

/// The outcome of retrieving one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetrievalOutcome {
    /// When the reader actually obtained the packet.
    pub retrieved_at: SimTime,
    /// Retrieval delay relative to the packet's arrival in the tunnel.
    pub delay: SimDuration,
    /// CPU time burned by polling (empty reads) since the previous packet.
    pub polling_cpu: SimDuration,
    /// Number of empty reads performed since the previous packet.
    pub empty_reads: u64,
}

/// Simulates a TunReader running one [`ReadStrategy`].
#[derive(Debug)]
pub struct ReaderSim {
    strategy: ReadStrategy,
    /// The next instant the polling loop will perform a read.
    next_poll_at: SimTime,
    /// Current adaptive sleep value.
    current_sleep: SimDuration,
    /// Totals.
    total_polling_cpu: SimDuration,
    total_empty_reads: u64,
    packets_retrieved: u64,
    total_delay: SimDuration,
}

impl ReaderSim {
    /// Creates a reader using `strategy`, starting its poll loop at time zero.
    pub fn new(strategy: ReadStrategy) -> Self {
        let current_sleep = match strategy {
            ReadStrategy::FixedSleep { period } => period,
            ReadStrategy::AdaptiveSleep { min, .. } => min,
            ReadStrategy::Blocking => SimDuration::ZERO,
        };
        Self {
            strategy,
            next_poll_at: SimTime::ZERO,
            current_sleep,
            total_polling_cpu: SimDuration::ZERO,
            total_empty_reads: 0,
            packets_retrieved: 0,
            total_delay: SimDuration::ZERO,
        }
    }

    /// Resets the reader to its just-constructed state for the same strategy
    /// — poll loop back at time zero, accounting cleared.
    pub fn reset(&mut self) {
        *self = Self::new(self.strategy);
    }

    /// Simulates the retrieval of a packet that arrived in the tunnel at
    /// `arrival`.
    ///
    /// For polling strategies, the empty reads performed between the previous
    /// packet and this arrival are charged as CPU; the packet is retrieved at
    /// the first poll tick at or after its arrival. For the blocking
    /// strategy, retrieval happens immediately after the read system call.
    pub fn retrieve(
        &mut self,
        arrival: SimTime,
        cost_model: &CostModel,
        rng: &mut SimRng,
    ) -> RetrievalOutcome {
        let read_cost = || SimDuration::from_millis_f64(cost_model.tun_read.nominal_ms());
        let outcome = match self.strategy {
            ReadStrategy::Blocking => {
                let cpu = cost_model.tun_read.sample(rng);
                let retrieved_at = arrival + cpu;
                RetrievalOutcome {
                    retrieved_at,
                    delay: retrieved_at - arrival,
                    polling_cpu: SimDuration::ZERO,
                    empty_reads: 0,
                }
            }
            ReadStrategy::FixedSleep { period } => {
                let (retrieved_at, empty_reads) = self.poll_until(arrival, period, period);
                let polling_cpu = read_cost().saturating_mul(empty_reads);
                RetrievalOutcome {
                    retrieved_at,
                    delay: retrieved_at - arrival,
                    polling_cpu,
                    empty_reads,
                }
            }
            ReadStrategy::AdaptiveSleep { min, max } => {
                let (retrieved_at, empty_reads) = self.poll_adaptive(arrival, min, max);
                let polling_cpu = read_cost().saturating_mul(empty_reads);
                RetrievalOutcome {
                    retrieved_at,
                    delay: retrieved_at - arrival,
                    polling_cpu,
                    empty_reads,
                }
            }
        };
        self.total_polling_cpu += outcome.polling_cpu;
        self.total_empty_reads += outcome.empty_reads;
        self.packets_retrieved += 1;
        self.total_delay += outcome.delay;
        outcome
    }

    /// Fixed-period polling: count the empty polls between the previous
    /// position of the loop and the packet's arrival, then retrieve at the
    /// first tick at or after arrival.
    fn poll_until(
        &mut self,
        arrival: SimTime,
        period: SimDuration,
        reset_to: SimDuration,
    ) -> (SimTime, u64) {
        let mut empty = 0u64;
        let mut tick = self.next_poll_at;
        while tick < arrival {
            empty += 1;
            tick += period;
        }
        // The read at `tick` finds the packet.
        self.next_poll_at = tick + reset_to;
        self.current_sleep = reset_to;
        (tick, empty)
    }

    /// Adaptive polling: each empty read doubles the sleep (up to `max`);
    /// finding a packet resets the sleep to `min`.
    fn poll_adaptive(
        &mut self,
        arrival: SimTime,
        min: SimDuration,
        max: SimDuration,
    ) -> (SimTime, u64) {
        let mut empty = 0u64;
        let mut tick = self.next_poll_at;
        let mut sleep = self.current_sleep.max(min);
        while tick < arrival {
            empty += 1;
            tick += sleep;
            sleep = SimDuration::from_nanos((sleep.as_nanos() * 2).min(max.as_nanos()));
        }
        self.current_sleep = min;
        self.next_poll_at = tick + min;
        (tick, empty)
    }

    /// Total CPU spent on empty polls.
    #[cfg(test)]
    pub(crate) fn total_polling_cpu(&self) -> SimDuration {
        self.total_polling_cpu
    }

    /// Total empty reads performed.
    #[cfg(test)]
    pub(crate) fn total_empty_reads(&self) -> u64 {
        self.total_empty_reads
    }

    /// Mean retrieval delay over all packets retrieved so far.
    #[cfg(test)]
    pub(crate) fn mean_delay(&self) -> SimDuration {
        if self.packets_retrieved == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos(self.total_delay.as_nanos() / self.packets_retrieved)
    }

    /// Packets retrieved so far.
    #[cfg(test)]
    pub(crate) fn packets_retrieved(&self) -> u64 {
        self.packets_retrieved
    }

    /// CPU charged for polling an idle tunnel over `idle` time with no
    /// packets at all (used for the Table 4 resource accounting, where
    /// Haystack keeps executing reads regardless of traffic).
    #[cfg(test)]
    pub(crate) fn idle_polling_cpu(
        &self,
        idle: SimDuration,
        cost_model: &CostModel,
    ) -> SimDuration {
        let period = match self.strategy {
            ReadStrategy::Blocking => return SimDuration::ZERO,
            ReadStrategy::FixedSleep { period } => period,
            ReadStrategy::AdaptiveSleep { max, .. } => max,
        };
        if period == SimDuration::ZERO {
            return SimDuration::ZERO;
        }
        let polls = idle.as_nanos() / period.as_nanos().max(1);
        SimDuration::from_millis_f64(cost_model.tun_read.nominal_ms() * polls as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (CostModel, SimRng) {
        (CostModel::android_phone(), SimRng::seed_from_u64(3))
    }

    #[test]
    fn blocking_reader_has_negligible_delay_and_no_polling() {
        let (cost, mut rng) = setup();
        let mut reader = ReaderSim::new(ReadStrategy::mopeye());
        for i in 0..100u64 {
            let arrival = SimTime::from_millis(10 * i + 3);
            let outcome = reader.retrieve(arrival, &cost, &mut rng);
            assert!(outcome.delay < SimDuration::from_millis(1));
            assert_eq!(outcome.empty_reads, 0);
        }
        assert_eq!(reader.total_polling_cpu(), SimDuration::ZERO);
        assert!(reader.mean_delay() < SimDuration::from_millis(1));
        assert_eq!(reader.packets_retrieved(), 100);
    }

    #[test]
    fn toyvpn_reader_delays_packets_up_to_its_period() {
        let (cost, mut rng) = setup();
        let mut reader = ReaderSim::new(ReadStrategy::toyvpn());
        let mut delays = Vec::new();
        for i in 0..200u64 {
            // Packets arrive at irregular times.
            let arrival = SimTime::from_millis(137 * i + 13);
            let outcome = reader.retrieve(arrival, &cost, &mut rng);
            delays.push(outcome.delay.as_millis_f64());
            assert!(outcome.delay <= SimDuration::from_millis(100));
        }
        let mean = delays.iter().sum::<f64>() / delays.len() as f64;
        // Mean delay of a 100 ms poll against uncorrelated arrivals is ~50 ms.
        assert!(mean > 20.0, "mean {mean}");
        assert!(mean < 90.0, "mean {mean}");
    }

    #[test]
    fn privacyguard_has_lower_delay_than_toyvpn_but_more_polls() {
        let (cost, mut rng) = setup();
        let mut toy = ReaderSim::new(ReadStrategy::toyvpn());
        let mut pg = ReaderSim::new(ReadStrategy::privacyguard());
        for i in 0..200u64 {
            let arrival = SimTime::from_millis(311 * i + 7);
            toy.retrieve(arrival, &cost, &mut rng);
            pg.retrieve(arrival, &cost, &mut rng);
        }
        assert!(pg.mean_delay() < toy.mean_delay());
        assert!(pg.total_empty_reads() > toy.total_empty_reads());
    }

    #[test]
    fn adaptive_reader_is_fast_during_bursts_and_cheap_when_idle() {
        let (cost, mut rng) = setup();
        let mut reader = ReaderSim::new(ReadStrategy::haystack());
        // A burst of closely spaced packets: delays stay small because the
        // sleep resets to the minimum after every retrieval.
        let mut burst_delays = Vec::new();
        for i in 0..50u64 {
            let arrival = SimTime::from_millis(1000 + i * 2);
            burst_delays.push(reader.retrieve(arrival, &cost, &mut rng).delay.as_millis_f64());
        }
        let burst_mean = burst_delays.iter().sum::<f64>() / burst_delays.len() as f64;
        assert!(burst_mean < 10.0, "burst mean {burst_mean}");
        // After a long idle gap the sleep has grown, so the next packet waits
        // longer than packets inside the burst did.
        let outcome = reader.retrieve(SimTime::from_secs(30), &cost, &mut rng);
        assert!(outcome.delay.as_millis_f64() <= 100.0);
        assert!(outcome.empty_reads > 10);
    }

    #[test]
    fn idle_polling_cpu_is_zero_only_for_blocking() {
        let (cost, _) = setup();
        let idle = SimDuration::from_secs(3480); // The 58-minute video of Table 4.
        let blocking = ReaderSim::new(ReadStrategy::mopeye());
        assert_eq!(blocking.idle_polling_cpu(idle, &cost), SimDuration::ZERO);
        let pg = ReaderSim::new(ReadStrategy::privacyguard());
        assert!(pg.idle_polling_cpu(idle, &cost) > SimDuration::ZERO);
        let hay = ReaderSim::new(ReadStrategy::haystack());
        assert!(hay.idle_polling_cpu(idle, &cost) > SimDuration::ZERO);
    }

    #[test]
    fn mean_delay_of_fresh_reader_is_zero() {
        let reader = ReaderSim::new(ReadStrategy::mopeye());
        assert_eq!(reader.mean_delay(), SimDuration::ZERO);
    }
}
