//! Loss recovery for the relayed data path: RFC 6298 retransmission timing,
//! dup-ACK / SACK-driven fast retransmit, and pluggable congestion control.
//!
//! The §3.4 relay normally sends server data towards the app without waiting
//! for ACKs, because the tunnel is a loss-free in-memory link. When the
//! simulated access network injects data-path faults (drop / reorder /
//! duplicate), that assumption breaks and the relay must behave like a real
//! sender: keep the in-flight segments, estimate the path RTT (RFC 6298),
//! retransmit on three duplicate ACKs or on an RTO, and take SACK blocks
//! (RFC 2018) into account so only the actual holes are resent.
//!
//! [`RecoveryState`] is that sender-side machinery for one connection. The
//! engine creates it **only** for flows that can experience faults; on clean
//! networks no state exists, no randomness is drawn and no timers are armed,
//! which keeps fault-free runs bit-identical to builds without recovery.
//!
//! Congestion control is deliberately narrow in scope: the relay's normal
//! transmission stays unpaced (the paper's no-flow-control tunnel), and the
//! congestion window only paces *recovery* — the spacing of retransmitted
//! segments is `srtt / cwnd`, so [`Reno`]'s halving and [`Cubic`]'s
//! 0.7-factor-plus-cubic-growth produce measurably different loss recovery
//! without touching the fault-free fast path.
//!
//! Like the rest of this crate, nothing here depends on the simulator:
//! times are plain nanosecond counts and the engine owns the actual timers
//! (via [`crate::timer::ConnTimers`] tokens).
//!
//! # The scoreboard holds lengths
//!
//! A TCP payload is its length (see [`mop_packet::tcp`]), so the scoreboard
//! keeps `(seq, len)` for every in-flight segment and a [`Retransmit`] names
//! the same pair: [`TcpStateMachine::retransmit_data`] rebuilds the segment
//! from it byte for byte. Registering a sent segment, acknowledging it and
//! resending it copy no payload; the only heap the scoreboard touches is its
//! own ring of in-flight entries and the reaction's resend list.
//!
//! [`TcpStateMachine::retransmit_data`]: crate::machine::TcpStateMachine::retransmit_data

use std::collections::VecDeque;

use mop_packet::{PayloadLen, SackBlocks};

/// Number of duplicate ACKs that triggers a fast retransmit.
pub const DUP_ACK_THRESHOLD: u32 = 3;

/// `ack` acknowledges everything strictly before `seq`? (Wrapping compare:
/// true iff `a` is at or before `b` in sequence space.)
fn seq_le(a: u32, b: u32) -> bool {
    b.wrapping_sub(a) < 0x8000_0000
}

/// True iff `a` is strictly before `b` in sequence space.
fn seq_lt(a: u32, b: u32) -> bool {
    a != b && seq_le(a, b)
}

/// RFC 6298 round-trip estimator: SRTT / RTTVAR smoothing plus the
/// exponential backoff applied while retransmissions are outstanding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RttEstimator {
    srtt_ns: f64,
    rttvar_ns: f64,
    rto_ns: u64,
    /// Exponential-backoff multiplier applied after each RTO fire; reset by
    /// the next valid RTT sample (Karn's algorithm restarts the estimate).
    backoff: u32,
    seeded: bool,
}

/// RFC 6298 lower bound on the retransmission timeout.
pub const MIN_RTO_NS: u64 = 1_000_000_000;
/// RFC 6298 upper bound on the retransmission timeout.
pub const MAX_RTO_NS: u64 = 60_000_000_000;

impl RttEstimator {
    /// An unseeded estimator using the RFC 6298 initial RTO of 1 s.
    pub(crate) fn new() -> Self {
        Self { srtt_ns: 0.0, rttvar_ns: 0.0, rto_ns: MIN_RTO_NS, backoff: 0, seeded: false }
    }

    /// Feeds one RTT measurement (RFC 6298 §2): the first sample initialises
    /// `SRTT = R`, `RTTVAR = R/2`; later samples apply the 1/8 and 1/4
    /// smoothing gains. Any valid sample also resets the backoff.
    pub(crate) fn sample(&mut self, rtt_ns: u64) {
        let r = rtt_ns as f64;
        if !self.seeded {
            self.srtt_ns = r;
            self.rttvar_ns = r / 2.0;
            self.seeded = true;
        } else {
            self.rttvar_ns = 0.75 * self.rttvar_ns + 0.25 * (self.srtt_ns - r).abs();
            self.srtt_ns = 0.875 * self.srtt_ns + 0.125 * r;
        }
        self.backoff = 0;
        self.rto_ns = ((self.srtt_ns + (4.0 * self.rttvar_ns).max(1.0)) as u64)
            .clamp(MIN_RTO_NS, MAX_RTO_NS);
    }

    /// The current retransmission timeout, including backoff.
    pub(crate) fn rto_ns(&self) -> u64 {
        self.rto_ns.saturating_mul(1u64 << self.backoff.min(6)).min(MAX_RTO_NS)
    }

    /// Doubles the RTO (RFC 6298 §5.5), called when the timer fires.
    pub(crate) fn back_off(&mut self) {
        self.backoff = self.backoff.saturating_add(1);
    }

    /// The smoothed RTT, if at least one sample has been fed.
    pub(crate) fn srtt_ns(&self) -> Option<u64> {
        self.seeded.then_some(self.srtt_ns as u64)
    }
}

impl Default for RttEstimator {
    fn default() -> Self {
        Self::new()
    }
}

/// Sender-side congestion control, consulted only on the recovery path.
pub trait CongestionControl {
    /// Algorithm name, for reports.
    fn name(&self) -> &'static str;
    /// Current congestion window in segments (≥ 1).
    fn cwnd(&self) -> u32;
    /// `n` segments left the network acknowledged in order.
    fn on_ack(&mut self, n: u32, now_ns: u64);
    /// A fast retransmit fired (triple duplicate ACK).
    fn on_fast_retransmit(&mut self, now_ns: u64);
    /// The retransmission timer fired.
    fn on_rto(&mut self, now_ns: u64);
}

/// TCP Reno: slow start, additive increase, multiplicative (halving) decrease.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reno {
    cwnd: f64,
    ssthresh: f64,
}

impl Reno {
    /// Starts at the modern initial window of 10 segments.
    pub(crate) fn new() -> Self {
        Self { cwnd: 10.0, ssthresh: f64::from(u16::MAX) }
    }
}

impl Default for Reno {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Reno {
    fn name(&self) -> &'static str {
        "reno"
    }

    fn cwnd(&self) -> u32 {
        (self.cwnd as u32).max(1)
    }

    fn on_ack(&mut self, n: u32, _now_ns: u64) {
        let n = f64::from(n);
        if self.cwnd < self.ssthresh {
            self.cwnd += n;
        } else {
            self.cwnd += n / self.cwnd;
        }
    }

    fn on_fast_retransmit(&mut self, _now_ns: u64) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = self.ssthresh;
    }

    fn on_rto(&mut self, _now_ns: u64) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 1.0;
    }
}

/// CUBIC (RFC 8312, simplified): the window grows as a cubic function of the
/// time since the last congestion event, anchored at the window where the
/// loss happened, with a gentler 0.7 multiplicative decrease than Reno.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cubic {
    cwnd: f64,
    ssthresh: f64,
    w_max: f64,
    k_secs: f64,
    epoch_start_ns: Option<u64>,
}

/// CUBIC scaling constant.
const CUBIC_C: f64 = 0.4;
/// CUBIC multiplicative-decrease factor.
const CUBIC_BETA: f64 = 0.7;

impl Cubic {
    /// Starts at the modern initial window of 10 segments.
    pub(crate) fn new() -> Self {
        Self {
            cwnd: 10.0,
            ssthresh: f64::from(u16::MAX),
            w_max: 10.0,
            k_secs: 0.0,
            epoch_start_ns: None,
        }
    }

    fn enter_congestion(&mut self, factor: f64) {
        self.w_max = self.cwnd;
        self.cwnd = (self.cwnd * factor).max(1.0);
        self.ssthresh = self.cwnd.max(2.0);
        self.k_secs = (self.w_max * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt();
        self.epoch_start_ns = None;
    }
}

impl Default for Cubic {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Cubic {
    fn name(&self) -> &'static str {
        "cubic"
    }

    fn cwnd(&self) -> u32 {
        (self.cwnd as u32).max(1)
    }

    fn on_ack(&mut self, n: u32, now_ns: u64) {
        if self.cwnd < self.ssthresh {
            self.cwnd += f64::from(n);
            return;
        }
        let epoch = *self.epoch_start_ns.get_or_insert(now_ns);
        let t_secs = now_ns.saturating_sub(epoch) as f64 / 1e9;
        let offset = t_secs - self.k_secs;
        let target = self.w_max + CUBIC_C * offset * offset * offset;
        if target > self.cwnd {
            // Step towards the cubic target, at most one segment per ACK.
            self.cwnd += (target - self.cwnd).min(f64::from(n));
        } else {
            // TCP-friendly floor: creep up like Reno does.
            self.cwnd += f64::from(n) * 0.01;
        }
    }

    fn on_fast_retransmit(&mut self, _now_ns: u64) {
        self.enter_congestion(CUBIC_BETA);
    }

    fn on_rto(&mut self, _now_ns: u64) {
        self.enter_congestion(0.0);
        self.cwnd = 1.0;
    }
}

/// Which congestion controller a scenario runs with — plain data so configs
/// can carry it around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CongestionAlgo {
    /// TCP Reno (halving decrease).
    #[default]
    Reno,
    /// CUBIC (cubic growth, 0.7 decrease).
    Cubic,
}

impl CongestionAlgo {
    /// A short label for reports and bench output.
    pub fn label(self) -> &'static str {
        match self {
            CongestionAlgo::Reno => "reno",
            CongestionAlgo::Cubic => "cubic",
        }
    }

    fn build(self) -> Cc {
        match self {
            CongestionAlgo::Reno => Cc::Reno(Reno::new()),
            CongestionAlgo::Cubic => Cc::Cubic(Cubic::new()),
        }
    }
}

/// Enum dispatch over the congestion controllers (no boxing on the datapath).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cc {
    Reno(Reno),
    Cubic(Cubic),
}

impl Cc {
    fn as_dyn_mut(&mut self) -> &mut dyn CongestionControl {
        match self {
            Cc::Reno(r) => r,
            Cc::Cubic(c) => c,
        }
    }

    fn cwnd(&self) -> u32 {
        match self {
            Cc::Reno(r) => r.cwnd(),
            Cc::Cubic(c) => c.cwnd(),
        }
    }
}

/// One data segment the relay has sent towards the app and not yet seen
/// acknowledged.
#[derive(Debug, Clone, PartialEq)]
struct SentSegment {
    seq: u32,
    len: u32,
    sent_at_ns: u64,
    retransmitted: bool,
    sacked: bool,
}

impl SentSegment {
    fn end(&self) -> u32 {
        self.seq.wrapping_add(self.len)
    }
}

/// A segment the relay must resend, with the pacing delay congestion control
/// assigns to it (0 for the first segment of a burst).
#[derive(Debug, Clone, PartialEq)]
pub struct Retransmit {
    /// Sequence number of the lost segment.
    pub seq: u32,
    /// Its payload length, as first transmitted.
    pub len: usize,
    /// Extra delay before this retransmission leaves, from the `srtt / cwnd`
    /// recovery pacing.
    pub delay_ns: u64,
}

/// What one incoming ACK did to the recovery state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AckReaction {
    /// Segments to resend now (fast retransmit and SACK-hole fills).
    pub retransmits: Vec<Retransmit>,
    /// True if this ACK triggered a fast retransmit (third duplicate).
    pub fast_retransmit: bool,
    /// In-flight segments newly covered by this ACK's SACK blocks.
    pub newly_sacked: u32,
    /// True if the ACK advanced `snd_una` (new data acknowledged).
    pub advanced: bool,
    /// True if nothing remains in flight (the RTO timer can be disarmed).
    pub all_acked: bool,
}

/// Sender-side loss recovery for one relayed connection.
#[derive(Debug)]
pub struct RecoveryState {
    estimator: RttEstimator,
    cc: Cc,
    inflight: VecDeque<SentSegment>,
    snd_una: u32,
    dup_acks: u32,
    /// Highest sequence sent when fast recovery began; recovery ends once
    /// `snd_una` passes it.
    recovery_point: Option<u32>,
    retransmits_total: u64,
    fast_retransmits_total: u64,
    rto_fires_total: u64,
    sacked_total: u64,
}

impl RecoveryState {
    /// Creates recovery state for one connection. `connect_rtt_ns` seeds the
    /// RTT estimator from the handshake measurement, when available.
    pub fn new(algo: CongestionAlgo, connect_rtt_ns: Option<u64>) -> Self {
        let mut estimator = RttEstimator::new();
        if let Some(rtt) = connect_rtt_ns {
            estimator.sample(rtt);
        }
        Self {
            estimator,
            cc: algo.build(),
            inflight: VecDeque::new(),
            snd_una: 0,
            dup_acks: 0,
            recovery_point: None,
            retransmits_total: 0,
            fast_retransmits_total: 0,
            rto_fires_total: 0,
            sacked_total: 0,
        }
    }

    /// Records one transmitted data segment by its sequence number and
    /// payload (a byte count, or bytes read only for their length). Returns
    /// true if this was the first segment in flight (the caller should arm
    /// the RTO timer).
    pub fn on_data_sent(&mut self, seq: u32, payload: impl PayloadLen, now_ns: u64) -> bool {
        let was_empty = self.inflight.is_empty();
        if was_empty {
            self.snd_una = seq;
        }
        self.inflight.push_back(SentSegment {
            seq,
            len: payload.payload_len() as u32,
            sent_at_ns: now_ns,
            retransmitted: false,
            sacked: false,
        });
        was_empty
    }

    /// Processes an ACK from the app: advances `snd_una`, applies SACK
    /// blocks, counts duplicates, and decides what (if anything) to resend.
    pub fn on_ack(&mut self, ack: u32, sack: Option<SackBlocks>, now_ns: u64) -> AckReaction {
        let mut reaction = AckReaction::default();
        if self.inflight.is_empty() {
            return reaction;
        }
        // Cumulative ACK: drop fully covered segments, sampling the RTT from
        // the newest one that was never retransmitted (Karn's algorithm).
        let mut newly_acked = 0u32;
        let mut rtt_sample = None;
        while let Some(front) = self.inflight.front() {
            if !seq_le(front.end(), ack) {
                break;
            }
            if !front.retransmitted {
                rtt_sample = Some(now_ns.saturating_sub(front.sent_at_ns));
            }
            newly_acked += 1;
            self.inflight.pop_front();
        }
        if newly_acked > 0 {
            reaction.advanced = true;
            self.snd_una = ack;
            self.dup_acks = 0;
            if let Some(rtt) = rtt_sample {
                self.estimator.sample(rtt);
            }
            self.cc.as_dyn_mut().on_ack(newly_acked, now_ns);
            if let Some(point) = self.recovery_point {
                if seq_le(point, ack) {
                    self.recovery_point = None;
                }
            }
        }
        // SACK blocks: mark received-above-the-hole segments.
        if let Some(blocks) = sack {
            for &(start, end) in blocks.as_slice() {
                for seg in self.inflight.iter_mut() {
                    if !seg.sacked && seq_le(start, seg.seq) && seq_le(seg.end(), end) {
                        seg.sacked = true;
                        reaction.newly_sacked += 1;
                    }
                }
            }
            self.sacked_total += u64::from(reaction.newly_sacked);
        }
        // Duplicate ACK accounting and fast retransmit.
        if !reaction.advanced && ack == self.snd_una && !self.inflight.is_empty() {
            self.dup_acks += 1;
            let entering = self.dup_acks == DUP_ACK_THRESHOLD && self.recovery_point.is_none();
            if entering {
                reaction.fast_retransmit = true;
                self.fast_retransmits_total += 1;
                self.recovery_point = self.inflight.back().map(SentSegment::end);
                self.cc.as_dyn_mut().on_fast_retransmit(now_ns);
                self.queue_hole_retransmits(&mut reaction, 1);
            } else if self.recovery_point.is_some() && reaction.newly_sacked > 0 {
                // Later dup-ACKs with fresh SACK news: fill more holes, as
                // many as the post-decrease window paces out.
                let budget = (self.cc.cwnd() / 2).max(1);
                self.queue_hole_retransmits(&mut reaction, budget as usize);
            }
        }
        reaction.all_acked = self.inflight.is_empty();
        reaction
    }

    /// Queues up to `limit` un-SACKed, not-yet-retransmitted holes for
    /// resend, pacing them `srtt / cwnd` apart.
    fn queue_hole_retransmits(&mut self, reaction: &mut AckReaction, limit: usize) {
        let pace = self.recovery_pace_ns();
        let mut queued = reaction.retransmits.len() as u64;
        for seg in self.inflight.iter_mut() {
            if reaction.retransmits.len() >= limit {
                break;
            }
            if seg.sacked || seg.retransmitted {
                continue;
            }
            if let Some(point) = self.recovery_point {
                if !seq_lt(seg.seq, point) {
                    break;
                }
            }
            seg.retransmitted = true;
            self.retransmits_total += 1;
            reaction.retransmits.push(Retransmit {
                seq: seg.seq,
                len: seg.len as usize,
                delay_ns: pace * queued,
            });
            queued += 1;
        }
    }

    /// The retransmission timer fired: resend the earliest outstanding
    /// segment, back the timer off, and collapse the window.
    pub fn on_rto(&mut self, now_ns: u64) -> Option<Retransmit> {
        let seg = self.inflight.iter_mut().find(|s| !s.sacked)?;
        seg.retransmitted = true;
        let retransmit = Retransmit { seq: seg.seq, len: seg.len as usize, delay_ns: 0 };
        self.rto_fires_total += 1;
        self.retransmits_total += 1;
        self.estimator.back_off();
        self.cc.as_dyn_mut().on_rto(now_ns);
        self.dup_acks = 0;
        self.recovery_point = None;
        Some(retransmit)
    }

    /// The recovery pacing interval: the smoothed RTT spread over the
    /// congestion window. This is where the choice of controller changes the
    /// shape of loss recovery.
    fn recovery_pace_ns(&self) -> u64 {
        let srtt = self.estimator.srtt_ns().unwrap_or(MIN_RTO_NS / 10);
        srtt / u64::from(self.cc.cwnd().max(1))
    }

    /// The current RTO, including exponential backoff.
    pub fn rto_ns(&self) -> u64 {
        self.estimator.rto_ns()
    }

    /// True while unacknowledged segments remain.
    pub fn has_inflight(&self) -> bool {
        !self.inflight.is_empty()
    }

    /// Total segments retransmitted (fast retransmit + RTO paths).
    #[cfg(test)]
    pub(crate) fn retransmits_total(&self) -> u64 {
        self.retransmits_total
    }

    /// Total fast-retransmit events.
    #[cfg(test)]
    pub(crate) fn fast_retransmits_total(&self) -> u64 {
        self.fast_retransmits_total
    }

    /// Total RTO fires.
    #[cfg(test)]
    pub(crate) fn rto_fires_total(&self) -> u64 {
        self.rto_fires_total
    }

    /// Total in-flight segments covered by received SACK blocks.
    #[cfg(test)]
    pub(crate) fn sacked_total(&self) -> u64 {
        self.sacked_total
    }

    /// The congestion controller's name.
    #[cfg(test)]
    pub(crate) fn cc_name(&self) -> &'static str {
        match &self.cc {
            Cc::Reno(_) => "reno",
            Cc::Cubic(_) => "cubic",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn sack(ranges: &[(u32, u32)]) -> Option<SackBlocks> {
        Some(SackBlocks::new(ranges))
    }

    #[test]
    fn estimator_follows_rfc_6298() {
        let mut est = RttEstimator::new();
        assert_eq!(est.rto_ns(), MIN_RTO_NS, "initial RTO is 1 s");
        est.sample(100 * MS);
        // First sample: SRTT = 100 ms, RTTVAR = 50 ms, RTO = 300 ms → clamped
        // to the 1 s floor.
        assert_eq!(est.srtt_ns(), Some(100 * MS));
        assert_eq!(est.rto_ns(), MIN_RTO_NS);
        est.back_off();
        assert_eq!(est.rto_ns(), 2 * MIN_RTO_NS);
        est.back_off();
        assert_eq!(est.rto_ns(), 4 * MIN_RTO_NS);
        // A fresh sample resets the backoff.
        est.sample(120 * MS);
        assert_eq!(est.rto_ns(), MIN_RTO_NS);
        // A huge sample raises the RTO above the floor.
        est.sample(2_000 * MS);
        assert!(est.rto_ns() > MIN_RTO_NS);
        assert!(est.rto_ns() <= MAX_RTO_NS);
    }

    #[test]
    fn in_order_acks_never_retransmit() {
        let mut rs = RecoveryState::new(CongestionAlgo::Reno, Some(50 * MS));
        assert!(rs.on_data_sent(1000, 100, 0), "first segment arms the timer");
        assert!(!rs.on_data_sent(1100, 100, MS));
        let r1 = rs.on_ack(1100, None, 60 * MS);
        assert!(r1.advanced && !r1.all_acked && r1.retransmits.is_empty());
        let r2 = rs.on_ack(1200, None, 61 * MS);
        assert!(r2.advanced && r2.all_acked);
        assert_eq!(rs.retransmits_total(), 0);
        assert!(!rs.has_inflight());
    }

    #[test]
    fn triple_dup_ack_fast_retransmits_the_hole() {
        let mut rs = RecoveryState::new(CongestionAlgo::Reno, Some(50 * MS));
        for i in 0..5u32 {
            rs.on_data_sent(1000 + i * 100, 100, u64::from(i) * MS);
        }
        // Segment 1000..1100 was dropped; the receiver SACKs the rest.
        let mut reaction = AckReaction::default();
        for dup in 1..=3u32 {
            let end = 1100 + dup * 100;
            reaction = rs.on_ack(1000, sack(&[(1100, end)]), (10 + u64::from(dup)) * MS);
        }
        assert!(reaction.fast_retransmit);
        assert_eq!(reaction.retransmits.len(), 1);
        assert_eq!(reaction.retransmits[0].seq, 1000);
        assert_eq!(reaction.retransmits[0].len, 100);
        assert_eq!(rs.fast_retransmits_total(), 1);
        assert!(rs.sacked_total() >= 3);
        // The retransmission arrives; the receiver ACKs everything.
        let done = rs.on_ack(1500, None, 20 * MS);
        assert!(done.advanced && done.all_acked);
    }

    #[test]
    fn rto_resends_earliest_and_backs_off() {
        let mut rs = RecoveryState::new(CongestionAlgo::Reno, Some(50 * MS));
        rs.on_data_sent(500, 40, 0);
        rs.on_data_sent(540, 40, 0);
        let before = rs.rto_ns();
        let r = rs.on_rto(before).expect("something in flight");
        assert_eq!((r.seq, r.len), (500, 40));
        assert_eq!(rs.rto_fires_total(), 1);
        assert!(rs.rto_ns() > before, "RTO doubled");
        // Karn: the retransmitted segment's ACK must not poison the RTT.
        let est_before = rs.rto_ns();
        let reaction = rs.on_ack(540, None, 10_000 * MS);
        assert!(reaction.advanced);
        assert_eq!(rs.rto_ns(), est_before, "no sample from a retransmitted segment");
        // An RTO with everything SACKed resends nothing.
        let mut all_sacked = RecoveryState::new(CongestionAlgo::Reno, None);
        all_sacked.on_data_sent(9000, 10, 0);
        all_sacked.on_ack(9000, sack(&[(9000, 9010)]), MS);
        assert_eq!(all_sacked.on_rto(2 * MS), None);
    }

    #[test]
    fn reno_and_cubic_recover_with_different_windows() {
        let grow = |algo: CongestionAlgo| {
            let mut rs = RecoveryState::new(algo, Some(50 * MS));
            let mut seq = 0u32;
            // Grow the window with clean round trips, then take a loss.
            for round in 0..30u64 {
                rs.on_data_sent(seq, 100, round * 100 * MS);
                seq = seq.wrapping_add(100);
                rs.on_ack(seq, None, round * 100 * MS + 50 * MS);
            }
            rs.on_data_sent(seq, 100, 3_000 * MS);
            for dup in 0..3u64 {
                rs.on_ack(seq, None, (3_010 + dup) * MS);
            }
            rs
        };
        let reno = grow(CongestionAlgo::Reno);
        let cubic = grow(CongestionAlgo::Cubic);
        assert_eq!(reno.cc_name(), "reno");
        assert_eq!(cubic.cc_name(), "cubic");
        assert_eq!(reno.fast_retransmits_total(), 1);
        assert_eq!(cubic.fast_retransmits_total(), 1);
        // Reno halves, CUBIC multiplies by 0.7: the windows differ, so the
        // recovery pacing differs.
        assert_ne!(reno.cc.cwnd(), cubic.cc.cwnd());
        assert!(cubic.cc.cwnd() > reno.cc.cwnd());
    }

    #[test]
    fn cubic_grows_towards_w_max_after_a_loss() {
        let mut cubic = Cubic::new();
        // Leave slow start, then lose.
        cubic.ssthresh = 1.0;
        cubic.cwnd = 100.0;
        cubic.on_fast_retransmit(0);
        let after_loss = cubic.cwnd();
        assert_eq!(after_loss, 70);
        // ACKs over the next simulated seconds climb back towards w_max.
        let mut now = 0u64;
        for _ in 0..2000 {
            now += 10 * MS;
            cubic.on_ack(1, now);
        }
        assert!(cubic.cwnd() > after_loss);
        assert!(cubic.cwnd() >= 95, "cwnd {} should approach w_max 100", cubic.cwnd());
    }

    #[test]
    fn dup_acks_without_sack_news_do_not_spray_retransmits() {
        let mut rs = RecoveryState::new(CongestionAlgo::Reno, Some(10 * MS));
        for i in 0..4u32 {
            rs.on_data_sent(i * 100, 100, 0);
        }
        for _ in 0..3 {
            rs.on_ack(0, sack(&[(100, 400)]), MS);
        }
        assert_eq!(rs.retransmits_total(), 1, "only the hole is resent");
        // A fourth duplicate with no new SACK information resends nothing.
        let quiet = rs.on_ack(0, sack(&[(100, 400)]), 2 * MS);
        assert!(quiet.retransmits.is_empty());
    }
}
