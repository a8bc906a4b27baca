//! Run statistics: RTT samples with ground truth, relay counters and per-flow
//! outcomes.

use mop_json::{FromJson, JsonReader, JsonWrite, ParseError, ToJson};
use mop_packet::FourTuple;
use mop_simnet::SimTime;

/// Whether a sample measured a TCP handshake or a DNS exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleKind {
    /// SYN ↔ SYN/ACK of a relayed TCP connection.
    Tcp,
    /// DNS query ↔ response.
    Dns,
}

/// One RTT measurement taken by the engine, together with the simulator's
/// ground truth so accuracy can be evaluated (Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct RttSample {
    /// TCP or DNS.
    pub kind: SampleKind,
    /// The connection or query flow.
    pub flow: FourTuple,
    /// The UID the engine attributed the flow to, if mapping succeeded.
    pub uid: Option<u32>,
    /// The package name the engine attributed the flow to.
    pub package: Option<String>,
    /// The destination domain, when known (from DNS answers or server config).
    pub domain: Option<String>,
    /// The RTT MopEye measured, in milliseconds.
    pub measured_ms: f64,
    /// The ground-truth path RTT sampled by the simulator, in milliseconds.
    pub true_ms: f64,
    /// The tcpdump-equivalent RTT observed on the wire tap, if available.
    pub tcpdump_ms: Option<f64>,
    /// When the measurement completed.
    pub at: SimTime,
}

impl RttSample {
    /// The absolute error against the wire-tap (tcpdump) reference, the
    /// metric Table 2 reports, falling back to the model ground truth when
    /// the tap is disabled.
    pub fn error_ms(&self) -> f64 {
        (self.measured_ms - self.tcpdump_ms.unwrap_or(self.true_ms)).abs()
    }
}

/// Counters describing what the relay did during a run.
#[derive(Debug, Default, Clone)]
pub struct RelayStats {
    /// TCP SYNs processed (connections attempted by apps).
    pub syns: u64,
    /// Connections whose external connect succeeded.
    pub connects_ok: u64,
    /// Connections whose external connect failed.
    pub connects_failed: u64,
    /// Data segments relayed app → server.
    pub data_segments_out: u64,
    /// Data segments relayed server → app.
    pub data_segments_in: u64,
    /// Pure ACKs discarded (§2.3).
    pub pure_acks_discarded: u64,
    /// FINs processed from apps.
    pub fins: u64,
    /// RSTs processed from apps.
    pub rsts: u64,
    /// UDP datagrams relayed.
    pub udp_datagrams: u64,
    /// DNS queries relayed and measured.
    pub dns_queries: u64,
    /// Bytes relayed app → server.
    pub bytes_out: u64,
    /// Bytes relayed server → app.
    pub bytes_in: u64,
    /// Packets that failed to parse and were dropped.
    pub parse_errors: u64,
    /// Connections reaped by the per-connection idle timer (zero unless the
    /// engine runs with `idle_timeout`; excluded from the fleet digest so
    /// historical digests stay comparable).
    pub idle_reaped: u64,
    /// Data segments retransmitted towards apps (fast retransmit + RTO
    /// paths). Zero unless the simulated network injects data-path faults;
    /// excluded from the fleet digest so historical digests stay comparable.
    pub retransmits: u64,
    /// Fast-retransmit events (third duplicate ACK). Zero on clean networks;
    /// excluded from the fleet digest.
    pub fast_retransmits: u64,
    /// Retransmission-timer fires that actually resent a segment. Zero on
    /// clean networks; excluded from the fleet digest.
    pub rto_fires: u64,
    /// In-flight segments covered by SACK blocks from apps. Zero on clean
    /// networks; excluded from the fleet digest.
    pub sacked_segments: u64,
    /// Always zero: nothing increments it. A worker shard returns one
    /// report per run on a one-slot ring the fleet has already emptied, so
    /// it never waits to send. The field stays because the benchmark reads
    /// it; it is excluded from equality (see the hand-written `PartialEq`)
    /// and from digests.
    pub sink_stalls: u64,
}

impl PartialEq for RelayStats {
    fn eq(&self, other: &Self) -> bool {
        // `sink_stalls` is deliberately excluded: it depends on host thread
        // scheduling, not on what the relay computed. Everything else —
        // including `idle_reaped`, which is deterministic — must match.
        self.syns == other.syns
            && self.connects_ok == other.connects_ok
            && self.connects_failed == other.connects_failed
            && self.data_segments_out == other.data_segments_out
            && self.data_segments_in == other.data_segments_in
            && self.pure_acks_discarded == other.pure_acks_discarded
            && self.fins == other.fins
            && self.rsts == other.rsts
            && self.udp_datagrams == other.udp_datagrams
            && self.dns_queries == other.dns_queries
            && self.bytes_out == other.bytes_out
            && self.bytes_in == other.bytes_in
            && self.parse_errors == other.parse_errors
            && self.idle_reaped == other.idle_reaped
            && self.retransmits == other.retransmits
            && self.fast_retransmits == other.fast_retransmits
            && self.rto_fires == other.rto_fires
            && self.sacked_segments == other.sacked_segments
    }
}

impl RelayStats {
    /// Adds another relay's counters into this one (cross-shard
    /// aggregation). Every field is a sum, so the merge of any partition of
    /// a flow set equals the unpartitioned counters.
    pub(crate) fn merge(&mut self, other: &RelayStats) {
        self.syns += other.syns;
        self.connects_ok += other.connects_ok;
        self.connects_failed += other.connects_failed;
        self.data_segments_out += other.data_segments_out;
        self.data_segments_in += other.data_segments_in;
        self.pure_acks_discarded += other.pure_acks_discarded;
        self.fins += other.fins;
        self.rsts += other.rsts;
        self.udp_datagrams += other.udp_datagrams;
        self.dns_queries += other.dns_queries;
        self.bytes_out += other.bytes_out;
        self.bytes_in += other.bytes_in;
        self.parse_errors += other.parse_errors;
        self.idle_reaped += other.idle_reaped;
        self.retransmits += other.retransmits;
        self.fast_retransmits += other.fast_retransmits;
        self.rto_fires += other.rto_fires;
        self.sacked_segments += other.sacked_segments;
        self.sink_stalls += other.sink_stalls;
    }
}

/// The fate of one app flow at the end of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowOutcome {
    /// The flow.
    pub flow: FourTuple,
    /// The owning app's package name (from the workload, not the mapper).
    pub package: String,
    /// When the app opened the flow.
    pub started_at: SimTime,
    /// When the last byte was delivered to the app (or the flow failed).
    pub finished_at: SimTime,
    /// Response bytes the app received.
    pub bytes_received: usize,
    /// True if the flow completed cleanly (handshake + close, or DNS answer).
    pub completed: bool,
}

// ----- checkpoint encodings -------------------------------------------------
//
// What a checkpoint (and a streamed step delta) carries for each type: the
// simulated state, with times as integer nanoseconds. Host-side
// observations (`RelayStats::sink_stalls`) are not state and restart from
// zero.

/// `"Tcp"` / `"Dns"`.
impl ToJson for SampleKind {
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        out.str(match self {
            SampleKind::Tcp => "Tcp",
            SampleKind::Dns => "Dns",
        });
    }
}

impl FromJson for SampleKind {
    fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
        match &*input.read_str()? {
            "Tcp" => Ok(SampleKind::Tcp),
            "Dns" => Ok(SampleKind::Dns),
            other => Err(input.error(format!("unknown sample kind {other:?}"))),
        }
    }
}

impl ToJson for RttSample {
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        out.begin_object();
        out.field("kind", &self.kind);
        out.field("flow", &self.flow);
        out.field("uid", &self.uid);
        out.field("package", &self.package);
        out.field("domain", &self.domain);
        out.field("measured_ms", &self.measured_ms);
        out.field("true_ms", &self.true_ms);
        out.field("tcpdump_ms", &self.tcpdump_ms);
        out.field("at_ns", &self.at.as_nanos());
        out.end_object();
    }
}

impl FromJson for RttSample {
    fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
        mop_json::read_members!(input, {
            "kind" => kind,
            "flow" => flow,
            "uid" => uid,
            "package" => package,
            "domain" => domain,
            "measured_ms" => measured_ms,
            "true_ms" => true_ms,
            "tcpdump_ms" => tcpdump_ms,
            "at_ns" => at_ns,
        });
        Ok(RttSample {
            kind,
            flow,
            uid,
            package,
            domain,
            measured_ms,
            true_ms,
            tcpdump_ms,
            at: SimTime::from_nanos(at_ns),
        })
    }
}

impl ToJson for FlowOutcome {
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        out.begin_object();
        out.field("flow", &self.flow);
        out.field("package", &self.package);
        out.field("started_at_ns", &self.started_at.as_nanos());
        out.field("finished_at_ns", &self.finished_at.as_nanos());
        out.field("bytes_received", &self.bytes_received);
        out.field("completed", &self.completed);
        out.end_object();
    }
}

impl FromJson for FlowOutcome {
    fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
        mop_json::read_members!(input, {
            "flow" => flow,
            "package" => package,
            "started_at_ns" => started_at_ns,
            "finished_at_ns" => finished_at_ns,
            "bytes_received" => bytes_received,
            "completed" => completed,
        });
        Ok(FlowOutcome {
            flow,
            package,
            started_at: SimTime::from_nanos(started_at_ns),
            finished_at: SimTime::from_nanos(finished_at_ns),
            bytes_received,
            completed,
        })
    }
}

impl ToJson for RelayStats {
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        out.begin_object();
        out.field("syns", &self.syns);
        out.field("connects_ok", &self.connects_ok);
        out.field("connects_failed", &self.connects_failed);
        out.field("data_segments_out", &self.data_segments_out);
        out.field("data_segments_in", &self.data_segments_in);
        out.field("pure_acks_discarded", &self.pure_acks_discarded);
        out.field("fins", &self.fins);
        out.field("rsts", &self.rsts);
        out.field("udp_datagrams", &self.udp_datagrams);
        out.field("dns_queries", &self.dns_queries);
        out.field("bytes_out", &self.bytes_out);
        out.field("bytes_in", &self.bytes_in);
        out.field("parse_errors", &self.parse_errors);
        out.field("idle_reaped", &self.idle_reaped);
        out.field("retransmits", &self.retransmits);
        out.field("fast_retransmits", &self.fast_retransmits);
        out.field("rto_fires", &self.rto_fires);
        out.field("sacked_segments", &self.sacked_segments);
        out.end_object();
    }
}

impl FromJson for RelayStats {
    fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
        mop_json::read_members!(input, {
            "syns" => syns,
            "connects_ok" => connects_ok,
            "connects_failed" => connects_failed,
            "data_segments_out" => data_segments_out,
            "data_segments_in" => data_segments_in,
            "pure_acks_discarded" => pure_acks_discarded,
            "fins" => fins,
            "rsts" => rsts,
            "udp_datagrams" => udp_datagrams,
            "dns_queries" => dns_queries,
            "bytes_out" => bytes_out,
            "bytes_in" => bytes_in,
            "parse_errors" => parse_errors,
            "idle_reaped" => idle_reaped,
            "retransmits" => retransmits,
            "fast_retransmits" => fast_retransmits,
            "rto_fires" => rto_fires,
            "sacked_segments" => sacked_segments,
        });
        Ok(RelayStats {
            syns,
            connects_ok,
            connects_failed,
            data_segments_out,
            data_segments_in,
            pure_acks_discarded,
            fins,
            rsts,
            udp_datagrams,
            dns_queries,
            bytes_out,
            bytes_in,
            parse_errors,
            idle_reaped,
            retransmits,
            fast_retransmits,
            rto_fires,
            sacked_segments,
            sink_stalls: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mop_packet::Endpoint;

    fn flow() -> FourTuple {
        FourTuple::new(Endpoint::v4(10, 0, 0, 2, 1), Endpoint::v4(1, 1, 1, 1, 443))
    }

    #[test]
    fn sample_error_prefers_tcpdump_reference() {
        let mut s = RttSample {
            kind: SampleKind::Tcp,
            flow: flow(),
            uid: Some(10100),
            package: Some("com.app".into()),
            domain: None,
            measured_ms: 37.4,
            true_ms: 36.0,
            tcpdump_ms: Some(37.0),
            at: SimTime::ZERO,
        };
        assert!((s.error_ms() - 0.4).abs() < 1e-9);
        s.tcpdump_ms = None;
        assert!((s.error_ms() - 1.4).abs() < 1e-9);
    }

    #[test]
    fn flow_outcome_goodput() {
        let o = FlowOutcome {
            flow: flow(),
            package: "com.app".into(),
            started_at: SimTime::from_secs(1),
            finished_at: SimTime::from_secs(3),
            bytes_received: 2 * 1024 * 1024,
            completed: true,
        };
        let report = |flows| crate::RunReport { flows, ..crate::RunReport::empty() };
        let mbps = report(vec![o.clone()]).download_goodput_mbps().unwrap();
        assert!((mbps - 8.388_608).abs() < 0.01, "mbps {mbps}");
        let empty = FlowOutcome { bytes_received: 0, ..o };
        assert!(report(vec![empty]).download_goodput_mbps().is_none());
    }

    #[test]
    fn relay_stats_default_is_zeroed() {
        let s = RelayStats::default();
        assert_eq!(s.syns, 0);
        assert_eq!(s.bytes_in + s.bytes_out, 0);
    }
}
