//! The measurement sink stage: where finished measurements fold into the
//! report.
//!
//! Every RTT sample produced by the relay lands here the moment it
//! completes: it is folded into the streaming sketch aggregates (constant
//! memory) and, unless the run opted out, retained in the raw vector. The
//! aggregation labels come from the sample's connection record.

use std::net::IpAddr;

use mop_measure::{AggregateStore, MeasurementKind, NetKind, WindowedAggregateStore};

use super::EngineShared;
use crate::conn::FlowId;
use crate::stats::{RttSample, SampleKind};

/// The measurement/aggregate fold stage. See the [module docs](self).
#[derive(Debug, Default)]
pub struct SinkStage {
    /// Raw samples (kept only when `retain_samples` says so).
    pub(crate) samples: Vec<RttSample>,
    /// Streaming sketch aggregates, folded per sample.
    pub(crate) aggregates: AggregateStore,
    /// Windowed per-epoch aggregates, created lazily on the first sample of
    /// a run whose config sets an epoch width (`None` otherwise, which keeps
    /// epoch-less reports — and their digests — exactly as before).
    pub(crate) windows: Option<WindowedAggregateStore>,
}

impl SinkStage {
    /// Creates an empty sink.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Resets the sink to its just-constructed state, keeping the sample
    /// allocation. The windowed store goes back to `None`: it is
    /// recreated lazily on the first sample of the next run, exactly as a
    /// fresh sink would.
    pub(crate) fn reset(&mut self) {
        self.samples.clear();
        self.aggregates = AggregateStore::default();
        self.windows = None;
    }

    /// The measurement sink fold: adds a finished sample to the streaming
    /// aggregates (constant memory) and, unless the run opted out, retains
    /// the raw sample too.
    ///
    /// The aggregation labels come from connection `id`'s spec where the
    /// scenario assigned them; otherwise the network kind falls back to the simulated
    /// access profile at measurement time and the ISP label stays empty. The
    /// synthetic "device" is the flow's source address, which fleet
    /// scenarios assign uniquely per simulated user.
    pub(crate) fn record_sample(&mut self, sh: &EngineShared, id: FlowId, sample: RttSample) {
        let kind = match sample.kind {
            SampleKind::Tcp => MeasurementKind::Tcp,
            SampleKind::Dns => MeasurementKind::Dns,
        };
        let meta = sh.conns[id].meta.as_ref();
        let network = meta
            .and_then(|m| m.network)
            .unwrap_or_else(|| net_kind_of(sh.net.access_at(sample.at).network_type));
        let isp = meta.and_then(|m| m.isp.as_deref()).unwrap_or("");
        self.aggregates.observe_parts(
            kind,
            network,
            sample.package.as_deref().unwrap_or(""),
            sample.domain.as_deref().unwrap_or(""),
            isp,
            device_of(sample.flow.src.addr),
            "",
            sample.measured_ms,
        );
        if let Some(width) = sh.config.epoch_width {
            let windows = self.windows.get_or_insert_with(|| {
                WindowedAggregateStore::new(width.as_nanos().max(1), sh.config.epoch_window)
            });
            windows.observe_parts(
                sample.at.as_nanos(),
                kind,
                network,
                sample.package.as_deref().unwrap_or(""),
                sample.domain.as_deref().unwrap_or(""),
                isp,
                device_of(sample.flow.src.addr),
                "",
                sample.measured_ms,
            );
        }
        if sh.config.retain_samples {
            self.samples.push(sample);
        }
    }
}

/// Maps the simulator's access-network technology onto the measurement
/// schema's independent [`NetKind`] (the two enums are deliberately distinct:
/// records could come from a real deployment).
fn net_kind_of(network_type: mop_simnet::NetworkType) -> NetKind {
    match network_type {
        mop_simnet::NetworkType::Wifi => NetKind::Wifi,
        mop_simnet::NetworkType::Lte => NetKind::Lte,
        mop_simnet::NetworkType::Umts3g => NetKind::Umts3g,
    }
}

/// The synthetic device identifier of a flow: its source address folded to a
/// `u32`. Fleet scenarios assign each simulated user a unique source address,
/// so this is a stable per-user id; the single-device engine maps everything
/// to the one handset address.
fn device_of(addr: IpAddr) -> u32 {
    match addr {
        IpAddr::V4(v4) => u32::from(v4),
        IpAddr::V6(v6) => v6
            .octets()
            .chunks_exact(4)
            .fold(0u32, |acc, c| acc.rotate_left(9) ^ u32::from_be_bytes([c[0], c[1], c[2], c[3]])),
    }
}
