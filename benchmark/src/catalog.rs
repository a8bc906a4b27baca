//! The metric catalogue: every name the driver sees, with its unit,
//! direction, clock and (for end-to-end metrics) regression bound.
//!
//! `BENCHMARK.json` at the repo root carries the same lists; a unit test
//! holds the two together. Every workload reports every metric listed here
//! — the driver requires it — so a metric's definition is per workload where
//! the workloads' surfaces differ (README.md has the table).

use crate::workloads::Workload;

/// Which clock a figure was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host cost: noisy, bounded, compared within a band.
    Wall,
    /// Virtual-time result or exact count: repeats bit for bit at a fixed
    /// seed, so any drift means simulated behaviour changed.
    Modelled,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Modelled => "modelled",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogue entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
    /// Share of the parent's median by which the metric may worsen; 0 for
    /// per-layer metrics, which are unbounded.
    pub bound: f64,
}

/// One catalogue metric as measured by a run.
#[derive(Debug, Clone)]
pub struct Measured {
    pub spec: &'static MetricSpec,
    pub value: f64,
    /// Samples (or units) behind the value.
    pub n: usize,
    /// Qualifier for the table, e.g. which percentile a tail is.
    pub note: Option<String>,
}

const fn wall(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        clock: Clock::Wall,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    wall(name, unit, better, 0.0)
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        clock: Clock::Modelled,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. The bounds are wide because the 2-core
/// reference host is a shared VM whose speed drifts by tens of percent over
/// minutes (README.md, "Noise"): ten-seed spreads measured there run from
/// 3 % to 13 % in ordinary periods and approach these bounds in bad ones.
/// `setup_s` has the largest, as the driver's contract asks.
pub const END_TO_END: [MetricSpec; 10] = [
    wall("setup_s", "s", Lower, 0.25),
    wall("flows_per_s", "flows/s", Higher, 0.24),
    wall("pkts_per_s", "pkts/s", Higher, 0.24),
    wall("peak_rss_mb", "MB", Lower, 0.20),
    wall("step_ms_p50", "ms", Lower, 0.24),
    wall("step_ms_tail", "ms", Lower, 0.24),
    wall("status_us_p50", "us", Lower, 0.24),
    wall("ckpt_save_ms", "ms", Lower, 0.24),
    wall("ckpt_load_ms", "ms", Lower, 0.24),
    wall("report_ms", "ms", Lower, 0.24),
];

/// Single layers, from the traced pass. Layer = crate name.
pub const PER_LAYER: [MetricSpec; 44] = [
    // From the workload's own spans and counts.
    layer("dataset.generate_ns_per_flow", "ns", Lower),
    layer("core.cold_run_s", "s", Lower),
    layer("core.run_ns_per_event", "ns", Lower),
    layer("core.run_ns_per_pkt", "ns", Lower),
    exact("core.events_per_flow", "count", Lower),
    exact("core.pkts_per_flow", "count", Lower),
    exact("tun.bytes_per_pkt", "B", Higher),
    layer("core.superlinearity_4x", "ratio", Lower),
    layer("core.shard_scaling_2v1", "ratio", Higher),
    exact("core.shard_imbalance", "ratio", Lower),
    layer("core.allocs_per_pkt", "count", Lower),
    layer("core.alloc_bytes_per_flow", "B", Lower),
    layer("core.digest_ms", "ms", Lower),
    layer("core.ckpt_serialise_ms", "ms", Lower),
    layer("core.ckpt_write_ms", "ms", Lower),
    layer("core.ckpt_parse_ms", "ms", Lower),
    exact("core.ckpt_bytes", "B", Lower),
    layer("json.to_string_mb_per_s", "MB/s", Higher),
    layer("json.from_str_mb_per_s", "MB/s", Higher),
    layer("analytics.crowd_render_ms", "ms", Lower),
    exact("modelled.relay_mbps", "Mbps", Higher),
    exact("modelled.virtual_finish_s", "s", Lower),
    exact("modelled.flows_completed_share", "ratio", Higher),
    layer("trace.overhead_share", "ratio", Lower),
    // The probe ladder: fixed inputs through inner layers' public functions.
    layer("json.frame_roundtrip_ns", "ns", Lower),
    layer("packet.view_parse_syn_ns", "ns", Lower),
    layer("packet.view_parse_data_ns", "ns", Lower),
    layer("packet.encode_data_ns", "ns", Lower),
    layer("tcpstack.handshake_ns", "ns", Lower),
    layer("tcpstack.segment_64k_ns", "ns", Lower),
    layer("tcpstack.recovery_ack_ns", "ns", Lower),
    layer("simnet.wheel_hold_ns", "ns", Lower),
    layer("simnet.wheel_cancel_ns", "ns", Lower),
    layer("simnet.tap_rtt_ns_1k", "ns", Lower),
    layer("simnet.tap_rtt_ns_16k", "ns", Lower),
    layer("procnet.lazy_map_ns_1k", "ns", Lower),
    layer("procnet.lazy_map_ns_16k", "ns", Lower),
    layer("simnet.spsc_msg_ns", "ns", Lower),
    layer("measure.observe_ns", "ns", Lower),
    layer("measure.window_observe_ns", "ns", Lower),
    layer("measure.merge_ns_per_cell", "ns", Lower),
    layer("server.handle_line_us", "us", Lower),
    layer("server.transport_us", "us", Lower),
    layer("server.inject_ms", "ms", Lower),
];

/// The end-to-end entry called `name`.
///
/// # Panics
///
/// If the catalogue has no such metric — a typo in this crate.
pub fn end_to_end(name: &str) -> &'static MetricSpec {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .expect("metric is in the end-to-end catalogue")
}

/// Why each workload exists, in one line (also `BENCHMARK.json`'s `why`).
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::RushHour => {
            "500-user rush hour, warm reps on a resident fleet: population-bound, the superlinear \
             connect/DNS paths are two thirds of the wall clock"
        }
        Workload::BulkLossy => {
            "1000 bulk downloads over lossy 3G then LTE: per-packet-bound (codec, relay, \
             SACK/RTO recovery), few connects, so a connect-path fix should not move it"
        }
        Workload::ServeSteps => {
            "closed loop, one client stepping mop_server over a Unix socket while state grows: \
             fixed step overhead, JSON framing, absorb and digesting dominate"
        }
        Workload::DayCkpt => {
            "300-user day checkpointed at noon, saved, loaded and resumed: windowed sketches, the \
             checkpoint codec both ways, analytics rendering"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mop_json::Value;

    fn names(specs: &[MetricSpec]) -> Vec<&'static str> {
        specs.iter().map(|m| m.name).collect()
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut all = names(&END_TO_END);
        all.extend(names(&PER_LAYER));
        all.extend(Workload::ALL.iter().map(|w| w.name()));
        let mut seen = std::collections::BTreeSet::new();
        for name in all {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = end_to_end("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        for w in Workload::ALL {
            assert!(why(w).len() <= 200 && !why(w).contains('\n'));
        }
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc[key]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap().to_string(),
                    m["unit"].as_str().unwrap().to_string(),
                    m["better"].as_str().unwrap().to_string(),
                    m["bound"].as_f64(),
                )
            })
            .collect()
    }

    /// `BENCHMARK.json` is what the driver reads; the catalogue is what the
    /// binaries emit. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = mop_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let expect = |specs: &[MetricSpec], bounded: bool| -> Vec<_> {
            specs
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.label().to_string(),
                        bounded.then_some(m.bound),
                    )
                })
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), expect(&END_TO_END, true));
        assert_eq!(listed(&doc, "per_layer"), expect(&PER_LAYER, false));
        let workloads: Vec<(&str, &str)> = doc["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| (w["name"].as_str().unwrap(), w["why"].as_str().unwrap()))
            .collect();
        let ours: Vec<(&str, &str)> = Workload::ALL.iter().map(|&w| (w.name(), why(w))).collect();
        assert_eq!(workloads, ours);
        assert_eq!(doc["paths"][0].as_str(), Some("benchmark"));
    }
}
