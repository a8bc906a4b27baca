//! Helpers for running the relay with Haystack's design choices.
//!
//! Haystack (Razaghpanah et al.) uses the same `VpnService` interception
//! point as MopEye but makes different engineering choices — adaptive-sleep
//! tunnel reads, cache-based app mapping, per-socket `protect()`, and deep
//! content inspection of the relayed traffic. Tables 3 and 4 compare the two
//! systems; these helpers build an engine with Haystack's choices so the
//! comparison runs on identical substrates.

use mop_simnet::SimNetwork;
use mopeye_core::{MopEyeConfig, MopEyeEngine};

/// Builds a relay engine configured like Haystack.
pub fn haystack_engine(net: SimNetwork) -> MopEyeEngine {
    MopEyeEngine::new(MopEyeConfig::haystack_like(), net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mop_packet::Endpoint;
    use mop_simnet::{Component, SimDuration};
    use mop_tun::{Workload, WorkloadKind};

    fn net() -> SimNetwork {
        SimNetwork::builder().seed(8).with_table2_destinations().build()
    }

    fn workload() -> Workload {
        Workload::new(
            WorkloadKind::Messaging,
            10_200,
            "com.whatsapp",
            vec![(Endpoint::v4(31, 13, 79, 251, 443), "graph.facebook.com".into())],
            SimDuration::from_secs(20),
            15,
        )
    }

    #[test]
    fn both_engines_relay_the_same_workload() {
        let mut hay = haystack_engine(net());
        let mut mop = MopEyeEngine::new(MopEyeConfig::mopeye(), net());
        let hay_report = hay.run(&[workload()]);
        let mop_report = mop.run(&[workload()]);
        assert_eq!(hay_report.relay.syns, mop_report.relay.syns);
        assert_eq!(hay_report.relay.connects_ok, mop_report.relay.connects_ok);
        // Haystack's configuration inspects content, so it burns extra CPU.
        assert!(hay_report.ledger.busy_of(Component::Inspection) > SimDuration::ZERO);
        assert_eq!(mop_report.ledger.busy_of(Component::Inspection), SimDuration::ZERO);
        // And it keeps far more buffer memory resident.
        assert!(hay_report.ledger.memory_peak_bytes() > 100 * 1024 * 1024);
        assert!(mop_report.ledger.memory_peak_bytes() < 40 * 1024 * 1024);
    }

    #[test]
    fn configurations_differ_as_documented() {
        assert_ne!(MopEyeConfig::haystack_like(), MopEyeConfig::mopeye());
        let hay = haystack_engine(net());
        assert!(hay.config().content_inspection);
    }
}
