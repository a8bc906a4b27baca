//! Fleet-scale scenario demo: the workload-mix × network-profile matrix on
//! the sharded relay engine, plus a 100k-connection rush-hour run with a
//! determinism check across shard counts.
//!
//! ```console
//! cargo run --release --example fleet_scenarios            # full demo
//! FLEET_USERS=2000 cargo run --release --example fleet_scenarios
//! ```

use mopeye::dataset::{NetProfile, Scenario, TrafficMix};
use mopeye::engine::{FleetConfig, FleetEngine};
use mopeye::simnet::SimDuration;

fn main() {
    // ----- the scenario matrix: every mix on every profile ----------------
    println!("== scenario matrix (200 users each, 4 shards) ==");
    println!(
        "{:<38} {:>7} {:>8} {:>10} {:>10} {:>9}",
        "scenario", "flows", "samples", "tcp p50ms", "dns p50ms", "goodput"
    );
    for mix in TrafficMix::ALL {
        for profile in NetProfile::ALL {
            let scenario = Scenario::single(mix, profile, 200, SimDuration::from_secs(5), 42);
            let fleet = FleetEngine::new(FleetConfig::new(4), scenario.network());
            let report = fleet.run(scenario.generate());
            let tcp: Vec<f64> = report.merged.tcp_samples().iter().map(|s| s.measured_ms).collect();
            let dns: Vec<f64> = report.merged.dns_samples().iter().map(|s| s.measured_ms).collect();
            println!(
                "{:<38} {:>7} {:>8} {:>10} {:>10} {:>9}",
                scenario.spec().name,
                report.merged.flows.len(),
                report.merged.samples.len(),
                median(&tcp).map_or("-".into(), |m| format!("{m:.1}")),
                median(&dns).map_or("-".into(), |m| format!("{m:.1}")),
                report.relay_throughput_mbps().map_or("-".into(), |t| format!("{t:.1}Mb")),
            );
        }
    }

    // ----- the 100k-connection rush hour ----------------------------------
    let users: usize =
        std::env::var("FLEET_USERS").ok().and_then(|v| v.parse().ok()).unwrap_or(13_000);
    let scenario = Scenario::rush_hour(users, 2017);
    let flows = scenario.generate();
    println!();
    println!("== rush hour: {} users, {} connections ==", users, flows.len());
    let mut digests = Vec::new();
    for shards in [2usize, 8] {
        let fleet = FleetEngine::new(FleetConfig::new(shards), scenario.network());
        let started = std::time::Instant::now();
        let report = fleet.run(flows.clone());
        let elapsed = started.elapsed();
        println!(
            "  {shards} shards: digest {:016x}, {} samples, finished at {}, \
             pool reuse {:.2}%, {:.1}s wall",
            report.digest(),
            report.merged.samples.len(),
            report.merged.finished_at,
            100.0 * report.merged.buffer_pool.reuse_rate(),
            elapsed.as_secs_f64(),
        );
        for shard in &report.per_shard {
            println!(
                "    shard {}: {} flows, {} events",
                shard.shard, shard.flows_assigned, shard.events_processed
            );
        }
        digests.push(report.digest());
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "fleet runs must be identical across shard counts"
    );
    println!("  deterministic: identical digests across shard counts ✓");
}

fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[sorted.len() / 2])
}
