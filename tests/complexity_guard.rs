//! Complexity guard: the work the connect path does per flow must not grow
//! with the population.
//!
//! `WireTap` and `ConnectionTable` count every element they examine or move
//! beyond their O(1) index probes (`tap.scan_elems`, `conn_table.scan_elems`
//! — plain counters, live in every build). Both structures used to scan:
//! the tap walked every packet ever captured twice per connect, the table
//! walked and shifted every entry per state change and removal, so each
//! counter's per-flow value grew in step with the population (4× from 100
//! to 400 users) and the run's cost with its square. This test holds the
//! per-flow values flat, by counts alone — no wall clock, so it is as
//! deterministic as the digests. A new scan on this path fails here instead
//! of waiting for a profiler run.

use mopeye::dataset::Scenario;
use mopeye::engine::{MopEyeConfig, MopEyeEngine};

/// Per-flow growth allowed from the small to the large population.
const MAX_GROWTH: f64 = 1.3;

/// Runs a rush hour of `users` on one engine; each connect-path counter
/// divided by the number of flows run.
fn work_per_flow(users: usize) -> Vec<(&'static str, f64)> {
    let scenario = Scenario::rush_hour(users, 2017);
    let flows = scenario.generate();
    let flow_count = flows.len();
    let mut engine = MopEyeEngine::new(MopEyeConfig::mopeye(), scenario.network().build());
    let report = engine.run_flows(flows);
    assert_eq!(report.flows.len(), flow_count, "every flow has an outcome");
    engine
        .connect_path_counters()
        .into_iter()
        .map(|(name, count)| (name, count as f64 / flow_count as f64))
        .collect()
}

#[test]
fn connect_path_work_per_flow_is_flat_in_the_population() {
    let small = work_per_flow(100);
    let large = work_per_flow(400);
    assert_eq!(small.len(), large.len());
    for ((name, small), (large_name, large)) in small.into_iter().zip(large) {
        assert_eq!(name, large_name);
        assert!(
            large <= small * MAX_GROWTH,
            "{name} per flow grew {small:.2} -> {large:.2} from 100 to 400 users \
             (more than {MAX_GROWTH}x): something on the connect path scans again"
        );
    }
}
